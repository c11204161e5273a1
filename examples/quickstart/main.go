// Quickstart: the shortest path through the ECoST public surface.
//
// It builds the offline knowledge base (profile training apps → COLAO
// database → REPTree self-tuning models), then submits a small mixed
// batch of *unknown* applications to the online scheduler on a two-node
// microserver cluster and prints what ECoST decided: how each job was
// classified, whom it was co-located with, and which frequency / HDFS
// block size / mapper configuration it was given.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"ecost/internal/cluster"
	"ecost/internal/core"
	"ecost/internal/experiments"
	"ecost/internal/mapreduce"
	"ecost/internal/workloads"
)

func main() {
	fmt.Println("building ECoST knowledge base (training apps → database → models)...")
	env, err := experiments.NewEnv(experiments.FastOptions())
	if err != nil {
		log.Fatal(err)
	}

	// A mixed batch of unknown applications: compute-, hybrid-, I/O- and
	// memory-bound, arriving 90 seconds apart.
	batch := []struct {
		app  string
		size float64
	}{
		{"svm", 5}, {"pr", 5}, {"km", 5}, {"nb", 1},
		{"cf", 5}, {"hmm", 10}, {"pr", 1}, {"nb", 5},
	}

	model := mapreduce.NewModel(cluster.AtomC2758())
	// The demo database is coarse (FastOptions), where the lookup table
	// is the most accurate tuner; a full-fidelity deployment would use
	// REPTree (see EXPERIMENTS.md). One shard runs the whole cluster.
	sched, err := core.NewShardedScheduler(model, env.DB, env.Profiler,
		func() core.STP { return env.LkT }, 2, core.ShardedConfig{Shards: 1})
	if err != nil {
		log.Fatal(err)
	}
	for i, j := range batch {
		sched.Submit(workloads.MustLookup(j.app), j.size, float64(i)*90)
	}

	makespan, energy, err := sched.Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%d jobs on a 2-node cluster of %v-core Atom microservers\n",
		len(batch), cluster.AtomC2758().Cores)
	fmt.Printf("makespan %.0f s, energy %.1f kJ, EDP %.3g J·s\n\n",
		makespan, energy/1000, energy*makespan)

	fmt.Printf("%-3s %-5s %-6s %-5s %8s %8s %8s %5s %-14s\n",
		"id", "app", "class", "size", "submit", "start", "finish", "node", "cfg (f,hdfs,m)")
	for _, c := range sched.Completed() {
		fmt.Printf("%-3d %-5s %-6v %4.0fGB %8.0f %8.0f %8.0f %5d %-14v\n",
			c.ID, c.App, c.Class, c.SizeGB, c.Submitted, c.Started, c.Finished, c.Node, c.Cfg)
	}

	fmt.Println("\npairing priorities the scheduler used (derived from the database):")
	for _, cl := range workloads.Classes() {
		fmt.Printf("  running %v → prefer partner %v\n", cl, env.DB.PartnerPriority(cl))
	}
}
