// Datacenter: the scalability study in miniature (Figure 9).
//
// It runs the paper's workload scenarios through every application
// mapping policy on a cluster — untuned serial/spread mappings (SM,
// MNM1, MNM2), per-node mappings (SNM, CBM), tuning-only (PTM), the full
// ECoST pipeline, and the brute-force upper bound (UB) — and prints the
// EDP of each policy normalized to UB. It then replays one scenario
// through the instrumented online scheduler and prints the observability
// snapshot (queue behaviour, pairing-tree outcomes, energy by occupancy
// phase).
//
// Run with: go run ./examples/datacenter [nodes]
package main

import (
	"fmt"
	"log"
	"os"
	"strconv"

	"ecost/internal/cluster"
	"ecost/internal/core"
	"ecost/internal/experiments"
	"ecost/internal/mapreduce"
	"ecost/internal/metrics"
)

func main() {
	nodes := 2
	if len(os.Args) > 1 {
		n, err := strconv.Atoi(os.Args[1])
		if err != nil || n < 1 {
			log.Fatalf("usage: datacenter [nodes]")
		}
		nodes = n
	}

	fmt.Println("building ECoST knowledge base...")
	env, err := experiments.NewEnv(experiments.FastOptions())
	if err != nil {
		log.Fatal(err)
	}
	runner := &core.PolicyRunner{
		Oracle:   env.Oracle,
		DB:       env.DB,
		Tuner:    env.LkT, // most accurate on the coarse demo database
		Profiler: env.Profiler,
	}

	scenarios := []string{"WS3", "WS4", "WS8"} // I/O-only, mixed, all-classes
	fmt.Printf("\nEDP normalized to the brute-force upper bound (UB = 1.00), %d node(s):\n\n", nodes)
	fmt.Printf("%-9s", "scenario")
	for _, p := range core.Policies() {
		fmt.Printf("%8s", p)
	}
	fmt.Println()
	for _, name := range scenarios {
		wl, err := core.Scenario(name)
		if err != nil {
			log.Fatal(err)
		}
		ub, err := runner.Run(core.UB, wl, nodes)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-9s", name)
		for _, p := range core.Policies() {
			res, err := runner.Run(p, wl, nodes)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%8.2f", res.EDP/ub.EDP)
		}
		fmt.Println()
	}
	fmt.Println("\nSM/MNM/SNM/CBM run untuned (max frequency, 128MB blocks);")
	fmt.Println("PTM tunes without pairing; ECoST pairs by the class decision tree and tunes with LkT-STP")
	fmt.Println("(the most accurate technique on this demo's coarse database; see EXPERIMENTS.md).")

	if err := onlineWithMetrics(env, nodes); err != nil {
		log.Fatal(err)
	}
}

// onlineWithMetrics replays WS4 through the event-driven scheduler with
// the observability registry attached, then prints the deterministic
// snapshot — the same snapshot `ecost-sim -metrics` prints per shard.
func onlineWithMetrics(env *experiments.Env, nodes int) error {
	fmt.Println("\nonline ECoST replay of WS4 with observability enabled:")
	wl, err := core.Scenario("WS4")
	if err != nil {
		return err
	}
	reg := metrics.NewRegistry()
	model := mapreduce.NewModel(cluster.AtomC2758())
	sched, err := core.NewShardedScheduler(model, env.DB, env.Profiler,
		func() core.STP { return core.NewMemoSTP(env.LkT, nil) },
		nodes, core.ShardedConfig{Shards: 1})
	if err != nil {
		return err
	}
	sched.SetMetrics(reg)
	for _, j := range wl.Jobs {
		sched.Submit(j.App, j.SizeGB, 0)
	}
	makespan, energy, err := sched.Run()
	if err != nil {
		return err
	}
	fmt.Printf("makespan %.0f s, energy %.0f J\n\n", makespan, energy)
	return reg.Snapshot(false).WriteText(os.Stdout)
}
