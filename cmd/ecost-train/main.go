// Command ecost-train builds the ECoST knowledge base offline — profiles
// the training applications, runs the COLAO searches that populate the
// configuration database, trains all four STP techniques — and reports
// training accuracy (Table 1) and overheads (Figure 8).
//
// Usage:
//
//	ecost-train [-fast]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ecost/internal/cliutil"
	"ecost/internal/experiments"
	"ecost/internal/workloads"
)

func main() {
	fast := flag.Bool("fast", false, "use the fast (coarse) environment")
	saveDB := flag.String("save-db", "", "write the configuration database (lookup entries + feature matrix) to this JSON file")
	logLevel := flag.String("log-level", "warn", "log verbosity: debug, info, warn, error")
	flag.Parse()

	if err := cliutil.SetupLogging(os.Stderr, *logLevel); err != nil {
		fmt.Fprintln(os.Stderr, "ecost-train:", err)
		os.Exit(cliutil.ExitUsage)
	}

	opt := experiments.DefaultOptions()
	if *fast {
		opt = experiments.FastOptions()
	}
	start := time.Now()
	env, err := experiments.NewEnv(opt)
	if err != nil {
		cliutil.Fatalf("building environment failed", "err", err)
	}
	fmt.Printf("database: %d pair entries over %d training applications ×%d sizes (built in %v)\n",
		len(env.DB.Entries), len(workloads.Training()), len(workloads.DataSizesGB()),
		time.Since(start).Round(time.Millisecond))
	all, err := env.DB.Rows()
	if err != nil {
		cliutil.Fatalf("sweeping training rows failed", "err", err)
	}
	var rows int
	for _, r := range all {
		rows += len(r)
	}
	fmt.Printf("training rows: %d across %d class pairs\n", rows, len(all))
	fmt.Printf("models: LR %d, REPTree %d, MLP %d (per class pair × size combination)\n\n",
		env.LR.Models(), env.REPTree.Models(), env.MLP.Models())

	fmt.Println("classifier check (unknown applications):")
	for _, app := range workloads.Testing() {
		obs, err := env.Profiler.Observe(app, 5)
		if err != nil {
			cliutil.Fatalf("profiling failed", "app", app.Name, "err", err)
		}
		got := env.DB.Classifier().Classify(obs)
		near := env.DB.Classifier().NearestKnown(obs)
		mark := "ok"
		if got != app.Class {
			mark = "MISCLASSIFIED"
		}
		fmt.Printf("  %-4s true %v → classified %v, nearest known %s  [%s]\n",
			app.Name, app.Class, got, near.App.Name(), mark)
	}
	fmt.Println()

	fmt.Println("pairing priorities (decision tree inputs):")
	for _, c := range workloads.Classes() {
		fmt.Printf("  running %v → prefer %v\n", c, env.DB.PartnerPriority(c))
	}
	fmt.Println()

	t1, _, err := experiments.Table1ModelAPE(env)
	if err != nil {
		cliutil.Fatalf("Table 1 failed", "err", err)
	}
	fmt.Println(t1)

	f8, _, err := experiments.Fig8Overheads(env)
	if err != nil {
		cliutil.Fatalf("Figure 8 failed", "err", err)
	}
	fmt.Println(f8)

	if *saveDB != "" {
		f, err := os.Create(*saveDB)
		if err != nil {
			cliutil.Fatalf("creating -save-db failed", "err", err)
		}
		if err := env.DB.SaveDatabase(f); err != nil {
			cliutil.Fatalf("writing -save-db failed", "err", err)
		}
		if err := f.Close(); err != nil {
			cliutil.Fatalf("closing -save-db failed", "err", err)
		}
		fmt.Printf("database written to %s (%d entries)\n", *saveDB, len(env.DB.Entries))
	}
}
