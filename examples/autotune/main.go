// Autotune: the self-tuning prediction (STP) path in isolation.
//
// Two unknown applications arrive to be co-located. The example profiles
// them at the reference configuration, classifies them, and asks all
// four STP techniques (LkT, LR, REPTree, MLP) for the best joint
// frequency / HDFS block size / mapper configuration — then checks each
// prediction against the COLAO brute-force oracle, like Table 2 of the
// paper.
//
// Run with: go run ./examples/autotune [app1 sizeGB app2 sizeGB]
package main

import (
	"fmt"
	"log"
	"os"
	"strconv"

	"ecost/internal/experiments"
	"ecost/internal/workloads"
)

func main() {
	nameA, sizeA := "nb", 5.0
	nameB, sizeB := "cf", 5.0
	if len(os.Args) == 5 {
		nameA = os.Args[1]
		nameB = os.Args[3]
		var err1, err2 error
		sizeA, err1 = strconv.ParseFloat(os.Args[2], 64)
		sizeB, err2 = strconv.ParseFloat(os.Args[4], 64)
		if err1 != nil || err2 != nil {
			log.Fatalf("usage: autotune app1 sizeGB app2 sizeGB")
		}
	}
	idA, err := workloads.Lookup(nameA)
	if err != nil {
		log.Fatal(err)
	}
	idB, err := workloads.Lookup(nameB)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("building ECoST knowledge base...")
	env, err := experiments.NewEnv(experiments.FastOptions())
	if err != nil {
		log.Fatal(err)
	}

	oa, err := env.Observe(idA, sizeA)
	if err != nil {
		log.Fatal(err)
	}
	ob, err := env.Observe(idB, sizeB)
	if err != nil {
		log.Fatal(err)
	}
	appA, appB := idA.App(), idB.App()
	fmt.Printf("\nincoming pair: %s (%gGB) + %s (%gGB)\n", appA.Name, sizeA, appB.Name, sizeB)
	ca := env.DB.Classifier().Classify(oa)
	cb := env.DB.Classifier().Classify(ob)
	fmt.Printf("  %s classified %v (true %v), nearest known: %s\n",
		appA.Name, ca, appA.Class, env.DB.Classifier().NearestKnown(oa).App.Name())
	fmt.Printf("  %s classified %v (true %v), nearest known: %s\n",
		appB.Name, cb, appB.Class, env.DB.Classifier().NearestKnown(ob).App.Name())

	colao, err := env.Oracle.COLAO(idA, sizeA*1024, idB, sizeB*1024)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nCOLAO oracle (brute force over %d joint configs):\n", 28*400)
	fmt.Printf("  config %v | %v  → EDP %.4g, makespan %.0fs\n",
		colao.Cfg[0], colao.Cfg[1], colao.Out.EDP, colao.Out.Makespan)

	fmt.Println("\nSTP predictions (note: this demo trains the learning models on a")
	fmt.Println("deliberately coarse database for speed — the LkT lookup is exact, while")
	fmt.Println("LR/REPTree/MLP need the full-coverage database of cmd/ecost-bench to")
	fmt.Println("reach their EXPERIMENTS.md accuracy):")
	for _, s := range env.STPs() {
		cfg, err := s.PredictBest(oa, ob)
		if err != nil {
			log.Fatal(err)
		}
		out, err := env.Oracle.EvalPair(idA, sizeA*1024, idB, sizeB*1024, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s %v | %v  → EDP %.4g (%.2f%% above oracle)\n",
			s.Name(), cfg[0], cfg[1], out.EDP, 100*(out.EDP-colao.Out.EDP)/colao.Out.EDP)
	}
}
