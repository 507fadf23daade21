// Command knnexp runs the paper's experiments and prints their tables.
//
// Usage:
//
//	knnexp -list
//	knnexp -exp fig10
//	knnexp -exp all -queries 200 -scale 0.5
//
// Each experiment id corresponds to a table or figure of the paper;
// knnexp -list prints the index, one line per experiment.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"rnknn/internal/cliutil"
	"rnknn/internal/exp"
)

func main() {
	var (
		id      = flag.String("exp", "", "experiment id to run, or 'all'")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		queries = flag.Int("queries", 0, "queries per measurement (default 100)")
		scale   = flag.Float64("scale", 0, "network scale factor (default 1.0)")
		seed    = flag.Int64("seed", 0, "workload seed (default 42)")
	)
	flag.Parse()

	if *list || *id == "" {
		titles := exp.Titles()
		fmt.Println("experiments:")
		for _, e := range exp.IDs() {
			fmt.Printf("  %-8s %s\n", e, titles[e])
		}
		if *id == "" && !*list {
			fmt.Println("\nrun with -exp <id> or -exp all")
		}
		return
	}
	if *queries < 0 {
		cliutil.UsageExit("", "-queries must be >= 0 (0 uses the default), got %d", *queries)
	}
	if *scale < 0 {
		cliutil.UsageExit("", "-scale must be >= 0 (0 uses the default), got %g", *scale)
	}

	cfg := exp.Config{Queries: *queries, Scale: *scale, Seed: *seed}
	ids := []string{*id}
	if *id == "all" {
		ids = exp.IDs()
	} else if _, ok := exp.Titles()[*id]; !ok {
		cliutil.UsageExit("", "unknown experiment %q (run with -list for the index)", *id)
	}
	for _, e := range ids {
		start := time.Now()
		tables, err := exp.Run(e, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		for _, t := range tables {
			fmt.Println(t)
		}
		fmt.Printf("(%s took %s)\n\n", e, time.Since(start).Round(time.Millisecond))
	}
}
