// Command udrbench runs the paper-reproduction experiments (E1–E24)
// and prints their reports: the tables and series behind every figure
// and quantitative claim in "CAP Limits in Telecom Subscriber
// Database Design" (see DESIGN.md for the architecture and
// EXPERIMENTS.md for the experiment index and paper-vs-measured).
//
// Usage:
//
//	udrbench              # run everything, full size
//	udrbench -run E3      # one experiment
//	udrbench -quick       # reduced populations (CI-sized)
//	udrbench -list        # show the experiment index
//
// An experiment whose figures benchmark/ measures (E12, E13, E17, E18,
// E23) prints the benchmark command, the metrics and the tests that
// assert its claims instead of running.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		run   = flag.String("run", "", "comma-separated experiment IDs (default: all)")
		quick = flag.Bool("quick", false, "reduced populations and durations")
		list  = flag.Bool("list", false, "list experiments and exit")
		seed  = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			title, source, _ := experiments.Describe(id)
			fmt.Printf("%-4s %-72s [%s]\n", id, title, source)
		}
		return
	}

	ids := experiments.IDs()
	if *run != "" {
		ids = nil
		for _, id := range strings.Split(*run, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}

	ctx := context.Background()
	opts := experiments.Options{Quick: *quick, Seed: *seed}
	failed := 0
	for _, id := range ids {
		if p, ok := experiments.Pointer(id); ok {
			title, _, _ := experiments.Describe(id)
			fmt.Printf("=== %s: %s ===\n%s\n\n", id, title, p)
			continue
		}
		start := time.Now()
		rep, err := experiments.Run(ctx, id, opts)
		if err != nil {
			log.Printf("%s: %v", id, err)
			failed++
			continue
		}
		fmt.Println(rep)
		fmt.Printf("(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
		if !rep.Passed() {
			failed++
		}
	}
	if failed > 0 {
		fmt.Printf("udrbench: %d experiment(s) failed\n", failed)
		os.Exit(1)
	}
}
