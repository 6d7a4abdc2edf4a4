// Command wattdb-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	wattdb-bench -exp fig1|fig2|fig3|fig6|fig7|fig8|htap|all [-preset quick|paper] [-seed N]
//
// Output is the textual equivalent of each figure — the same series/bars the
// paper plots — followed by its headline metrics. The figures come from the
// suite the BenchmarkFig* benchmarks run (internal/experiments.Figures); a
// figure whose shape breaks the paper's claim is reported and makes the
// command exit 1. EXPERIMENTS.md records a reference run.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"wattdb/internal/experiments"
)

func main() {
	log.SetFlags(0)
	exp := flag.String("exp", "all", "experiment: fig1, fig2, fig3, fig6, fig7, fig8, htap, or all")
	preset := flag.String("preset", "quick", "scale preset: quick or paper")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Parse()

	var pre experiments.Preset
	switch *preset {
	case "quick":
		pre = experiments.Quick()
	case "paper":
		pre = experiments.Paper()
	default:
		log.Fatalf("unknown preset %q", *preset)
	}
	pre.Seed = *seed

	figs := experiments.Figures
	if *exp != "all" {
		fig, ok := experiments.LookupFigure(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
			os.Exit(2)
		}
		figs = []experiments.Figure{fig}
	}
	failed := false
	for _, fig := range figs {
		start := time.Now()
		rep, err := fig.Run(pre)
		if err != nil {
			log.Fatalf("%s: %v", fig.Name, err)
		}
		fmt.Println(rep.Table)
		metrics := make([]string, len(rep.Metrics))
		for i, m := range rep.Metrics {
			metrics[i] = fmt.Sprintf("%.5g %s", m.Value, m.Unit)
		}
		fmt.Printf("headline: %s\n", strings.Join(metrics, ", "))
		for _, f := range rep.Failures {
			fmt.Printf("SHAPE CHECK FAILED: %s\n", f)
			failed = true
		}
		fmt.Printf("[%s completed in %.1fs wall time]\n\n", fig.Name, time.Since(start).Seconds())
	}
	if failed {
		os.Exit(1)
	}
}
