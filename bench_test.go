// Package wattdb_test hosts the benchmark harness: one testing.B benchmark
// per table/figure of the paper's evaluation. Each benchmark runs the
// figure suite's entry (internal/experiments.Figures, the same driver
// cmd/wattdb-bench uses) at CI scale, fails on a broken figure shape, and
// reports the figure's headline numbers as custom metrics, so
// `go test -bench=BenchmarkFig -benchtime=1x` regenerates the whole
// evaluation. EXPERIMENTS.md records a reference run and the comparison
// against the paper.
package wattdb_test

import (
	"testing"

	"wattdb/internal/experiments"
)

// benchFigure runs the named suite entry at the quick preset.
func benchFigure(b *testing.B, name string) {
	fig, ok := experiments.LookupFigure(name)
	if !ok {
		b.Fatalf("no figure %q", name)
	}
	for i := 0; i < b.N; i++ {
		rep, err := fig.Run(experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + rep.Table)
			for _, f := range rep.Failures {
				b.Error(f)
			}
			for _, m := range rep.Metrics {
				b.ReportMetric(m.Value, m.Unit)
			}
		}
	}
}

// BenchmarkFig1RecordThroughput regenerates Fig. 1: record throughput under
// five operator placements.
func BenchmarkFig1RecordThroughput(b *testing.B) { benchFigure(b, "fig1") }

// BenchmarkFig2SortOffloading regenerates Fig. 2: scan+sort throughput with
// the sort local vs offloaded, across concurrency levels.
func BenchmarkFig2SortOffloading(b *testing.B) { benchFigure(b, "fig2") }

// BenchmarkFig3MVCCvsLocking regenerates Fig. 3: transaction throughput and
// storage under MVCC vs MGL-RX while 50% of records move.
func BenchmarkFig3MVCCvsLocking(b *testing.B) { benchFigure(b, "fig3") }

// BenchmarkFig6Rebalancing regenerates Fig. 6: the TPC-C rebalance under
// all three partitioning schemes.
func BenchmarkFig6Rebalancing(b *testing.B) { benchFigure(b, "fig6") }

// BenchmarkFig7Breakdown regenerates Fig. 7: the per-component query
// runtime decomposition under rebalancing.
func BenchmarkFig7Breakdown(b *testing.B) { benchFigure(b, "fig7") }

// BenchmarkFigHTAP regenerates the HTAP interference study: the CH-style
// analytics aggregate co-located with an OLTP home vs offloaded to a spare
// (follower snapshot reads) vs partition-parallel through the exchange.
func BenchmarkFigHTAP(b *testing.B) { benchFigure(b, "htap") }

// BenchmarkFig8Helpers regenerates Fig. 8: physiological rebalancing with
// helper nodes (log shipping + rDMA buffering).
func BenchmarkFig8Helpers(b *testing.B) { benchFigure(b, "fig8") }
