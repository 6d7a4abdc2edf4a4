package experiments

import (
	"fmt"
	"time"

	"wattdb/internal/sim"
)

// Figure is one entry of the figure suite, the single driver behind both
// cmd/wattdb-bench and the BenchmarkFig* benchmarks: Run executes the
// figure at a preset's scale (per-preset sizes are chosen by Preset.Name)
// and returns its table, headline metrics and failed shape checks.
type Figure struct {
	Name string
	Run  func(pre Preset) (Report, error)
}

// Metric is one headline number of a figure.
type Metric struct {
	Value float64
	Unit  string
}

// Report is a figure's outcome. Failures lists the paper's qualitative
// claims (the figure's shape) that the run did not reproduce.
type Report struct {
	Table    string
	Metrics  []Metric
	Failures []string
}

// figure builds a suite entry from a typed run, its headline metrics and
// its shape checks.
func figure[R fmt.Stringer](name string, run func(Preset) (R, error),
	metrics func(R) []Metric, check func(R) []string) Figure {
	return Figure{Name: name, Run: func(pre Preset) (Report, error) {
		res, err := run(pre)
		if err != nil {
			return Report{}, err
		}
		return Report{Table: res.String(), Metrics: metrics(res), Failures: check(res)}, nil
	}}
}

// Figures is the suite in presentation order.
var Figures = []Figure{
	figure("fig1", func(pre Preset) (Fig1Result, error) {
		rows := 20000
		if pre.Name == "quick" {
			rows = 5000
		}
		return Fig1(rows, pre.Seed)
	}, func(r Fig1Result) []Metric {
		return []Metric{
			{r.Rows[0].RecordsPerSec, "local-rec/s"},
			{r.Rows[2].RecordsPerSec, "remote1-rec/s"},
			{r.Rows[3].RecordsPerSec, "remoteVec-rec/s"},
		}
	}, func(r Fig1Result) (fails []string) {
		local, single, vector := r.Rows[0].RecordsPerSec, r.Rows[2].RecordsPerSec, r.Rows[3].RecordsPerSec
		if single > local/10 {
			fails = append(fails, fmt.Sprintf("single-record remote (%.0f) should collapse vs local (%.0f)", single, local))
		}
		if vector < single*5 {
			fails = append(fails, fmt.Sprintf("vectorisation (%.0f) should recover most of the loss vs %.0f", vector, single))
		}
		return fails
	}),

	figure("fig2", func(pre Preset) (Fig2Result, error) {
		rows, levels := 2000, []int{1, 10, 100, 1000}
		if pre.Name == "quick" {
			rows, levels = 800, []int{1, 10, 100}
		}
		return Fig2(rows, levels, pre.Seed)
	}, func(r Fig2Result) []Metric {
		hi := r.Rows[len(r.Rows)-1]
		return []Metric{
			{hi.LocalQPS, fmt.Sprintf("local-qps@%d", hi.Concurrent)},
			{hi.RemoteQPS, fmt.Sprintf("offload-qps@%d", hi.Concurrent)},
		}
	}, func(r Fig2Result) (fails []string) {
		lo, hi := r.Rows[0], r.Rows[len(r.Rows)-1]
		if lo.RemoteQPS > lo.LocalQPS {
			fails = append(fails, fmt.Sprintf("at concurrency %d local (%.1f) should beat offloaded (%.1f)",
				lo.Concurrent, lo.LocalQPS, lo.RemoteQPS))
		}
		if hi.RemoteQPS < hi.LocalQPS {
			fails = append(fails, fmt.Sprintf("at concurrency %d offloaded (%.1f) should beat local (%.1f)",
				hi.Concurrent, hi.RemoteQPS, hi.LocalQPS))
		}
		return fails
	}),

	figure("fig3", func(pre Preset) (Fig3Result, error) {
		records, ratios := 20000, []int{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
		if pre.Name == "quick" {
			records, ratios = 5000, []int{0, 50, 100}
		}
		return Fig3(records, ratios, pre.Seed)
	}, func(r Fig3Result) []Metric {
		last := r.Rows[len(r.Rows)-1]
		return []Metric{{last.MVCCPerMin / last.LockingPerMin, fmt.Sprintf("mvcc/mgl@%d%%", last.UpdatePct)}}
	}, func(r Fig3Result) (fails []string) {
		for _, row := range r.Rows {
			if row.MVCCPerMin <= row.LockingPerMin {
				fails = append(fails, fmt.Sprintf("MVCC (%.0f) should out-run MGL (%.0f) at %d%% updates",
					row.MVCCPerMin, row.LockingPerMin, row.UpdatePct))
			}
			if row.UpdatePct == 50 && row.MVCCStorage <= row.LockingStorage {
				fails = append(fails, fmt.Sprintf("MVCC storage (%.0f%%) should exceed locking's (%.0f%%) under updates",
					row.MVCCStorage, row.LockingStorage))
			}
		}
		return fails
	}),

	figure("fig6", Fig6, func(r Fig6Result) []Metric {
		return []Metric{
			{r.Physiological.MigrationTook.Seconds(), "physio-move-s"},
			{r.Logical.MigrationTook.Seconds(), "logical-move-s"},
			{afterQPS(r.Physiological), "physio-after-qps"},
			{afterQPS(r.Logical), "logical-after-qps"},
		}
	}, func(r Fig6Result) (fails []string) {
		if r.Physiological.MigrationTook >= r.Logical.MigrationTook {
			fails = append(fails, fmt.Sprintf("physiological migration (%v) should beat logical (%v)",
				r.Physiological.MigrationTook, r.Logical.MigrationTook))
		}
		return fails
	}),

	figure("fig7", Fig7, func(r Fig7Result) []Metric {
		return []Metric{{totalMs(r.Normal), "normal-ms"}, {totalMs(r.Rebalance), "rebalance-ms"}}
	}, func(r Fig7Result) (fails []string) {
		if normal, rebal := totalMs(r.Normal), totalMs(r.Rebalance); rebal <= normal {
			fails = append(fails, fmt.Sprintf("rebalancing (%.1f ms) should inflate query runtime vs normal (%.1f ms)",
				rebal, normal))
		}
		return fails
	}),

	figure("fig8", Fig8, func(r Fig8Result) []Metric {
		return []Metric{{rebalanceWatts(r.Plain), "plain-W"}, {rebalanceWatts(r.Helped), "helped-W"}}
	}, func(r Fig8Result) (fails []string) {
		if plain, helped := rebalanceWatts(r.Plain), rebalanceWatts(r.Helped); helped <= plain {
			fails = append(fails, fmt.Sprintf("helpers must draw extra power (%.0f vs %.0f W)", helped, plain))
		}
		return fails
	}),

	figure("htap", FigHTAP, func(r FigHTAPResult) []Metric {
		co, off := r.Row(HTAPColocated), r.Row(HTAPOffloaded)
		return []Metric{
			{r.Row(HTAPBaseline).OLTPp99Ms, "base-p99-ms"},
			{co.OLTPp99Ms, "coloc-p99-ms"},
			{off.OLTPp99Ms, "offload-p99-ms"},
			{co.AnalyticsQPS, "coloc-q/s"},
			{off.AnalyticsQPS, "offload-q/s"},
			{r.Row(HTAPParallel).AnalyticsQPS, "parallel-q/s"},
		}
	}, func(r FigHTAPResult) (fails []string) {
		co, off := r.Row(HTAPColocated), r.Row(HTAPOffloaded)
		if off.AnalyticsQPS <= co.AnalyticsQPS {
			fails = append(fails, fmt.Sprintf("offloaded analytics (%.2f q/s) should beat co-located (%.2f q/s)",
				off.AnalyticsQPS, co.AnalyticsQPS))
		}
		if off.OLTPp99Ms >= co.OLTPp99Ms {
			fails = append(fails, fmt.Sprintf("offloading should improve OLTP p99 (%.1f ms vs co-located %.1f ms)",
				off.OLTPp99Ms, co.OLTPp99Ms))
		}
		if off.FollowerReads == 0 {
			fails = append(fails, "offloaded mode never used a follower snapshot read")
		}
		return fails
	}),
}

// LookupFigure returns the suite entry with the given name.
func LookupFigure(name string) (Figure, bool) {
	for _, f := range Figures {
		if f.Name == name {
			return f, true
		}
	}
	return Figure{}, false
}

// afterQPS is the throughput from 20 s after the migration to t=120 s (the
// end of the quick preset's window).
func afterQPS(tl TimelineResult) float64 {
	return MeanOver(tl.QPS, tl.MigrationTook+20*time.Second, 120*time.Second)
}

// rebalanceWatts is the cluster's mean power over the first 20 s of the
// rebalance.
func rebalanceWatts(tl TimelineResult) float64 { return MeanOver(tl.Watts, 0, 20*time.Second) }

// totalMs sums a Fig. 7 bar in milliseconds.
func totalMs(bar map[sim.Category]time.Duration) float64 {
	var total time.Duration
	for _, d := range bar {
		total += d
	}
	return float64(total) / float64(time.Millisecond)
}
