package main

import (
	"bytes"
	"os"
	"reflect"
	"testing"
	"time"

	"wattdb/internal/experiments"
	"wattdb/internal/sim"
	"wattdb/internal/table"
)

// shortSpec shortens a workload to one cluster and the given window.
func shortSpec(t *testing.T, name string, warmup, observe time.Duration) spec {
	t.Helper()
	sp, ok := lookupSpec(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	sp.warmup, sp.observe, sp.subRuns = warmup, observe, 1
	return sp
}

func mustSimulate(t *testing.T, sp spec, seed int64, tr *tracer) *subRun {
	t.Helper()
	r, err := simulate(sp, seed, tr)
	if err != nil {
		t.Fatalf("%s seed %d: %v", sp.name, seed, err)
	}
	if r.check != nil {
		t.Fatalf("%s seed %d: output check: %v", sp.name, seed, r.check)
	}
	return r
}

// fig7Preset is Fig. 7's plain run (96 frames, 3/4 of the clients) at the
// Quick scale, shortened to a window that still holds the whole migration.
func fig7Preset(seed int64) experiments.Preset {
	pre := experiments.Quick()
	pre.BufferFrames = 96
	pre.Clients = pre.Clients * 3 / 4
	pre.Warmup = 10 * time.Second
	pre.Observe = 25 * time.Second
	pre.Seed = seed
	return pre
}

// The rebalance workload is the rebalancing timeline of Sect. 5.1: with the
// timeline's options it reproduces RunTimeline exactly.
func TestRebalanceReproducesTimeline(t *testing.T) {
	pre := fig7Preset(1)
	want, err := experiments.RunTimeline(experiments.TimelineOpts{Preset: pre, Scheme: table.Physiological})
	if err != nil {
		t.Fatal(err)
	}
	sp := shortSpec(t, "rebalance", pre.Warmup, pre.Observe)
	if sp.frames != pre.BufferFrames || sp.clients != pre.Clients {
		t.Fatalf("rebalance runs %d frames / %d clients, Fig. 7 %d / %d", sp.frames, sp.clients, pre.BufferFrames, pre.Clients)
	}
	got := mustSimulate(t, sp, pre.Seed, nil)
	if want.MigrationTook == 0 {
		t.Fatal("the timeline's migration did not finish inside the window")
	}
	if got.commitsAll != want.Commits || got.abortsAll != want.Aborts {
		t.Errorf("commits/aborts %d/%d, timeline %d/%d", got.commitsAll, got.abortsAll, want.Commits, want.Aborts)
	}
	if took := got.migEnd - got.migStart; took != want.MigrationTook {
		t.Errorf("migration took %v, timeline %v", took, want.MigrationTook)
	}
	if got.kernel != want.KernelStats {
		t.Errorf("kernel stats %+v, timeline %+v", got.kernel, want.KernelStats)
	}
}

// fig7Bars recomputes RunTimeline's Fig. 7 bars from a traced cluster.
func fig7Bars(r *subRun) (normal, rebal map[sim.Category]time.Duration) {
	normal, rebal = map[sim.Category]time.Duration{}, map[sim.Category]time.Duration{}
	var nN, nR int
	for _, o := range r.ops {
		if !o.committed || o.bd == nil {
			continue
		}
		var into map[sim.Category]time.Duration
		switch {
		case o.start+o.latency < r.origin:
			into = normal
			nN++
		case o.migrating:
			into = rebal
			nR++
		default:
			continue
		}
		categorised := time.Duration(0)
		for _, cat := range sim.Categories() {
			if cat == sim.CatOther || cat == sim.CatCPU {
				continue
			}
			into[cat] += o.bd.Get(cat)
			categorised += o.bd.Get(cat)
		}
		if rest := o.latency - categorised; rest > 0 {
			into[sim.CatOther] += rest
		}
	}
	for cat := range normal {
		normal[cat] /= time.Duration(nN)
	}
	for cat := range rebal {
		rebal[cat] /= time.Duration(nR)
	}
	return normal, rebal
}

// The traced rebalance run reproduces Fig. 7's plain-run bars.
func TestTracedRebalanceReproducesFig7(t *testing.T) {
	pre := fig7Preset(1)
	want, err := experiments.RunTimeline(experiments.TimelineOpts{Preset: pre, Scheme: table.Physiological, CollectBreakdown: true})
	if err != nil {
		t.Fatal(err)
	}
	got := mustSimulate(t, shortSpec(t, "rebalance", pre.Warmup, pre.Observe), pre.Seed, &tracer{host: newHostProfile()})
	normal, rebal := fig7Bars(got)
	if !reflect.DeepEqual(normal, want.BreakdownNormal) {
		t.Errorf("normal bars %v, Fig. 7 %v", normal, want.BreakdownNormal)
	}
	if !reflect.DeepEqual(rebal, want.BreakdownRebal) {
		t.Errorf("rebalancing bars %v, Fig. 7 %v", rebal, want.BreakdownRebal)
	}
	if len(rebal) == 0 {
		t.Error("no transaction finished during the migration")
	}
}

// The htap-offload workload is FigHTAP's offloaded row.
func TestHTAPReproducesFigHTAP(t *testing.T) {
	pre := experiments.Quick()
	pre.Warmup, pre.Observe, pre.Seed = 4*time.Second, 8*time.Second, 3
	fig, err := experiments.FigHTAP(pre)
	if err != nil {
		t.Fatal(err)
	}
	want := fig.Row(experiments.HTAPOffloaded)
	sp := shortSpec(t, "htap-offload", pre.Warmup, pre.Observe)
	r := mustSimulate(t, sp, pre.Seed, nil)
	got := experiments.FigHTAPRow{
		Mode:          experiments.HTAPOffloaded,
		AnalyticsQPS:  float64(r.figQueries) / pre.Observe.Seconds(),
		OLTPp99Ms:     ms(pct(r.figLatencies, 99)),
		OLTPCommits:   r.figCommits,
		FollowerReads: r.followerReadsAll,
	}
	if got != want {
		t.Errorf("perfbench %+v, FigHTAP %+v", got, want)
	}
	if want.AnalyticsQPS == 0 || want.FollowerReads == 0 {
		t.Errorf("degenerate figure row %+v", want)
	}
}

// Tracing reads the sim clock only: traced and untraced runs of a seed give
// identical sim metrics and event counts. Every workload is also run on a
// seed no tuning used and must pass its output checks.
func TestTracingDoesNotPerturb(t *testing.T) {
	for _, name := range []string{"rebalance", "oltp-replicated", "htap-offload"} {
		t.Run(name, func(t *testing.T) {
			sp := shortSpec(t, name, 4*time.Second, 8*time.Second)
			plain := mustSimulate(t, sp, 424242, nil)
			traced := mustSimulate(t, sp, 424242, &tracer{host: newHostProfile()})
			if a, b := simMetrics([]*subRun{plain}), simMetrics([]*subRun{traced}); !reflect.DeepEqual(a, b) {
				t.Errorf("sim metrics differ:\nuntraced %v\ntraced   %v", a, b)
			}
			if plain.kernel != traced.kernel || digest(plain) != digest(traced) {
				t.Errorf("kernel %+v vs %+v", plain.kernel, traced.kernel)
			}
			if len(traced.trace.spans) == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}

// Every metric a run reports is non-zero where the workload exercises it,
// and the traced run reports exactly the per-layer list.
func TestRunReportsEveryMetric(t *testing.T) {
	sp := shortSpec(t, "htap-offload", 2*time.Second, 4*time.Second)
	sp.subRuns = 2
	t.Setenv("CARGO_TARGET_DIR", t.TempDir())
	for _, traced := range []bool{false, true} {
		res, err := run(sp, 5, 0, traced)
		if err != nil {
			t.Fatal(err)
		}
		want := endToEnd
		if traced {
			want = perLayer
		}
		if len(res.out.Metrics) != len(want) {
			t.Errorf("traced=%v: %d metrics, want %d", traced, len(res.out.Metrics), len(want))
		}
		for _, m := range want {
			v, ok := res.out.Metrics[m.name]
			if !ok {
				t.Errorf("traced=%v: %s missing", traced, m.name)
			}
			if !traced && v.Value <= 0 {
				t.Errorf("end-to-end %s = %v", m.name, v.Value)
			}
		}
	}
}

// BENCHMARK.json is the manifest the metric tables generate.
func TestManifestMatchesTables(t *testing.T) {
	file, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, manifestJSON()) {
		t.Error("BENCHMARK.json is stale: regenerate it with `go run . -manifest > ../BENCHMARK.json`")
	}
}
