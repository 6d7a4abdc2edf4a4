package experiments

import (
	"reflect"
	"testing"

	"wattdb/internal/sim"
	"wattdb/internal/table"
)

// TestTimelineDeterministic is the determinism guard for the whole
// experiment suite: two same-seed runs of a figure preset must produce
// byte-identical result tables AND identical simulation-kernel statistics
// (event, wakeup, and callback counts). Any map-iteration order or host
// randomness leaking into the virtual clock shows up here as a diff in
// KernelStats long before it visibly distorts a figure.
func TestTimelineDeterministic(t *testing.T) {
	run := func() TimelineResult {
		t.Helper()
		res, err := RunTimeline(TimelineOpts{Preset: tiny(), Scheme: table.Physiological})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1 := run()
	r2 := run()
	if r1.KernelStats != r2.KernelStats {
		t.Errorf("kernel stats differ between same-seed runs:\nrun1: %+v\nrun2: %+v",
			r1.KernelStats, r2.KernelStats)
	}
	if r1.Commits != r2.Commits || r1.Aborts != r2.Aborts || r1.MigrationTook != r2.MigrationTook {
		t.Errorf("run outcome differs: (%d,%d,%v) vs (%d,%d,%v)",
			r1.Commits, r1.Aborts, r1.MigrationTook, r2.Commits, r2.Aborts, r2.MigrationTook)
	}
	if !reflect.DeepEqual(r1.QPS, r2.QPS) || !reflect.DeepEqual(r1.ResponseMs, r2.ResponseMs) ||
		!reflect.DeepEqual(r1.Watts, r2.Watts) || !reflect.DeepEqual(r1.JoulePerQuery, r2.JoulePerQuery) {
		t.Error("result tables differ between same-seed runs")
	}
	// Pinned values: a change that moves them changes the simulation and
	// must say so in CHANGES.md.
	want := sim.Stats{Events: 247314, Wakeups: 246701, Callbacks: 613, HeapDepth: 27,
		MaxHeapDepth: 73, WaiterAllocs: 628, WaiterReuses: 765}
	if r1.KernelStats != want {
		t.Errorf("kernel stats moved:\ngot:  %+v\nwant: %+v", r1.KernelStats, want)
	}
	if r1.Commits != 4698 || r1.Aborts != 18 || r1.MigrationTook != 10315233757 {
		t.Errorf("run outcome moved: (%d,%d,%d), want (4698,18,10315233757)",
			r1.Commits, r1.Aborts, int64(r1.MigrationTook))
	}
}

// TestFig1Deterministic pins the operator micro-benchmark and a small
// MVCC-vs-locking sweep: identical seeds must reproduce the exact
// throughput numbers, and those numbers must equal the pinned values.
func TestFig1Deterministic(t *testing.T) {
	r1, err := Fig1(300, 42)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Fig1(300, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("fig1 differs between same-seed runs:\nrun1: %+v\nrun2: %+v", r1, r2)
	}
	want1 := []Fig1Row{
		{"TBSCAN local", 40000},
		{"L PROJECT + TBSCAN", 34482.75862068966},
		{"R PROJECT + TBSCAN (single record)", 963.817785569909},
		{"R PROJECT + TBSCAN (vectorized)", 18916.579398180376},
		{"R PROJECT + R BUFFER + TBSCAN (vectorized)", 20465.09800326132},
	}
	if !reflect.DeepEqual(r1.Rows, want1) {
		t.Errorf("fig1 table moved:\ngot:  %+v\nwant: %+v", r1.Rows, want1)
	}

	r3, err := Fig3(150, []int{0, 50, 100}, 42)
	if err != nil {
		t.Fatal(err)
	}
	want3 := []Fig3Row{
		{0, 142384.8156861908, 1284.7581618076356, 277.13216145833337, 161.77164713541669},
		{50, 6289.661225092151, 724.1311398829525, 530.0618489583333, 251.82291666666666},
		{100, 24621.254599764306, 10236.373960477944, 1022.69287109375, 249.50358072916666},
	}
	if !reflect.DeepEqual(r3.Rows, want3) {
		t.Errorf("fig3 table moved:\ngot:  %+v\nwant: %+v", r3.Rows, want3)
	}
}
