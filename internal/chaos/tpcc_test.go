package chaos

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"wattdb/internal/table"
)

// TestChaosTPCCSeedsPass runs a short TPC-C chaos scenario for each
// repartitioning scheme and requires every warehouse invariant to hold.
func TestChaosTPCCSeedsPass(t *testing.T) {
	for _, scheme := range []table.Scheme{table.Physical, table.Logical, table.Physiological} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			rep, err := RunTPCC(Config{Seed: 5, Scheme: scheme, Duration: 25 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			logReport(t, rep)
			if !rep.Passed() {
				t.Fatalf("invariant violations:\n%s", strings.Join(rep.Violations, "\n"))
			}
			if rep.Commits == 0 {
				t.Fatal("no transactions committed under chaos")
			}
			if rep.Crashes == 0 || rep.Restarts == 0 {
				t.Fatalf("plan injected no crash/restart (crashes=%d restarts=%d)", rep.Crashes, rep.Restarts)
			}
		})
	}
}

// TestChaosTPCCDeterministic reruns one TPC-C seed and requires the
// identical fault schedule and final state hash.
func TestChaosTPCCDeterministic(t *testing.T) {
	cfg := Config{Seed: 8, Scheme: table.Physiological, Duration: 20 * time.Second}
	r1, err := RunTPCC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunTPCC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.StateHash != r2.StateHash {
		t.Errorf("state hash differs: %s vs %s", r1.StateHash, r2.StateHash)
	}
	if fmt.Sprint(r1.Faults) != fmt.Sprint(r2.Faults) {
		t.Errorf("fault schedules differ:\nrun1: %v\nrun2: %v", r1.Faults, r2.Faults)
	}
	if r1.Commits != r2.Commits || r1.Aborts != r2.Aborts || r1.SimTime != r2.SimTime {
		t.Errorf("run outcome differs: (%d,%d,%v) vs (%d,%d,%v)",
			r1.Commits, r1.Aborts, r1.SimTime, r2.Commits, r2.Aborts, r2.SimTime)
	}
	// Pinned value: a change that moves it changes the simulation and must
	// say so in CHANGES.md.
	if want := "9229d8382a806a9b"; r1.StateHash != want {
		t.Errorf("state hash moved: %s, want %s", r1.StateHash, want)
	}
}
