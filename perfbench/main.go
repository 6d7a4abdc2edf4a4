// Command perfbench is WattDB's benchmark. It builds each workload's
// simulated cluster through the public APIs of cluster, tpcc, exec and
// chbench, drives it with its own client, migration and analytics loops,
// checks the outputs, and prints the metrics as one JSON object on the last
// line of standard output:
//
//	go run . --workload rebalance --seed 1 --seconds 20 --trace 0
//
// Every metric names its clock. Sim metrics are the modelled cluster's
// results and repeat exactly per seed; host metrics are what running the
// simulator costs on the machine at hand. --trace 0 reports the end-to-end
// metrics; --trace 1 runs the same simulations with spans, Fig. 7 time
// decompositions and host profiles on and reports the per-layer metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload to run: rebalance, oltp-replicated or htap-offload")
	seed := flag.Int64("seed", 1, "seed of the workload's inputs")
	seconds := flag.Int("seconds", 20, "host seconds to keep re-running the simulations for")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json as the metric tables define it")
	flag.Parse()
	if *manifest {
		os.Stdout.Write(manifestJSON())
		return
	}
	sp, ok := lookupSpec(*workload)
	if !ok || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or trace %d\n", *workload, *trace)
		os.Exit(2)
	}
	// The simulation hands control from goroutine to goroutine; on one
	// processor it runs about a fifth faster than on two and leaves the
	// machine's other core to the rest of the system.
	runtime.GOMAXPROCS(1)
	res, err := run(sp, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", sp.name, *seed, err)
		os.Exit(1)
	}
	fmt.Println(res.info)
	line, err := json.Marshal(res.out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type result struct {
	out  output
	info string // human-readable lines printed before the result
}

// subSeeds derives the seeds of a run's simulated clusters from the run's
// seed with SplitMix64, so neighbouring run seeds share no cluster.
func subSeeds(seed int64, n int) []int64 {
	out := make([]int64, n)
	x := uint64(seed)
	for i := range out {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		out[i] = int64(z >> 33)
	}
	return out
}

// run simulates the workload's clusters, then keeps re-simulating them in
// turn until the host budget is spent. Sim metrics come from the first pass
// and every repeat must reproduce them exactly; host metrics take, per
// cluster, the median over its executions. A traced run then simulates the
// clusters once more with tracing on, which must not change a single event.
func run(sp spec, seed int64, budget time.Duration, traced bool) (*result, error) {
	// First pass: simulate clusters from the run's seed sequence until
	// subRuns of them completed. A cluster whose simulation the engine
	// crashed is reported as a failed operation and the next seed of the
	// sequence takes its place, so sim metrics always pool subRuns clusters.
	pool := subSeeds(seed, maxClusters*sp.subRuns)
	var seeds []int64
	var first []*subRun
	var crashes []string
	var hostRun, hostAlloc [][]float64
	var setups []float64
	start := time.Now()
	keep := func(k int, r *subRun) {
		setups = append(setups, r.setup.Seconds())
		hostRun[k] = append(hostRun[k], r.hostRun.Seconds())
		hostAlloc[k] = append(hostAlloc[k], float64(r.hostAlloc))
	}
	for _, s := range pool {
		if len(first) == sp.subRuns {
			break
		}
		runtime.GC()
		r, err := simulate(sp, s, nil)
		var crash *clusterCrash
		switch {
		case errors.As(err, &crash):
			msg, _, _ := strings.Cut(err.Error(), "\n") // drop the panic's stack
			crashes = append(crashes, fmt.Sprintf("cluster seed %d crashed in %s", s, msg))
			continue
		case err != nil:
			return nil, fmt.Errorf("cluster seed %d: %w", s, err)
		case r.check != nil:
			return nil, fmt.Errorf("cluster seed %d: output check failed: %w", s, r.check)
		}
		seeds = append(seeds, s)
		first = append(first, r)
		hostRun = append(hostRun, nil)
		hostAlloc = append(hostAlloc, nil)
		keep(len(first)-1, r)
	}
	if len(first) < sp.subRuns {
		return nil, fmt.Errorf("only %d of %d clusters completed: %s", len(first), len(pool), strings.Join(crashes, "; "))
	}
	// rerun re-simulates cluster k, which must reproduce its first
	// execution exactly.
	rerun := func(k int, tr *tracer) (*subRun, error) {
		runtime.GC()
		r, err := simulate(sp, seeds[k], tr)
		if err != nil {
			return nil, fmt.Errorf("cluster seed %d rerun: %w", seeds[k], err)
		}
		if a, b := digest(first[k]), digest(r); a != b {
			return nil, fmt.Errorf("cluster seed %d rerun (traced %v) differs: %s, first run %s", seeds[k], tr != nil, b, a)
		}
		return r, nil
	}
	var tracedRuns []*subRun
	var host *hostProfile
	if traced {
		runtime.MemProfileRate = allocProfileRate
		host = newHostProfile()
		for k := range seeds {
			r, err := rerun(k, &tracer{host: host})
			if err != nil {
				return nil, err
			}
			tracedRuns = append(tracedRuns, r)
		}
		if host.err != nil {
			return nil, fmt.Errorf("host profile: %w", host.err)
		}
	}
	for i := 0; !traced && time.Since(start) < budget; i++ {
		k := i % len(seeds)
		r, err := rerun(k, nil)
		if err != nil {
			return nil, err
		}
		keep(k, r)
	}

	sims := simMetrics(first)
	hostS, allocB := 0.0, 0.0
	for k := range seeds {
		hostS += median(hostRun[k])
		allocB += median(hostAlloc[k])
	}
	res := &result{out: output{Correct: true, Metrics: map[string]value{}}}
	res.out.Attempted += len(crashes)
	res.out.Failed += len(crashes)
	for _, c := range crashes {
		fmt.Fprintf(os.Stderr, "perfbench: failed operation: %s\n", c)
	}
	// A transaction aborted by concurrency control after its retries is a
	// correct answer under snapshot isolation (it counts in fail_ratio); a
	// request that ended in any other error is a failed operation.
	for _, r := range first {
		for _, o := range r.ops {
			if r.inWindow(o) {
				res.out.Attempted++
				if o.failed {
					res.out.Failed++
				}
			}
		}
		for _, q := range r.queries {
			if q.counted {
				res.out.Attempted++
			}
		}
		res.out.Attempted += r.failedQueries
		res.out.Failed += r.failedQueries
		for i, msg := range r.unexpected {
			if i == 3 {
				fmt.Fprintf(os.Stderr, "perfbench: cluster seed %d: %d more failed requests\n", r.seed, len(r.unexpected)-i)
				break
			}
			fmt.Fprintf(os.Stderr, "perfbench: cluster seed %d: failed request: %s\n", r.seed, msg)
		}
	}

	if traced {
		layers := layerMetrics(tracedRuns)
		layers["host_s"] = hostS
		// Allocation shares come from the traced clusters' profiles, so they
		// scale those clusters' own total (tracing included).
		var tracedAlloc float64
		for _, r := range tracedRuns {
			tracedAlloc += float64(r.hostAlloc)
		}
		cpu := shares(host.cpuNanos)
		alloc := shares(host.alloc)
		for _, m := range modules {
			layers["host.cpu_share."+m] = cpu[m]
			layers["host.alloc_mb."+m] = alloc[m] * tracedAlloc / mb
		}
		var tags []string
		for _, m := range perLayer {
			res.out.Metrics[m.name] = value{layers[m.name], m.unit}
			tags = append(tags, fmt.Sprintf("# %-32s %14.6g %-6s moves %s", m.name, layers[m.name], m.unit, m.moves))
		}
		res.info = strings.Join(tags, "\n") + "\n"
		path := filepath.Join(buildDir(), "traces", fmt.Sprintf("%s-seed%d.tsv", sp.name, seed))
		if err := tracedRuns[0].trace.writeSpans(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	} else {
		e2e := map[string]float64{
			"commit_tps":    sims["commit_tps"],
			"txn_p50_ms":    sims["txn_p50_ms"],
			"txn_p95_ms":    sims["txn_p95_ms"],
			"abort_ratio":   sims["abort_ratio"],
			"j_per_txn":     sims["j_per_txn"],
			"host_alloc_mb": allocB / mb,
			"peak_rss_mb":   peakRSS(),
			"setup_s":       median(setups),
		}
		for _, m := range endToEnd {
			res.out.Metrics[m.name] = value{e2e[m.name], m.unit}
		}
	}

	var info []string
	for _, name := range []string{"txn_n", "migration_s", "analytics_qps", "analytics_p99_ms", "analytics_n"} {
		info = append(info, fmt.Sprintf("%s=%.6g", name, sims[name]))
	}
	res.info += fmt.Sprintf("# %s seed %d: %d clusters, %d executions, sim events %d; %s",
		sp.name, seed, len(seeds), len(setups), totalEvents(first), strings.Join(info, " "))
	return res, nil
}

func totalEvents(runs []*subRun) uint64 {
	var n uint64
	for _, r := range runs {
		n += r.kernel.Events
	}
	return n
}

// digest fingerprints a cluster's simulated outcome: every request's timing
// and result, the kernel's event counters, and the migration span.
func digest(r *subRun) string {
	h := fnv.New64a()
	for _, o := range r.ops {
		fmt.Fprintf(h, "%d %d %d %v %d;", o.typ, o.start, o.latency, o.committed, o.attempts)
	}
	for _, q := range r.queries {
		fmt.Fprintf(h, "%d %d %v;", q.start, q.latency, q.counted)
	}
	fmt.Fprintf(h, "%+v %d %d %v", r.kernel, r.migStart, r.migEnd, r.atEnd.energy)
	return fmt.Sprintf("%016x", h.Sum64())
}

// peakRSS returns the process's peak resident set in MB.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / mb // Linux reports KiB
}

// buildDir is where build outputs and traces go.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

// manifestJSON renders BENCHMARK.json from the workload and metric tables.
func manifestJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, s := range workloads {
		m.Workloads = append(m.Workloads, wl{s.name, s.why})
	}
	for _, x := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{x.name, x.unit, x.better, x.bound})
	}
	for _, x := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{x.name, x.unit, x.better})
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err) // static tables of plain values always marshal
	}
	return append(out, '\n')
}

// maxClusters bounds the clusters one run may simulate, as a multiple of
// the workload's subRuns, before crashed clusters fail the run.
const maxClusters = 2

// runSeconds is the host time one benchmark run measures for.
const runSeconds = 20
