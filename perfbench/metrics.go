package main

import (
	"math"
	"sort"
	"time"

	"wattdb/internal/sim"
	"wattdb/internal/tpcc"
)

// metric is one reported number. End-to-end metrics carry the bound by
// which they may worsen; per-layer metrics name the end-to-end metric and
// workload they should move ("" = informational).
type metric struct {
	name   string
	unit   string
	better string
	bound  float64
	moves  string
}

// endToEnd are the metrics a user of the cluster sees, reported by every
// untraced run. sim = the modelled cluster's result (exact per seed);
// host = the cost of running the simulator.
var endToEnd = []metric{
	{name: "commit_tps", unit: "txn/s", better: "higher", bound: 0.25}, // sim
	{name: "txn_p50_ms", unit: "ms", better: "lower", bound: 0.15},     // sim
	{name: "txn_p95_ms", unit: "ms", better: "lower", bound: 0.15},     // sim
	{name: "abort_ratio", unit: "ratio", better: "lower", bound: 0.25}, // sim
	{name: "j_per_txn", unit: "J/txn", better: "lower", bound: 0.25},   // sim
	{name: "host_alloc_mb", unit: "MB", better: "lower", bound: 0.25},  // host
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.2},     // host
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},         // host CPU
}

const (
	onRebalance = " on rebalance"
	onOLTP      = " on oltp-replicated"
	onHTAP      = " on htap-offload"
	onAll       = " on all workloads"
)

// perLayer are the traced run's metrics. Counts and times are means per
// simulated cluster (one measured window); percentiles pool every window.
var perLayer = func() []metric {
	m := []metric{
		// Workload-specific headlines: zero where the workload has no such
		// activity, so they cannot be end-to-end metrics (those are never 0).
		{name: "migration_s", unit: "s", better: "lower", moves: "headline" + onRebalance},
		{name: "analytics_qps", unit: "q/s", better: "higher", moves: "headline" + onHTAP},
		{name: "analytics_p99_ms", unit: "ms", better: "lower", moves: "headline" + onHTAP},
		{name: "analytics_n", unit: "count", better: "higher", moves: "samples of analytics_p99_ms"},
		{name: "txn_n", unit: "count", better: "higher", moves: "samples of txn_p50_ms, txn_p95_ms and txn_p99_ms"},
		// The share of transactions still aborted after their retries. It
		// swings with the cluster's contention regime far more than
		// abort_ratio, too much to gate at this run length.
		{name: "fail_ratio", unit: "ratio", better: "lower", moves: "headline" + onAll},
		// On rebalance 0.5-1.5% of transactions wait ~2 s on locks while
		// segments move, so the p99 falls on the cliff between the normal
		// tail and those stalls and jumps between seeds; p95 is gated instead.
		{name: "txn_p99_ms", unit: "ms", better: "lower", moves: "headline" + onAll},
		// The machine's speed drifts by a quarter over minutes (3.8-5.5 us of
		// CPU per simulated event for the same work), beyond any bound an
		// end-to-end metric may have, so host time is reported here only.
		{name: "host_s", unit: "s", better: "lower", moves: "headline" + onAll},
		{name: "trace.host_s", unit: "s", better: "lower", moves: "host_s (tracing overhead)"},

		{name: "sim.events", unit: "count", better: "lower", moves: "host_s" + onAll},
		{name: "sim.max_heap_depth", unit: "count", better: "lower", moves: "host_s" + onAll},
		{name: "sim.host_ns_per_event", unit: "ns", better: "lower", moves: "host_s" + onAll},

		{name: "hw.data_disk_reads", unit: "count", better: "lower", moves: "txn_p95_ms, migration_s" + onRebalance},
		{name: "hw.data_disk_writes", unit: "count", better: "lower", moves: "txn_p95_ms, migration_s" + onRebalance},
		{name: "hw.data_disk_busy_s", unit: "s", better: "lower", moves: "txn_p95_ms, migration_s" + onRebalance},
		{name: "hw.log_disk_writes", unit: "count", better: "lower", moves: "txn_p50_ms" + onOLTP},
		{name: "hw.log_disk_busy_s", unit: "s", better: "lower", moves: "txn_p50_ms" + onOLTP},
		{name: "hw.net_bytes", unit: "bytes", better: "lower", moves: "migration_s" + onRebalance + "; txn_p50_ms" + onOLTP},
		{name: "hw.net_msgs", unit: "count", better: "lower", moves: "migration_s" + onRebalance + "; txn_p50_ms" + onOLTP},
		{name: "hw.cpu_util", unit: "ratio", better: "lower", moves: "j_per_txn" + onAll},
		{name: "hw.energy_j", unit: "J", better: "lower", moves: "j_per_txn" + onAll},
	}
	for _, n := range []string{"hits", "misses", "hit_ratio", "evictions", "flushes", "latch_waits", "remote_hits"} {
		unit, better := "count", "lower"
		if n == "hits" || n == "remote_hits" {
			better = "higher"
		}
		if n == "hit_ratio" {
			unit, better = "ratio", "higher"
		}
		m = append(m, metric{name: "buffer." + n, unit: unit, better: better,
			moves: "txn_p95_ms, migration_s" + onRebalance + " (flat where the data fits)"})
	}
	for _, n := range []string{"reads", "writes", "scanned_tuples", "aborts"} {
		m = append(m, metric{name: "table." + n, unit: "count", better: "lower",
			moves: "analytics_qps" + onHTAP + "; abort_ratio" + onAll})
	}
	m = append(m,
		metric{name: "wal.records", unit: "count", better: "lower", moves: "txn_p50_ms" + onOLTP},
		metric{name: "wal.log_bytes", unit: "bytes", better: "lower", moves: "txn_p50_ms" + onOLTP},
		metric{name: "wal.retained_bytes", unit: "bytes", better: "lower", moves: "txn_p50_ms" + onOLTP},
	)
	for _, n := range []string{"write_conflicts", "lock_timeouts", "retries"} {
		m = append(m, metric{name: "cc." + n, unit: "count", better: "lower",
			moves: "abort_ratio, commit_tps, txn_p95_ms" + onRebalance})
	}
	m = append(m,
		metric{name: "cluster.begin_ms_p50", unit: "ms", better: "lower", moves: "txn_p50_ms" + onOLTP},
		metric{name: "cluster.begin_ms_p99", unit: "ms", better: "lower", moves: "txn_p95_ms" + onOLTP},
		metric{name: "cluster.begin_n", unit: "count", better: "higher", moves: "samples of cluster.begin_ms_*"},
		metric{name: "cluster.commit_ms_p50", unit: "ms", better: "lower", moves: "txn_p50_ms" + onOLTP},
		metric{name: "cluster.commit_ms_p99", unit: "ms", better: "lower", moves: "txn_p95_ms" + onOLTP},
		metric{name: "cluster.commit_n", unit: "count", better: "higher", moves: "samples of cluster.commit_ms_*"},
		metric{name: "cluster.abort_ms_p99", unit: "ms", better: "lower", moves: "txn_p95_ms" + onAll},
		metric{name: "cluster.abort_n", unit: "count", better: "lower", moves: "samples of cluster.abort_ms_p99"},
		metric{name: "cluster.migrate_table_s_max", unit: "s", better: "lower", moves: "migration_s" + onRebalance},
		metric{name: "cluster.migrate_table_s_sum", unit: "s", better: "lower", moves: "migration_s" + onRebalance},
		metric{name: "cluster.ship_drain_ms_p99", unit: "ms", better: "lower", moves: "txn_p95_ms" + onOLTP},
		metric{name: "cluster.ship_drain_n", unit: "count", better: "higher", moves: "samples of cluster.ship_drain_ms_p99"},
		metric{name: "cluster.follower_reads", unit: "count", better: "higher", moves: "analytics_qps" + onHTAP},
		metric{name: "cluster.failovers", unit: "count", better: "lower", moves: "must stay 0" + onAll},
	)
	for _, t := range txnTypes {
		n := txnSpan[t]
		m = append(m,
			metric{name: n + ".exec_ms_p99", unit: "ms", better: "lower", moves: "txn_p95_ms" + onAll},
			metric{name: n + ".n", unit: "count", better: "higher", moves: "samples of " + n + ".exec_ms_p99"},
			metric{name: n + ".fails", unit: "count", better: "lower", moves: "fail_ratio, abort_ratio" + onAll},
		)
	}
	m = append(m,
		metric{name: "exec.query_ms_p50", unit: "ms", better: "lower", moves: "analytics_qps, analytics_p99_ms" + onHTAP},
		metric{name: "exec.query_ms_p99", unit: "ms", better: "lower", moves: "analytics_qps, analytics_p99_ms" + onHTAP},
		metric{name: "exec.query_n", unit: "count", better: "higher", moves: "samples of exec.query_ms_*"},
		metric{name: "exec.rows_per_query", unit: "rows", better: "lower", moves: "analytics_qps, analytics_p99_ms" + onHTAP},
		metric{name: "chbench.scan_rows", unit: "rows", better: "higher", moves: "analytics_qps, analytics_p99_ms" + onHTAP},
	)
	for _, b := range breakdownNames {
		for _, suffix := range []string{"", ".normal", ".rebal"} {
			moves := "txn_p95_ms" + onAll
			switch suffix {
			case ".normal":
				moves = "txn_p95_ms" + onRebalance + " (before the migration)"
			case ".rebal":
				moves = "txn_p95_ms" + onRebalance
			}
			m = append(m, metric{name: b.name + suffix, unit: "ms", better: "lower", moves: moves})
		}
	}
	for _, suffix := range []string{"", ".normal", ".rebal"} {
		m = append(m, metric{name: "breakdown_n" + suffix, unit: "count", better: "higher",
			moves: "samples of the" + suffix + " per-txn breakdown"})
	}
	m = append(m,
		metric{name: "tpcc.txn.self_ms", unit: "ms", better: "lower", moves: "txn_p50_ms" + onAll},
		metric{name: "chbench.query.self_ms", unit: "ms", better: "lower", moves: "analytics_p99_ms" + onHTAP},
		metric{name: "cluster.migration.self_s", unit: "s", better: "lower", moves: "migration_s" + onRebalance},
	)
	for _, mod := range modules {
		m = append(m, metric{name: "host.cpu_share." + mod, unit: "ratio", better: "lower", moves: "host_s" + onAll})
	}
	for _, mod := range modules {
		m = append(m, metric{name: "host.alloc_mb." + mod, unit: "MB", better: "lower", moves: "host_alloc_mb" + onAll})
	}
	return m
}()

var txnTypes = []tpcc.TxnType{tpcc.TxnNewOrder, tpcc.TxnPayment, tpcc.TxnOrderStatus, tpcc.TxnDelivery, tpcc.TxnStockLevel}

// breakdownNames maps the Fig. 7 categories to per-layer metric names.
// "other" is the client-visible latency no category covers (CPU included,
// as in the figure).
var breakdownNames = []struct {
	name string
	cat  sim.Category
}{
	{"hw.disk_io_ms", sim.CatDiskIO},
	{"hw.network_io_ms", sim.CatNetworkIO},
	{"cc.locking_ms", sim.CatLocking},
	{"buffer.latching_ms", sim.CatLatching},
	{"wal.logging_ms", sim.CatLogging},
	{"other_ms", sim.CatOther},
}

const mb = 1 << 20

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pct returns the p-th percentile of ds by the figure experiments' rule,
// sorted[n*p/100]; ds is sorted in place. Empty input gives 0.
func pct(ds []time.Duration, p int) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[min(len(ds)*p/100, len(ds)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// inWindow reports whether op o started in the measured window (it finished
// before the window closed, or it would not have been recorded).
func (r *subRun) inWindow(o op) bool { return o.start >= r.origin }

// simMetrics computes the sim end-to-end metrics and the workload headlines
// over the pooled windows of runs. Everything it returns repeats exactly
// per seed.
func simMetrics(runs []*subRun) map[string]float64 {
	out := map[string]float64{}
	var window, migTime time.Duration
	var ops, attempts, committed, queries int
	var energy float64
	var lat, qLat []time.Duration
	for _, r := range runs {
		window += r.close - r.origin
		energy += r.atEnd.energy - r.atStart.energy
		for _, o := range r.ops {
			if !r.inWindow(o) {
				continue
			}
			ops++
			attempts += o.attempts
			if o.committed {
				committed++
				lat = append(lat, o.latency)
			}
		}
		migTime += r.migEnd - r.migStart
		for _, q := range r.queries {
			if q.counted {
				queries++
				qLat = append(qLat, q.latency)
			}
		}
	}
	out["commit_tps"] = float64(committed) / window.Seconds()
	out["txn_n"] = float64(len(lat))
	out["txn_p50_ms"] = ms(pct(lat, 50))
	out["txn_p95_ms"] = ms(pct(lat, 95))
	out["txn_p99_ms"] = ms(pct(lat, 99))
	if ops > 0 {
		out["fail_ratio"] = float64(ops-committed) / float64(ops)
		out["abort_ratio"] = float64(attempts-committed) / float64(attempts)
	}
	if committed > 0 {
		out["j_per_txn"] = energy / float64(committed)
	}
	if migTime > 0 {
		out["migration_s"] = migTime.Seconds() / float64(len(runs))
	}
	out["analytics_qps"] = float64(queries) / window.Seconds()
	out["analytics_n"] = float64(queries)
	out["analytics_p99_ms"] = ms(pct(qLat, 99))
	return out
}

// layerMetrics computes the traced run's per-layer metrics.
func layerMetrics(runs []*subRun) map[string]float64 {
	out := simMetrics(runs)
	for _, e := range endToEnd {
		delete(out, e.name)
	}
	k := float64(len(runs))
	sum := map[string]float64{} // totals over the windows, reported per window
	var sw, sAll spanStats
	var hostNs float64
	var events, heap uint64
	var bufHits, bufMisses int64
	queries := 0
	cats := map[string][3]time.Duration{}
	var catN [3]int
	for _, r := range runs {
		a, b := r.atStart, r.atEnd
		obs := (r.close - r.origin).Seconds()
		hostNs += float64(r.hostRun.Nanoseconds())
		events += r.windowEvents
		heap = max(heap, uint64(r.kernel.MaxHeapDepth))
		sum["hw.data_disk_reads"] += float64(b.dataReads - a.dataReads)
		sum["hw.data_disk_writes"] += float64(b.dataWrites - a.dataWrites)
		sum["hw.data_disk_busy_s"] += b.dataBusy - a.dataBusy
		sum["hw.log_disk_writes"] += float64(b.logWrites - a.logWrites)
		sum["hw.log_disk_busy_s"] += b.logBusy - a.logBusy
		sum["hw.net_bytes"] += float64(b.netBytes - a.netBytes)
		sum["hw.net_msgs"] += float64(b.netMsgs - a.netMsgs)
		if b.cpuCapacity > 0 {
			sum["hw.cpu_util"] += (b.cpuBusy - a.cpuBusy) / (obs * b.cpuCapacity)
		}
		sum["hw.energy_j"] += b.energy - a.energy
		bufHits += b.buf.Hits - a.buf.Hits
		bufMisses += b.buf.Misses - a.buf.Misses
		sum["buffer.hits"] += float64(b.buf.Hits - a.buf.Hits)
		sum["buffer.misses"] += float64(b.buf.Misses - a.buf.Misses)
		sum["buffer.evictions"] += float64(b.buf.Evictions - a.buf.Evictions)
		sum["buffer.flushes"] += float64(b.buf.Flushes - a.buf.Flushes)
		sum["buffer.latch_waits"] += float64(b.buf.LatchWaits - a.buf.LatchWaits)
		sum["buffer.remote_hits"] += float64(b.buf.RemoteHits - a.buf.RemoteHits)
		sum["table.reads"] += float64(r.tbl.Reads)
		sum["table.writes"] += float64(r.tbl.Writes)
		sum["table.scanned_tuples"] += float64(r.tbl.ScannedTuples)
		sum["table.aborts"] += float64(r.tbl.Aborts)
		sum["wal.records"] += float64(b.walTail - a.walTail)
		sum["wal.log_bytes"] += float64(b.logBytes - a.logBytes)
		sum["wal.retained_bytes"] += float64(b.walRetained)
		sum["cluster.follower_reads"] += float64(b.followerReads - a.followerReads)
		out["cluster.failovers"] += float64(r.failovers)
		sum["chbench.scan_rows"] += float64(r.scanRows)
		out["exec.rows_per_query"] += float64(r.outRows)
		for _, o := range r.ops {
			if !r.inWindow(o) {
				continue
			}
			sum["cc.write_conflicts"] += float64(o.conflicts)
			sum["cc.lock_timeouts"] += float64(o.timeouts)
			sum["cc.retries"] += float64(o.attempts - 1)
			if !o.committed {
				sum[txnSpan[o.typ]+".fails"]++
			}
		}
		for _, q := range r.queries {
			if q.counted {
				queries++
			}
		}
		// Fig. 7 decomposition: the window, and RunTimeline's normal
		// (finished before the window) and rebalancing sets.
		for _, o := range r.ops {
			if !o.committed || o.bd == nil {
				continue
			}
			set := -1
			switch at := o.start + o.latency; {
			case at < r.origin:
				set = 1
			case o.migrating:
				set = 2
			}
			for _, s := range []int{0, set} {
				if s < 0 || (s == 0 && !r.inWindow(o)) {
					continue
				}
				catN[s]++
				rest := o.latency
				for _, b := range breakdownNames {
					if b.cat == sim.CatOther {
						continue
					}
					v := cats[b.name]
					v[s] += o.bd.Get(b.cat)
					rest -= o.bd.Get(b.cat)
					cats[b.name] = v
				}
				if rest > 0 {
					v := cats["other_ms"]
					v[s] += rest
					cats["other_ms"] = v
				}
			}
		}
		r.trace.aggregate(r.origin, r.close, &sw)
		r.trace.aggregate(0, math.MaxInt64, &sAll)
	}
	for name, v := range sum {
		out[name] = v / k
	}
	out["trace.host_s"] = hostNs / 1e9
	out["sim.events"] = float64(events) / k
	out["sim.max_heap_depth"] = float64(heap)
	if events > 0 {
		out["sim.host_ns_per_event"] = hostNs / float64(events)
	}
	if bufHits+bufMisses > 0 {
		out["buffer.hit_ratio"] = float64(bufHits) / float64(bufHits+bufMisses)
	}
	if queries > 0 {
		out["exec.rows_per_query"] /= float64(queries)
	} else {
		out["exec.rows_per_query"] = 0
	}

	durs := func(name string, p int) float64 { return ms(pct(sw.dur[name], p)) }
	out["cluster.begin_ms_p50"] = durs("cluster.begin", 50)
	out["cluster.begin_ms_p99"] = durs("cluster.begin", 99)
	out["cluster.begin_n"] = float64(len(sw.dur["cluster.begin"]))
	out["cluster.commit_ms_p50"] = durs("cluster.commit", 50)
	out["cluster.commit_ms_p99"] = durs("cluster.commit", 99)
	out["cluster.commit_n"] = float64(len(sw.dur["cluster.commit"]))
	out["cluster.abort_ms_p99"] = durs("cluster.abort", 99)
	out["cluster.abort_n"] = float64(len(sw.dur["cluster.abort"]))
	out["cluster.ship_drain_ms_p99"] = durs("cluster.ship_drain", 99)
	out["cluster.ship_drain_n"] = float64(len(sw.dur["cluster.ship_drain"]))
	var tblMax, tblSum time.Duration
	for _, d := range sAll.dur["cluster.migrate_table"] {
		tblMax = max(tblMax, d)
		tblSum += d
	}
	out["cluster.migrate_table_s_max"] = tblMax.Seconds()
	out["cluster.migrate_table_s_sum"] = tblSum.Seconds() / k
	for _, t := range txnTypes {
		n := txnSpan[t]
		out[n+".exec_ms_p99"] = durs(n, 99)
		out[n+".n"] = float64(len(sw.dur[n]))
	}
	out["exec.query_ms_p50"] = durs("exec.query", 50)
	out["exec.query_ms_p99"] = durs("exec.query", 99)
	out["exec.query_n"] = float64(len(sw.dur["exec.query"]))
	for i, suffix := range []string{"", ".normal", ".rebal"} {
		for _, b := range breakdownNames {
			if catN[i] > 0 {
				out[b.name+suffix] = ms(cats[b.name][i]) / float64(catN[i])
			} else {
				out[b.name+suffix] = 0
			}
		}
		out["breakdown_n"+suffix] = float64(catN[i])
	}
	perSpan := func(name string, sel spanStats) float64 {
		if n := len(sel.dur[name]); n > 0 {
			return float64(sel.self[name]) / float64(n)
		}
		return 0
	}
	out["tpcc.txn.self_ms"] = perSpan("tpcc.txn", sw) / float64(time.Millisecond)
	out["chbench.query.self_ms"] = perSpan("chbench.query", sw) / float64(time.Millisecond)
	out["cluster.migration.self_s"] = perSpan("cluster.migration", sAll) / float64(time.Second)
	return out
}
