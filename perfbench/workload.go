package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"syscall"
	"time"

	"wattdb/internal/cc"
	"wattdb/internal/chbench"
	"wattdb/internal/cluster"
	"wattdb/internal/exec"
	"wattdb/internal/hw"
	"wattdb/internal/keycodec"
	"wattdb/internal/sim"
	"wattdb/internal/table"
	"wattdb/internal/tpcc"
)

// TPC-C scale and offered load shared by every workload: the Quick preset of
// the figure experiments (4 warehouses of 4 districts, 60 customers per
// district, 200 items, 60 loaded orders per district) with paced closed-loop
// clients that submit one transaction per 100 ms slot (Sect. 5.1).
const (
	warehouses    = 4
	districtsPerW = 4
	customersPerD = 60
	items         = 200
	ordersPerD    = 60
	interval      = 100 * time.Millisecond
)

// Loaded TPC-C values the consistency checks compare increments against.
const (
	loadedWYTD = 300000.0
	loadedDYTD = 30000.0
	loadedNext = ordersPerD + 1
)

// Analytics stream settings of the HTAP figure's stock-value aggregate.
const (
	analyticsCPUPerRow = 20 * time.Microsecond
	analyticsVector    = 128
)

// spec describes one workload: the cluster it builds and the loops it runs.
type spec struct {
	name string
	why  string

	nodes          int
	masterReplicas int
	dataReplicas   int
	frames         int
	clients        int
	migrate        bool // power nodes 2 and 3 at the window start and move 50% of all records
	streams        int  // analytics streams on node 2 with follower reads (0: none)

	// warmup precedes the measured window [warmup, warmup+observe).
	warmup, observe time.Duration
	// subRuns is how many independently seeded clusters one benchmark run
	// simulates; sim metrics are pooled over all of them.
	subRuns int
}

// replicated reports whether the workload runs FigHTAP's replicated
// four-node layout (as opposed to the rebalancing timeline's layout).
func (s spec) replicated() bool { return s.dataReplicas > 0 }

var workloads = []spec{
	{
		name:    "rebalance",
		why:     "Fig. 7 storage-bound rebalance: 96 frames/node, 24 clients, 50% of records move to 2 new nodes; migrate, buffer, data disk and locks work",
		nodes:   6,
		frames:  96,
		clients: 24,
		migrate: true,
		warmup:  5 * time.Second,
		subRuns: 24,
	},
	{
		name:           "oltp-replicated",
		why:            "steady TPC-C, 4 nodes, replicated master and data WAL, data fits the pool; the commit path (WAL force, ship, 2PC decisions) works",
		nodes:          4,
		masterReplicas: 2,
		dataReplicas:   2,
		frames:         768,
		clients:        32,
		warmup:         3 * time.Second,
		observe:        12 * time.Second,
		subRuns:        14,
	},
	{
		name:         "htap-offload",
		why:          "FigHTAP offloaded row: replicated TPC-C plus 2 stock-aggregate streams on a spare node via follower reads; exec and scans work",
		nodes:        4,
		dataReplicas: 2,
		frames:       768,
		clients:      32,
		streams:      2,
		warmup:       3 * time.Second,
		observe:      12 * time.Second,
		subRuns:      12,
	},
}

func lookupSpec(name string) (spec, bool) {
	for _, s := range workloads {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// op is one client transaction as the client saw it: all attempts, retry
// back-offs included.
type op struct {
	typ       tpcc.TxnType
	start     time.Duration
	latency   time.Duration
	committed bool
	attempts  int
	failed    bool           // ended with an error other than a concurrency-control abort
	conflicts int            // attempts aborted by a write-write conflict
	timeouts  int            // attempts aborted by a lock wait timeout
	bd        *sim.Breakdown // last attempt's Fig. 7 decomposition (traced runs)
	migrating bool           // finished while the migration ran
}

// query is one finished analytics query.
type query struct {
	start, latency time.Duration
	counted        bool // finished inside the measured window (FigHTAP's rule)
}

// subRun is the raw outcome of one simulated cluster.
type subRun struct {
	seed      int64
	setup     time.Duration // host CPU: build, deploy, load
	hostRun   time.Duration // host CPU: the measured window
	hostAlloc uint64        // host: bytes allocated in the measured window

	// The measured window is [origin, close). end is the figure experiments'
	// run length: the window's nominal end, where a rebalance window may
	// close earlier or later (when the migration finishes).
	origin, close, end time.Duration

	ops     []op // every finished client transaction, in completion order
	queries []query
	// migration span in sim time; migEnd is zero while unfinished.
	migStart, migEnd time.Duration
	newOrders        int // committed NewOrders over the whole run
	scanRows         int64
	outRows          int64

	// unexpected holds every error other than a concurrency-control abort
	// that a client or analytics stream got back; such requests count as
	// failed operations.
	unexpected    []string
	failedQueries int // analytics queries of the window that failed

	kernel       sim.Stats // at the end of the run (end, or the window's close if later)
	windowEvents uint64
	atStart      counters
	atEnd        counters
	tbl          table.Stats // partition activity in the window
	// Figure-compatible cumulative counters (fidelity tests).
	commitsAll, abortsAll int
	figCommits            int // FigHTAP: committed, started after warmup, before stop
	figLatencies          []time.Duration
	figQueries            int
	followerReadsAll      int
	failovers             int

	trace *tracer
	check error // first failed output check
}

// simulate builds one cluster for sp, runs it to the end of the measured
// window, and then quiesces it and runs the output checks.
func simulate(sp spec, seed int64, tr *tracer) (*subRun, error) {
	r := &subRun{seed: seed, trace: tr}
	t0 := cpuTime()
	env := sim.NewEnv(seed)
	defer env.Close()

	cfg := cluster.DefaultConfig()
	cfg.Nodes = sp.nodes
	cfg.Cal = hw.TestCalibration()
	cfg.Cal.BufferFrames = sp.frames
	cfg.MasterReplicas = sp.masterReplicas
	cfg.DataReplicas = sp.dataReplicas
	c := cluster.New(env, cfg)
	if sp.replicated() {
		for _, n := range c.Nodes[1:] {
			n.HW.ForceActive()
		}
	} else {
		c.Nodes[1].HW.ForceActive()
	}
	tcfg := tpcc.Config{
		Warehouses:           warehouses,
		DistrictsPerW:        districtsPerW,
		CustomersPerDistrict: customersPerD,
		Items:                items,
		InitialOrdersPerDist: ordersPerD,
		Seed:                 seed,
	}
	W := warehouses
	dep, err := tpcc.Deploy(c.Master, tcfg, table.Physiological, []tpcc.WarehouseRange{
		{FromW: 1, ToW: W / 2, Owner: c.Nodes[0]},
		{FromW: W/2 + 1, ToW: W, Owner: c.Nodes[1]},
	}, c.Nodes)
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	var loadErr error
	env.Spawn("load", func(p *sim.Proc) { loadErr = dep.Load(p) })
	if err := env.Run(); err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	if loadErr != nil {
		return nil, fmt.Errorf("load: %w", loadErr)
	}
	c.SetupReplicationDrain()
	r.setup = cpuTime() - t0

	r.origin = sp.warmup
	r.end = sp.warmup + sp.observe
	w := &world{sp: sp, r: r, env: env, c: c, dep: dep, tr: tr}

	// Process spawn order follows the figure experiments (RunTimeline for the
	// unreplicated layout, FigHTAP for the replicated one), so a workload
	// run with a figure's options reproduces that figure's simulation.
	for i := 0; i < sp.clients; i++ {
		w.spawnClient(i)
	}
	if sp.replicated() {
		env.Spawn("shipper", func(p *sim.Proc) {
			for !w.stop {
				p.Sleep(20 * time.Millisecond)
				s := tr.open(p, "cluster.ship_drain", -1, 0)
				c.DrainShipQueues(p)
				tr.close(p, s)
			}
		})
		for _, n := range c.Nodes {
			n.StartVacuum(10 * time.Second)
		}
		for q := 0; q < sp.streams; q++ {
			w.spawnAnalytics(q)
		}
		env.Spawn("stopper", func(p *sim.Proc) {
			p.Sleep(r.end)
			w.stop = true
		})
		c.Meter.Start()
	} else {
		for _, n := range c.Nodes[:4] {
			n.StartVacuum(10 * time.Second)
		}
		c.Meter.Start()
		if sp.migrate {
			w.spawnMigration()
		}
	}

	if err := env.RunUntil(r.origin); err != nil {
		return nil, crashed("warmup", err)
	}
	r.atStart = snapshot(c, nil)
	events0 := env.Stats().Events
	tr.startProfile()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	h0 := cpuTime()
	closeWindow := func() {
		r.hostRun = cpuTime() - h0
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		tr.stopProfile()
		r.hostAlloc = ms1.TotalAlloc - ms0.TotalAlloc
		r.close = env.Now()
		r.windowEvents = env.Stats().Events - events0
		r.atEnd = snapshot(c, &r.atStart)
		// Keep only the table totals: the partition pointers would pin the
		// whole cluster in memory after this function returns.
		r.tbl = tableDelta(r.atStart, r.atEnd)
		r.atStart.parts, r.atEnd.parts = nil, nil
		w.windowClosed = true
	}
	if !sp.migrate {
		if err := env.RunUntil(r.end); err != nil {
			return nil, crashed("measured window", err)
		}
		closeWindow()
	} else {
		// The rebalance window closes on the first whole second after the
		// migration finished, where the power meter has just sampled. The
		// cluster runs on to the window's nominal end regardless, as the
		// rebalancing timeline does.
		for t := r.origin + time.Second; !w.windowClosed || t <= r.end; t += time.Second {
			if err := env.RunUntil(t); err != nil {
				return nil, crashed("measured window", err)
			}
			if w.migErr != nil {
				return nil, crashed("migration", w.migErr)
			}
			if !w.windowClosed && r.migEnd != 0 {
				closeWindow()
			}
			if t-r.origin > 30*time.Minute {
				return nil, errors.New("migration did not finish within 30 simulated minutes")
			}
		}
	}
	r.kernel = env.Stats()
	_, _, r.followerReadsAll, _ = c.ReplicationStats()
	r.failovers = c.Master.Failovers()

	// Quiesce and check the outputs: clients and analytics streams finish
	// their current request, then the checks read the final state through
	// the public session API.
	w.stop = true
	env.Spawn("final-check", func(p *sim.Proc) {
		for w.active > 0 {
			p.Sleep(10 * time.Millisecond)
		}
		r.check = w.checkOutputs(p)
		w.checked = true
		env.Stop()
	})
	if err := env.RunUntil(r.end + 30*time.Minute); err != nil {
		return nil, crashed("quiesce and checks", err)
	}
	if !w.checked {
		r.check = errors.New("cluster did not quiesce within 30 simulated minutes after the window")
	}
	return r, nil
}

// cpuTime returns the CPU time the process has used, all threads, user and
// system. Host metrics use it rather than wall time: on a machine shared with
// other work, wall time mostly measures the neighbours (beside two busy
// processes a cluster took twice the wall time but a quarter more CPU time).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clusterCrash is an engine failure inside a simulation: a process panicked
// or the migration returned an error. The cluster's run cannot continue; the
// benchmark counts it as a failed operation.
type clusterCrash struct {
	phase string
	err   error
}

func (e *clusterCrash) Error() string { return fmt.Sprintf("%s: %v", e.phase, e.err) }
func (e *clusterCrash) Unwrap() error { return e.err }

func crashed(phase string, err error) error { return &clusterCrash{phase, err} }

// world is one simulation's mutable benchmark state.
type world struct {
	sp  spec
	r   *subRun
	env *sim.Env
	c   *cluster.Cluster
	dep *tpcc.Deployment
	tr  *tracer

	stop         bool // set at the window end (FigHTAP's flag) or to quiesce: loops exit
	windowClosed bool // the measured window is over: requests are no longer recorded
	migrating    bool
	migErr       error
	checked      bool
	active       int // client and analytics loops still running
	nextID       int64
}

func (w *world) newID() int64 {
	w.nextID++
	return w.nextID
}

// spawnClient starts one paced closed-loop TPC-C client. Its random draws
// follow tpcc.Client exactly (same stream, same order), so this loop
// and the figure experiments' clients issue identical requests.
func (w *world) spawnClient(id int) {
	rng := rand.New(rand.NewSource(w.dep.Cfg.Seed*7919 + int64(id)))
	w.active++
	w.env.Spawn(fmt.Sprintf("tpcc-client-%d", id), func(p *sim.Proc) {
		defer func() { w.active-- }()
		p.Sleep(time.Duration(rng.Int63n(int64(interval))))
		for !w.stop {
			start := p.Now()
			w.runTxn(p, rng)
			if think := interval - (p.Now() - start); think > 0 {
				p.Sleep(think)
			}
		}
	})
}

// runTxn executes one randomly chosen transaction with up to three retries
// after a write conflict or lock timeout.
func (w *world) runTxn(p *sim.Proc, rng *rand.Rand) {
	const retries = 3
	tr := w.tr
	typ := tpcc.PickTxn(rng)
	wh := 1 + rng.Intn(w.dep.Cfg.Warehouses)
	id := w.newID()
	start := p.Now()
	root := tr.open(p, "tpcc.txn", -1, id)
	home := w.homeNode(wh)
	o := op{typ: typ, start: start}
	for attempt := 0; attempt <= retries && !o.committed; attempt++ {
		o.attempts++
		s := tr.open(p, "cluster.begin", root, id)
		sess := w.c.Master.Begin(p, cc.SnapshotIsolation, home)
		tr.close(p, s)
		if tr.breakdown() {
			o.bd = &sim.Breakdown{}
			p.Breakdown = o.bd
			sess.Txn.Breakdown = o.bd
		}
		s = tr.open(p, txnSpan[typ], root, id)
		err := w.dep.Exec(p, sess, typ, wh, rng)
		tr.close(p, s)
		if err == nil {
			s = tr.open(p, "cluster.commit", root, id)
			err = sess.Commit(p)
			tr.close(p, s)
		}
		if err == nil {
			o.committed = true
			break
		}
		s = tr.open(p, "cluster.abort", root, id)
		sess.Abort(p)
		tr.close(p, s)
		switch {
		case errors.Is(err, cc.ErrWriteConflict), errors.Is(err, cc.ErrLockTimeout):
			if errors.Is(err, cc.ErrWriteConflict) {
				o.conflicts++
			} else {
				o.timeouts++
			}
			s = tr.open(p, "cc.backoff", root, id)
			p.Sleep(time.Duration(1+rng.Intn(5)) * time.Millisecond)
			tr.close(p, s)
			continue
		default:
			o.failed = true
			w.r.unexpected = append(w.r.unexpected, fmt.Sprintf("%v at %v (migrating %v, attempt %d): %v",
				typ, p.Now(), w.migrating, attempt+1, err))
		}
		break
	}
	if tr.breakdown() {
		p.Breakdown = nil
	}
	tr.close(p, root)
	o.latency = p.Now() - start
	w.record(o)
}

var txnSpan = map[tpcc.TxnType]string{
	tpcc.TxnNewOrder:    "tpcc.new_order",
	tpcc.TxnPayment:     "tpcc.payment",
	tpcc.TxnOrderStatus: "tpcc.order_status",
	tpcc.TxnDelivery:    "tpcc.delivery",
	tpcc.TxnStockLevel:  "tpcc.stock_level",
}

// record files a finished client transaction.
func (w *world) record(o op) {
	r := w.r
	if o.committed && o.typ == tpcc.TxnNewOrder {
		r.newOrders++
	}
	if o.start+o.latency <= r.end { // inside the figure experiments' run length
		if o.committed {
			r.commitsAll++
			if o.start >= w.sp.warmup && !w.stop {
				r.figCommits++
				r.figLatencies = append(r.figLatencies, o.latency)
			}
		} else {
			r.abortsAll++
		}
	}
	if w.windowClosed {
		return
	}
	o.migrating = w.migrating
	r.ops = append(r.ops, o)
}

// homeNode resolves the node owning warehouse wh through the master's
// partition table, as tpcc.Client does.
func (w *world) homeNode(wh int) *cluster.DataNode {
	m := w.c.Master
	tm, err := m.Table(tpcc.TWarehouse)
	if err != nil {
		return m.Node
	}
	e, err := tm.Route(keycodec.Int64Key(int64(wh)))
	if err != nil {
		return m.Node
	}
	return e.Owner
}

// spawnMigration starts the Sect. 5.1 rebalance at the window start: power
// nodes 2 and 3, then move the upper half of each initial node's warehouses
// (50% of all records) to them, table by table.
func (w *world) spawnMigration() {
	env, c, tr := w.env, w.c, w.tr
	W := warehouses
	env.Spawn("controller", func(p *sim.Proc) {
		p.Sleep(w.r.origin)
		w.migrating = true
		w.r.migStart = p.Now()
		id := w.newID()
		root := tr.open(p, "cluster.migration", -1, id)

		ready := sim.NewSignal(env)
		pending := 2
		boot := func(n *cluster.DataNode) {
			env.Spawn("boot", func(bp *sim.Proc) {
				s := tr.open(bp, "hw.power_on", root, id)
				n.PowerOn(bp)
				tr.close(bp, s)
				pending--
				if pending == 0 {
					ready.Fire()
				}
			})
		}
		boot(c.Nodes[2])
		boot(c.Nodes[3])
		for pending > 0 {
			ready.Wait(p)
		}
		for _, tbl := range tpcc.PartitionedTables() {
			s := tr.open(p, "cluster.migrate_table", root, id)
			for _, mv := range movedRanges(W) {
				if err := c.Master.MigrateRangeFraction(p, tbl, mv.lo, mv.hi, 0.5, c.Nodes[mv.dst]); err != nil {
					w.migErr = fmt.Errorf("%s: %w", tbl, err)
					return
				}
			}
			tr.close(p, s)
		}
		tr.close(p, root)
		w.r.migEnd = p.Now()
		w.migrating = false
	})
}

// move is one key range the rebalance hands to a new node.
type move struct {
	lo, hi []byte
	dst    int
}

// movedRanges lists the rebalance's moves: warehouses [W/4+1, W/2] to node 2
// and [3W/4+1, W] to node 3.
func movedRanges(W int) []move {
	return []move{
		{keycodec.Int64Key(int64(W/4 + 1)), keycodec.Int64Key(int64(W/2 + 1)), 2},
		{keycodec.Int64Key(int64(3*W/4 + 1)), nil, 3},
	}
}

// spawnAnalytics starts one offloaded analytics stream: the stock-value
// GroupAgg on spare node 2, reading through follower replicas.
func (w *world) spawnAnalytics(q int) {
	c, tr := w.c, w.tr
	home := c.Nodes[2]
	stockSchema := w.dep.Schemas[tpcc.TStock]
	w.active++
	w.env.Spawn(fmt.Sprintf("analytics-%d", q), func(p *sim.Proc) {
		defer func() { w.active-- }()
		for !w.stop {
			id := w.newID()
			start := p.Now()
			root := tr.open(p, "chbench.query", -1, id)
			s := tr.open(p, "cluster.begin", root, id)
			sess := c.Master.Begin(p, cc.SnapshotIsolation, home)
			tr.close(p, s)
			sess.PreferFollower = true
			scan := &countingScan{Operator: &chbench.SessionScan{Sess: sess, Table: tpcc.TStock,
				Schema: stockSchema, Vector: analyticsVector}}
			s = tr.open(p, "exec.query", root, id)
			rows, err := exec.Drain(p, &exec.GroupAgg{Child: scan, Node: home.HW,
				GroupCol: 0, SumCol: 3, CPUPerRow: analyticsCPUPerRow, Vector: analyticsVector})
			tr.close(p, s)
			s = tr.open(p, "cluster.abort", root, id)
			sess.Abort(p)
			tr.close(p, s)
			tr.close(p, root)
			if err != nil {
				w.r.unexpected = append(w.r.unexpected, fmt.Sprintf("analytics at %v: %v", p.Now(), err))
				if !w.windowClosed && start >= w.sp.warmup {
					w.r.failedQueries++
				}
				continue
			}
			counted := !w.stop && p.Now() >= w.sp.warmup
			if counted {
				w.r.figQueries++
			}
			if !w.windowClosed {
				w.r.queries = append(w.r.queries, query{start: start, latency: p.Now() - start, counted: counted})
			}
			if counted {
				w.r.scanRows += int64(scan.rows)
				w.r.outRows += int64(rows)
			}
		}
	})
}

// countingScan counts the rows a scan hands to its consumer.
type countingScan struct {
	exec.Operator
	rows int
}

func (s *countingScan) Next(p *sim.Proc) (*table.Batch, error) {
	b, err := s.Operator.Next(p)
	if b != nil {
		s.rows += b.Len()
	}
	return b, err
}
