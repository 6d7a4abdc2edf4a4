package cluster

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"time"

	"wattdb/internal/cc"
	"wattdb/internal/sim"
	"wattdb/internal/table"
	"wattdb/internal/wal"
)

// Coordinator replication. With MasterReplicas > 0 the master stops being a
// stable-metadata fiction: every coordinator mutation — catalog creation,
// partition-table updates (including migration boundary advances), timestamp
// leases, and commit decisions — is encoded as a master-state record,
// appended to the leader's WAL, and synchronously shipped to the follower
// replicas before it takes effect. A leader power failure fences the
// coordinator, a follower replays its shipped log and takes over, and the
// timestamp oracle resumes strictly above the replicated lease ceiling.
//
// Ack rule. Nothing is acknowledged on leader durability alone: a forced
// master record counts as replicated only when at least one follower holds
// it durably. A commit decision that cannot be replicated is retried —
// across the failover if need be — so "ack iff decision durable" survives
// the leader dying between the decision force and the participant acks.
//
// Sequence numbers. Master records carry a monotonically increasing
// sequence in the Part field (replicas replay in sequence order, not local
// LSN order — catch-up snapshots interleave with live ships). Elections
// leave a gap above the highest replayed sequence so a record shipped by
// the dying leader, racing the election onto one follower, sorts strictly
// before everything the new leader writes.

const (
	// electionDelay models failure detection: how long after the leader's
	// power failure a follower takes over.
	electionDelay = 150 * time.Millisecond
	// decisionRetryDelay paces a committing session's replication retries
	// while the coordinator is fenced.
	decisionRetryDelay = 50 * time.Millisecond
	// coordWaitDelay paces restart-time coordinator queries against a
	// fenced master.
	coordWaitDelay = 250 * time.Millisecond
	// failoverGrace is the presumed-abort grace window after an election:
	// in-doubt queries for unknown transactions wait it out, giving
	// in-flight commits time to re-replicate decisions the old leader
	// forced but never shipped. Far larger than a retry round-trip, far
	// smaller than a restart delay.
	failoverGrace = 2 * time.Second
	// reconcileDelay is how long after an election the new leader waits
	// before probing participants of rebuilt decisions.
	reconcileDelay = 500 * time.Millisecond
	// seqEpochGap is the sequence headroom an election leaves for records
	// the dying leader may still land on a follower.
	seqEpochGap = 1024
	// leaseHeadroom triggers a lease extension when fewer timestamps
	// remain; it must cover the handful of raw oracle calls (migration
	// horizons) that bypass the master's lease check.
	leaseHeadroom = 256
	// defaultLeaseChunk is how many timestamps one lease grant covers.
	defaultLeaseChunk = 8192
)

// ErrMasterDown reports that the coordinator is unavailable: the leader
// power-failed and no follower has completed failover yet, or a mutation
// could not be replicated to any follower.
type ErrMasterDown struct{}

func (ErrMasterDown) Error() string {
	return "cluster: coordinator unavailable (awaiting master failover)"
}

// masterRep is the replication state of the coordinator role.
type masterRep struct {
	group []int // replica-set node IDs, ascending; the leader is one of them
	// current marks group members holding every replicated record; only
	// they can receive ships, count toward durability, or win the fast
	// election path. A crashed or ship-failed member drops out until the
	// leader re-ships the full state (catchUp).
	current map[int]bool
	seq     uint64 // last master-state sequence number issued
}

func (r *masterRep) member(id int) bool {
	for _, g := range r.group {
		if g == id {
			return true
		}
	}
	return false
}

// EnableMasterReplication turns the coordinator into a replicated state
// machine with the given number of follower replicas (nodes 1..replicas;
// they are forced active — a replica must keep power). Setup-only: call
// before the simulation starts and before tables are created, so the
// bootstrap records replicate without charging virtual time.
func (c *Cluster) EnableMasterReplication(replicas int) {
	if replicas < 1 {
		replicas = 1
	}
	if replicas > len(c.Nodes)-1 {
		replicas = len(c.Nodes) - 1
	}
	m := c.Master
	r := &masterRep{current: make(map[int]bool)}
	for id := 0; id <= replicas; id++ {
		r.group = append(r.group, id)
		r.current[id] = true
		c.Nodes[id].HW.ForceActive()
	}
	m.rep = r
	if err := m.ensureLease(nil); err != nil {
		panic(fmt.Sprintf("cluster: bootstrap lease replication failed: %v", err))
	}
}

// MasterReplicated reports whether coordinator replication is enabled.
func (c *Cluster) MasterReplicated() bool { return c.Master.rep != nil }

// Fenced reports whether the coordinator is currently unavailable (leader
// down, failover pending).
func (m *Master) Fenced() bool { return m.rep != nil && m.down }

// Failovers returns how many leader elections have completed.
func (m *Master) Failovers() int { return m.failovers }

// LeaderID returns the node currently seated as coordinator.
func (m *Master) LeaderID() int { return m.Node.ID }

// SetLeaseChunk overrides the lease grant size and re-arms the in-memory
// lease to one fresh chunk (tests sweep failovers across lease boundaries
// with small chunks; the bootstrap grant would otherwise defer the first
// boundary by defaultLeaseChunk timestamps). Lowering only the in-memory
// ceiling is safe: the durable bootstrap grant stays higher, so a failover
// resuming at the highest replicated ceiling is still strictly above
// anything this leader could have issued.
func (m *Master) SetLeaseChunk(n int) {
	if n <= 0 {
		return
	}
	m.leaseChunk = n
	if m.rep != nil {
		m.Oracle.RearmLease(m.Oracle.Clock() + 1 + cc.Timestamp(n))
	}
}

// logMaster appends rec to the leader's WAL and ships it to every current
// follower, assigning the next state-machine sequence number. With force,
// each follower's log is flushed and the leader's own log is forced too; the
// record counts as replicated (return true) only if at least one follower
// holds it durably. Without force the append is best-effort: the bytes ride
// along with the follower's next group commit (a prefix-ordered log flush
// covers them), and loss is tolerated because unforced records are
// resurrection-safe (acks re-derive from participant logs, cleanup snapshots
// merely retire read-safe dual pointers).
//
// p == nil is the setup path (cluster construction, table creation): no
// simulation process exists yet, so transfers charge nothing and forces use
// SetupFlush. A leader epoch change while a blocking call was in flight
// aborts the ship — the caller is working for a coordinator seat that has
// been re-elected.
func (m *Master) logMaster(p *sim.Proc, rec wal.Record, force bool) bool {
	r := m.rep
	epoch := m.epoch
	r.seq++
	rec.Part = r.seq
	leader := m.Node
	lsn := leader.Log.Append(rec)
	durable := 0
	for _, id := range r.group {
		n := m.cluster.Nodes[id]
		if n == leader || n.Down() || !r.current[id] {
			continue
		}
		if p != nil {
			m.cluster.Net.Transfer(p, leader.ID, n.ID, rec.FrameSize())
			if m.epoch != epoch {
				return false
			}
			if n.Down() {
				continue
			}
		}
		flsn := n.Log.Append(rec)
		if !force {
			durable++
			continue
		}
		if p != nil {
			n.Log.Flush(p, flsn)
			if m.epoch != epoch {
				return false
			}
		} else {
			n.Log.SetupFlush()
		}
		if !n.Down() && n.Log.FlushedLSN() >= flsn {
			durable++
		} else {
			r.current[id] = false
		}
	}
	if force {
		if p != nil {
			leader.Log.Flush(p, lsn)
			if m.epoch != epoch {
				return false
			}
		} else {
			leader.Log.SetupFlush()
		}
	}
	return durable >= 1
}

// ensureLease keeps the oracle's replicated lease ahead of consumption:
// when fewer than leaseHeadroom timestamps remain, a new ceiling is forced
// to the followers before the in-memory lease extends. The headroom absorbs
// the few raw oracle calls (migration snapshot horizons) that cannot reach
// this check.
func (m *Master) ensureLease(p *sim.Proc) error {
	if m.rep == nil {
		return nil
	}
	o := m.Oracle
	// An unleased oracle (Leased() == 0) reports unbounded headroom; it
	// still needs its first grant, or the ceiling never exists and failover
	// has no replicated bound to resume above.
	if o.Leased() != 0 && o.Remaining() > leaseHeadroom {
		return nil
	}
	ceil := o.Leased()
	if c := o.Clock() + 1; c > ceil {
		ceil = c
	}
	ceil += cc.Timestamp(m.leaseChunk)
	if !m.logMaster(p, wal.Record{Type: wal.RecMLease, TS: ceil}, true) {
		return ErrMasterDown{}
	}
	o.ExtendLease(ceil)
	return nil
}

// commitGate is checked before a commit timestamp is issued: the coordinator
// must be seated and hold lease headroom. Failing here is safe — nothing of
// the transaction is visible yet, so the caller aborts cleanly.
func (m *Master) commitGate(p *sim.Proc) error {
	if m.rep == nil {
		return nil
	}
	if m.down || m.Node.Down() {
		return ErrMasterDown{}
	}
	return m.ensureLease(p)
}

// coordCheck guards long-running coordinator work (migrations): it fails
// when the master is fenced or when a failover re-seated the coordinator
// since the caller captured epoch — the caller's entry pointers are stale.
func (m *Master) coordCheck(epoch uint64) error {
	if m.rep == nil {
		return nil
	}
	if m.down {
		return ErrMasterDown{}
	}
	if m.epoch != epoch {
		return fmt.Errorf("cluster: coordinator failover fenced this operation")
	}
	return nil
}

// tableRecord builds the replicated snapshot record of one table's current
// coordinator state (catalog entry + full partition table).
func (m *Master) tableRecord(name string) wal.Record {
	tm := m.tables[name]
	st := &wal.MasterTable{Name: name, Scheme: byte(tm.Scheme),
		Replicated: tm.replicas != nil, NextPartID: uint64(m.nextPartID)}
	if tm.replicas != nil {
		nodes := make([]*DataNode, 0, len(tm.replicas))
		for n := range tm.replicas {
			nodes = append(nodes, n)
		}
		sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
		for _, n := range nodes {
			st.Entries = append(st.Entries, wal.MasterEntry{
				PartID: uint64(tm.replicas[n].ID), OwnerID: uint32(n.ID)})
		}
	} else {
		for _, e := range tm.entries {
			me := wal.MasterEntry{PartID: uint64(e.Part.ID), OwnerID: uint32(e.Owner.ID),
				Low: e.Low, High: e.High, MovedBelow: e.MovedBelow}
			if e.OldPart != nil {
				me.HasOld = true
				me.OldPartID = uint64(e.OldPart.ID)
				me.OldOwnerID = uint32(e.OldOwner.ID)
			}
			st.Entries = append(st.Entries, me)
		}
	}
	return wal.Record{Type: wal.RecMState, After: wal.EncodeMasterTable(nil, st)}
}

// shipTable replicates a table's current snapshot. No-op without
// replication; returns false when a forced ship reached no follower.
func (m *Master) shipTable(p *sim.Proc, name string, force bool) bool {
	if m.rep == nil {
		return true
	}
	return m.logMaster(p, m.tableRecord(name), force)
}

// clearOldPointer retires the old-location pointer of the current entry
// covering exactly [low, high). The asynchronous cleanup processes capture
// entry objects when scheduled, but a failover in between replaces the whole
// partition table — the retirement must land on whatever entry routing uses
// now, or the rebuilt old pointer would outlive the vacuumed source.
func (m *Master) clearOldPointer(name string, low, high []byte) {
	tm, ok := m.tables[name]
	if !ok {
		return
	}
	for _, e := range tm.entries {
		if bytes.Equal(e.Low, low) && bytes.Equal(e.High, high) {
			e.OldPart = nil
			e.OldOwner = nil
		}
	}
}

// findPart resolves a partition ID on this node: the live registry first,
// then the crash registry (a rebuilt master entry may point at a dead
// partition object — exactly what rebind re-points on restart).
func (n *DataNode) findPart(id table.PartID) *table.Partition {
	if pt, ok := n.Parts[id]; ok {
		return pt
	}
	for _, pt := range n.lostParts {
		if pt.ID == id {
			return pt
		}
	}
	return nil
}

// applyTableState installs a replayed table snapshot into the catalog,
// resolving partition IDs against the nodes' registries.
func (m *Master) applyTableState(st *wal.MasterTable) {
	schema, ok := m.schemas[st.Name]
	if !ok {
		return // table unknown to this process image (never created here)
	}
	tm := &TableMeta{Schema: schema, Scheme: table.Scheme(st.Scheme)}
	if st.Replicated {
		tm.replicas = make(map[*DataNode]*table.Partition)
		for i := range st.Entries {
			e := &st.Entries[i]
			n := m.cluster.Nodes[e.OwnerID]
			if pt := n.findPart(table.PartID(e.PartID)); pt != nil {
				tm.replicas[n] = pt
			}
		}
	} else {
		for i := range st.Entries {
			se := &st.Entries[i]
			owner := m.cluster.Nodes[se.OwnerID]
			re := &RangeEntry{Low: se.Low, High: se.High,
				Part: owner.findPart(table.PartID(se.PartID)), Owner: owner,
				MovedBelow: se.MovedBelow}
			if re.Part == nil {
				panic(fmt.Sprintf("cluster: replicated entry of %s names partition %d absent from node %d",
					st.Name, se.PartID, se.OwnerID))
			}
			if se.HasOld {
				oldOwner := m.cluster.Nodes[se.OldOwnerID]
				if pt := oldOwner.findPart(table.PartID(se.OldPartID)); pt != nil {
					re.OldPart = pt
					re.OldOwner = oldOwner
				}
			}
			tm.entries = append(tm.entries, re)
		}
	}
	m.tables[st.Name] = tm
	if table.PartID(st.NextPartID) > m.nextPartID {
		m.nextPartID = table.PartID(st.NextPartID)
	}
}

// leaderDown fences the coordinator the instant its node power-fails and
// schedules the election. Non-blocking (doCrash must not block). The epoch
// bump immediately invalidates in-flight ships and migrations working for
// the dead seat.
func (m *Master) leaderDown() {
	if m.down {
		return
	}
	m.down = true
	m.epoch++
	m.cluster.Env.Spawn("master-election", func(p *sim.Proc) {
		p.Sleep(electionDelay)
		if m.down {
			m.tryElect(nil)
		}
	})
}

// tryElect seats a new leader if a safe candidate exists. reviving, when
// non-nil, is a group member currently inside RestartNode (its crashed flag
// still set, its durable log already recovered) — it counts as live.
// Preference order: the lowest-ID live current follower (guaranteed to hold
// every replicated record, appended synchronously and — for forced records
// — flushed). With no current follower alive, a strict majority of the
// replica group may elect the live member with the highest durable
// sequence: every acknowledged record is durable on at least one follower,
// members only rejoin through full-state catch-up, so durable sequence
// order implies state completeness. Without a majority the coordinator
// stays fenced. Non-blocking; charges nothing (like restart-time log
// analysis).
func (m *Master) tryElect(reviving *DataNode) {
	r := m.rep
	if r == nil || !m.down {
		return
	}
	alive := func(n *DataNode) bool { return n == reviving || !n.Down() }
	for _, id := range r.group {
		if n := m.cluster.Nodes[id]; r.current[id] && alive(n) {
			m.electFrom(n)
			return
		}
	}
	var live []*DataNode
	for _, id := range r.group {
		if n := m.cluster.Nodes[id]; alive(n) {
			live = append(live, n)
		}
	}
	if len(live)*2 <= len(r.group) {
		return // no majority: stay fenced until more replicas restart
	}
	// A crashed candidate has been through Log.Restart, so its whole log is
	// exactly its durable records.
	best, bestSeq := live[0], masterSeq(live[0], math.MaxUint64)
	for _, n := range live[1:] {
		if s := masterSeq(n, math.MaxUint64); s > bestSeq {
			best, bestSeq = n, s
		}
	}
	m.electFrom(best)
}

// masterSeq returns the highest master-state sequence among n's records at
// or below LSN limit. The scan is per-frame, so a rotted acked data frame
// the scrubber has not reached yet — or, on a crashed member's disk, a torn
// tail its own restart has not truncated — cannot hide the master records
// behind it.
func masterSeq(n *DataNode, limit uint64) uint64 {
	var max uint64
	n.Log.VisitFrames(func(rec *wal.Record, frame []byte) bool {
		if rec.LSN > limit {
			return false
		}
		if wal.MasterRecord(rec) && rec.Part > max {
			max = rec.Part
		}
		return true
	})
	return max
}

// electFrom rebuilds the coordinator state machine from candidate's log and
// seats it as leader, in place: the Master object and its Oracle pointer
// stay stable (sessions, node dependencies, and harnesses hold them). The
// catalog and partition tables are replayed from the replicated snapshots
// in sequence order, the decision map from decision/ack records, and the
// oracle resumes at the replicated lease ceiling — strictly above anything
// the old leader issued. Non-blocking: routing flips in one instant.
func (m *Master) electFrom(candidate *DataNode) {
	r := m.rep
	var recs []wal.Record
	// Per-frame scan: a live candidate may carry a bit-rotted acked data
	// frame the scrubber has not repaired yet; the master records past it
	// must still be replayed.
	candidate.Log.VisitFrames(func(rec *wal.Record, frame []byte) bool {
		if wal.MasterRecord(rec) {
			recs = append(recs, *rec)
		}
		return true
	})
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Part < recs[j].Part })
	m.tables = make(map[string]*TableMeta)
	// The decision map is NOT reset: every in-memory ack corresponds to a
	// participant branch durably closed (commit record or roll-forward
	// flushed), so existing entries are strictly fresher than the log's, and
	// entries the dead leader installed but never replicated must survive —
	// their commit sessions are still blocked in the replication retry loop
	// and restarting participants must be told to roll forward, not to
	// presume abort. Replay below only adds decisions this Master never saw.
	var lease cc.Timestamp
	var maxSeq uint64
	for i := range recs {
		rec := &recs[i]
		if rec.Part > maxSeq {
			maxSeq = rec.Part
		}
		switch rec.Type {
		case wal.RecMState:
			if st, err := wal.DecodeMasterTable(rec.After); err == nil {
				m.applyTableState(st)
			}
		case wal.RecMLease:
			if rec.TS > lease {
				lease = rec.TS
			}
		case wal.RecDecision:
			if _, known := m.decisions[rec.Txn]; known {
				// Keep the live object: blocked commit sessions and past acks
				// reference it, and its outstanding set already reflects
				// branch closures the log has not recorded.
				continue
			}
			nodes, err := wal.DecodeMasterParticipants(rec.After)
			if err != nil {
				continue
			}
			out := make(map[int]bool, len(nodes))
			for _, id := range nodes {
				out[id] = true
			}
			m.decisions[rec.Txn] = &txnDecision{ts: rec.TS, outstanding: out}
		case wal.RecMAck:
			if node, err := wal.DecodeMasterAck(rec.After); err == nil {
				m.ackDecision(rec.Txn, node)
			}
		}
	}
	r.seq = maxSeq + seqEpochGap
	// Live current followers hold everything the candidate holds (ships
	// append to all of them synchronously); down members must catch up.
	cur := map[int]bool{candidate.ID: true}
	for _, id := range r.group {
		if r.current[id] && !m.cluster.Nodes[id].Down() {
			cur[id] = true
		}
	}
	r.current = cur
	m.Node = candidate
	m.Oracle.Failover(lease)
	m.down = false
	m.epoch++
	m.failovers++
	m.graceUntil = m.cluster.Env.Now() + failoverGrace
	m.reconcile()
}

// awaitAvailable blocks restart-time coordinator queries until the master
// is seated and the post-election presumed-abort grace has passed — a
// participant must not be told "no decision" while an in-flight commit is
// still re-replicating a verdict the dead leader forced but never shipped.
func (m *Master) awaitAvailable(p *sim.Proc) {
	if m.rep == nil {
		return
	}
	for {
		if m.down {
			p.Sleep(coordWaitDelay)
			continue
		}
		if now := m.cluster.Env.Now(); now < m.graceUntil {
			p.Sleep(m.graceUntil - now)
			continue
		}
		return
	}
}

// reconcile probes, shortly after an election, the live participants of
// every rebuilt decision: a branch whose durable log already shows a commit
// or abort record (or no prepare at all) is acked, draining entries whose
// original acks were in flight — or unforced and lost — when the old leader
// died. Participants still down resolve at their own restart. Deterministic
// order throughout (sorted transactions, sorted nodes).
func (m *Master) reconcile() {
	epoch := m.epoch
	m.cluster.Env.Spawn("master-reconcile", func(p *sim.Proc) {
		p.Sleep(reconcileDelay)
		if m.rep == nil || m.down || m.epoch != epoch {
			return
		}
		ids := make([]cc.TxnID, 0, len(m.decisions))
		for id := range m.decisions {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			d, ok := m.decisions[id]
			if !ok {
				continue
			}
			nodes := make([]int, 0, len(d.outstanding))
			for nid := range d.outstanding {
				nodes = append(nodes, nid)
			}
			sort.Ints(nodes)
			for _, nid := range nodes {
				n := m.cluster.Nodes[nid]
				if n.Down() {
					continue // its own restart resolves the branch
				}
				if n != m.Node {
					m.cluster.Net.Transfer(p, m.Node.ID, n.ID, 32)
					m.cluster.Net.Transfer(p, n.ID, m.Node.ID, 32)
				}
				if m.epoch != epoch {
					return
				}
				recs, err := n.Log.Iter().All()
				if err == nil && branchResolvedIn(recs, id) {
					m.ackDecision(id, nid)
				}
			}
		}
	})
}

// branchResolvedIn reports whether a participant's durable log shows txn's
// branch decided (commit or abort record), or never prepared at all —
// either way the coordinator need not remember the verdict for that node.
func branchResolvedIn(recs []wal.Record, txn cc.TxnID) bool {
	prepared, decided := false, false
	for i := range recs {
		if recs[i].Txn != txn {
			continue
		}
		switch recs[i].Type {
		case wal.RecPrepare:
			prepared = true
		case wal.RecCommit, wal.RecAbort:
			decided = true
		}
	}
	return decided || !prepared
}

// outstandingDecisionsFor lists the decided transactions still awaiting an
// ack from node, ascending.
func (m *Master) outstandingDecisionsFor(node int) []cc.TxnID {
	var out []cc.TxnID
	for id, d := range m.decisions {
		if d.outstanding[node] {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// catchUp re-ships the full coordinator state to a stale follower: fresh
// snapshot records under new sequence numbers, appended to the leader's log
// too (a future election must see them on whichever replica serves it).
// The follower is marked current the instant the appends land — log flushes
// are prefix-ordered, so any later forced record makes this prefix durable
// before it can count as replicated.
func (m *Master) catchUp(p *sim.Proc, n *DataNode) {
	r := m.rep
	if r == nil || n == m.Node {
		return
	}
	epoch := m.epoch
	names := make([]string, 0, len(m.tables))
	for name := range m.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	recs := make([]wal.Record, 0, len(names)+len(m.decisions)+1)
	for _, name := range names {
		recs = append(recs, m.tableRecord(name))
	}
	ids := make([]cc.TxnID, 0, len(m.decisions))
	for id := range m.decisions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		d := m.decisions[id]
		nodes := make([]int, 0, len(d.outstanding))
		for nid := range d.outstanding {
			nodes = append(nodes, nid)
		}
		sort.Ints(nodes)
		recs = append(recs, wal.Record{Txn: id, Type: wal.RecDecision, TS: d.ts,
			After: wal.EncodeMasterParticipants(nil, nodes)})
	}
	recs = append(recs, wal.Record{Type: wal.RecMLease, TS: m.Oracle.Leased()})
	leader := m.Node
	var leaderLSN, followerLSN uint64
	var bytes int64
	for i := range recs {
		r.seq++
		recs[i].Part = r.seq
		leaderLSN = leader.Log.Append(recs[i])
		followerLSN = n.Log.Append(recs[i])
		bytes += recs[i].FrameSize()
	}
	r.current[n.ID] = true
	m.cluster.Net.Transfer(p, leader.ID, n.ID, bytes)
	if m.epoch != epoch || n.Down() {
		return
	}
	n.Log.Flush(p, followerLSN)
	if m.epoch != epoch || leader.Down() {
		return
	}
	leader.Log.Flush(p, leaderLSN)
}
