package cluster

import (
	"fmt"
	"testing"
	"time"

	"wattdb/internal/cc"
	"wattdb/internal/keycodec"
	"wattdb/internal/sim"
	"wattdb/internal/table"
	"wattdb/internal/wal"
)

// newRepCluster is newTestCluster with per-node WAL shipping enabled: every
// node's data frames replicate to its two cyclic followers.
func newRepCluster(t *testing.T, scheme table.Scheme, nodes, n int) *testCluster {
	t.Helper()
	env := sim.NewEnv(1)
	cfg := DefaultConfig()
	cfg.Nodes = nodes
	cfg.DataReplicas = 2
	c := New(env, cfg)
	for _, node := range c.Nodes[1:] {
		node.HW.ForceActive()
	}
	mid := ik(int64(n / 2))
	tm, err := c.Master.CreateTable(kvSchema(), scheme, []RangeSpec{
		{Low: nil, High: mid, Owner: c.Nodes[0]},
		{Low: mid, High: nil, Owner: c.Nodes[1]},
	})
	if err != nil {
		t.Fatal(err)
	}
	env.Spawn("load", func(p *sim.Proc) {
		i := 0
		err := c.Master.BulkLoad(p, "kv", func() ([]byte, []byte, bool) {
			if i >= n {
				return nil, nil, false
			}
			row := table.Row{int64(i), fmt.Sprintf("val-%06d", i)}
			key, _ := kvSchema().Key(row)
			payload, _ := kvSchema().EncodeRow(row)
			i++
			return key, payload, true
		})
		if err != nil {
			t.Error(err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	return &testCluster{env: env, c: c, tm: tm}
}

func (tc *testCluster) put(t *testing.T, p *sim.Proc, home *DataNode, k int64, val string) {
	t.Helper()
	s := tc.c.Master.Begin(p, cc.SnapshotIsolation, home)
	payload, _ := kvSchema().EncodeRow(table.Row{k, val})
	if err := s.Put(p, "kv", ik(k), payload); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(p); err != nil {
		t.Fatal(err)
	}
}

func (tc *testCluster) verifyOracle(t *testing.T, oracle map[int64]string) {
	t.Helper()
	tc.run(t, func(p *sim.Proc) {
		s := tc.c.Master.Begin(p, cc.SnapshotIsolation, tc.c.Nodes[0])
		seen := map[int64]int{}
		err := s.Scan(p, "kv", nil, nil, func(k, v []byte) bool {
			d, _, _ := keycodec.DecodeInt64(k)
			seen[d]++
			row, derr := kvSchema().DecodeRow(v)
			if derr != nil {
				t.Errorf("key %d: undecodable: %v", d, derr)
				return false
			}
			if row[1].(string) != oracle[d] {
				t.Errorf("key %d = %q, want %q", d, row[1], oracle[d])
			}
			return true
		})
		if err != nil {
			t.Fatalf("scan: %v", err)
		}
		if len(seen) != len(oracle) {
			t.Fatalf("scan saw %d distinct keys, want %d", len(seen), len(oracle))
		}
		for k, c := range seen {
			if c != 1 {
				t.Errorf("key %d seen %d times", k, c)
			}
		}
		s.Abort(p) // release the snapshot: ghost-drop waits on the watermark
	})
}

// TestRebuildAfterDiskLoss is the full-disk-loss regression: a node loses
// its log medium AND its recovery bases, so restart has nothing local to
// recover from — every hosted partition must come back from the replica
// set's base images plus shipped log, with every acked commit intact.
func TestRebuildAfterDiskLoss(t *testing.T) {
	const n = 1000
	tc := newRepCluster(t, table.Physiological, 4, n)
	defer tc.env.Close()
	victim := tc.c.Nodes[1]

	oracle := map[int64]string{}
	for i := int64(0); i < n; i++ {
		oracle[i] = fmt.Sprintf("val-%06d", i)
	}
	tc.run(t, func(p *sim.Proc) {
		// Updates on both halves: the victim's partition gets history the
		// bulk-loaded base image does not contain.
		for i := 0; i < 100; i++ {
			k := int64((i*37 + n/2) % n)
			val := fmt.Sprintf("post-%d", i)
			tc.put(t, p, tc.c.Nodes[i%2], k, val)
			oracle[k] = val
		}
	})

	tc.c.DestroyDisk(victim)
	tc.run(t, func(p *sim.Proc) {
		p.Sleep(2 * time.Second)
		if _, _, err := tc.c.RestartNode(p, victim); err != nil {
			t.Fatalf("restart after disk loss: %v", err)
		}
	})

	rebuilds, _, _, diskLosses := tc.c.ReplicationStats()
	if diskLosses != 1 || rebuilds != 1 {
		t.Fatalf("diskLosses=%d rebuilds=%d, want 1/1", diskLosses, rebuilds)
	}
	tc.verifyOracle(t, oracle)

	// The rebuilt node must be writable again — and the new history must
	// itself replicate (a second loss of the same disk is survivable).
	tc.run(t, func(p *sim.Proc) {
		tc.put(t, p, tc.c.Nodes[0], int64(n/2+3), "after-rebuild")
		oracle[int64(n/2+3)] = "after-rebuild"
	})
	tc.c.DestroyDisk(victim)
	tc.run(t, func(p *sim.Proc) {
		p.Sleep(2 * time.Second)
		if _, _, err := tc.c.RestartNode(p, victim); err != nil {
			t.Fatalf("second restart after disk loss: %v", err)
		}
	})
	tc.verifyOracle(t, oracle)
}

// TestFollowerReadStalenessBound pins the safety gates of follower snapshot
// reads: a replica serves a read only when its applied history provably
// covers the snapshot — any commit at or below the snapshot that is not yet
// replica-durable forces the read back to the owner, and either path returns
// the same committed value.
func TestFollowerReadStalenessBound(t *testing.T) {
	const n = 100
	tc := newRepCluster(t, table.Physiological, 4, n)
	defer tc.env.Close()

	tc.run(t, func(p *sim.Proc) {
		tc.put(t, p, tc.c.Nodes[1], 10, "fresh")

		readKey := func() string {
			s := tc.c.Master.Begin(p, cc.SnapshotIsolation, tc.c.Nodes[1])
			v, ok, err := s.Get(p, "kv", ik(10))
			if err != nil || !ok {
				t.Fatalf("get: ok=%v err=%v", ok, err)
			}
			row, _ := kvSchema().DecodeRow(v)
			s.Abort(p)
			return row[1].(string)
		}

		_, _, before, _ := tc.c.ReplicationStats()
		if got := readKey(); got != "fresh" {
			t.Fatalf("read %q, want %q", got, "fresh")
		}
		_, _, after, _ := tc.c.ReplicationStats()
		if after != before+1 {
			t.Fatalf("followerReads %d -> %d: first session read did not hit a replica", before, after)
		}

		// An acked-but-not-yet-replicated commit at the owner makes every
		// snapshot covering it unservable from a follower: the read must
		// fall back to the owner (and still see the committed value).
		tc.c.drep.addInflight(0, cc.TxnID(1<<30), 1)
		if got := readKey(); got != "fresh" {
			t.Fatalf("owner fallback read %q, want %q", got, "fresh")
		}
		_, _, blocked, _ := tc.c.ReplicationStats()
		if blocked != after {
			t.Fatalf("followerReads advanced to %d during an inflight commit below the snapshot", blocked)
		}

		// The commit replicates; followers are safe again.
		tc.c.drep.delInflight(0, cc.TxnID(1<<30))
		if got := readKey(); got != "fresh" {
			t.Fatalf("read %q, want %q", got, "fresh")
		}
		_, _, again, _ := tc.c.ReplicationStats()
		if again != blocked+1 {
			t.Fatalf("followerReads %d -> %d: replica did not resume serving", blocked, again)
		}
	})
}

// TestForcedCommitHealsStaleFollowers pins the forceShip retry loop's heal
// path: a crash schedule can interrupt a restart-epilogue resync (the
// counterpart dies mid-transfer) and leave EVERY follower of an origin live
// but stale once all nodes are finally up — with no restart pending, nothing
// retries the resync. A forced commit on that origin must then heal the
// replica set itself (healStaleFollowers) rather than spin forever waiting
// for a durable follower that can never appear: stale followers are skipped
// by queue delivery, so without the heal the retry loop is a livelock.
func TestForcedCommitHealsStaleFollowers(t *testing.T) {
	const n = 200
	tc := newRepCluster(t, table.Physiological, 4, n)
	defer tc.env.Close()
	origin := tc.c.Nodes[0]

	tc.run(t, func(p *sim.Proc) {
		tc.put(t, p, origin, 1, "before")
	})

	// Reproduce the interrupted-resync end state directly (the schedule that
	// creates it needs a crash landing inside each resync's network transfer;
	// the state is what matters): every follower live but stale, its replica
	// store gone, and no restart left to trigger a resync.
	for _, f := range tc.c.followersOf(origin.ID) {
		origin.ship.stale[f.ID] = true
		f.stores[origin.ID] = newRepStore()
	}

	committed := false
	tc.env.Spawn("commit", func(p *sim.Proc) {
		tc.put(t, p, origin, 2, "after")
		committed = true
	})
	// Bounded run: if the heal path regresses, the commit spins in forceShip
	// forever — fail loudly at the deadline instead of hanging the test.
	if err := tc.env.RunUntil(tc.env.Now() + time.Hour); err != nil {
		t.Fatal(err)
	}
	if !committed {
		t.Fatal("forced commit still spinning after 1h of sim time: stale followers were never healed")
	}

	sh := origin.ship
	for _, f := range tc.c.followersOf(origin.ID) {
		if sh.stale[f.ID] {
			t.Errorf("follower %d still stale after the forced commit", f.ID)
		}
		if sh.durable[f.ID] < sh.lastShippable {
			t.Errorf("follower %d durable=%d < lastShippable=%d", f.ID, sh.durable[f.ID], sh.lastShippable)
		}
		if st := f.stores[origin.ID]; st == nil || len(st.frames) == 0 {
			t.Errorf("follower %d replica store not re-seeded by the heal", f.ID)
		}
	}
}

// TestDiskLossDuringMigration is the migration half of the disk-loss
// regression: the destination of an in-flight range move loses its entire
// disk mid-transfer, restarts, and every key must still be reachable exactly
// once with its last committed value. A second loss AFTER a completed move
// then proves the moved history itself got replicated at the destination —
// the dual pointer must not drop the source until the destination's replica
// set covers the moved frames.
func TestDiskLossDuringMigration(t *testing.T) {
	const n = 2000
	tc := newRepCluster(t, table.Physiological, 4, n)
	defer tc.env.Close()
	dst := tc.c.Nodes[2]
	master := tc.c.Master

	oracle := map[int64]string{}
	for i := int64(0); i < n; i++ {
		oracle[i] = fmt.Sprintf("val-%06d", i)
	}
	tc.run(t, func(p *sim.Proc) {
		for i := 0; i < 120; i++ {
			k := int64(i * 17 % n)
			val := fmt.Sprintf("pre-%d", i)
			tc.put(t, p, tc.c.Nodes[i%2], k, val)
			oracle[k] = val
		}
	})

	migDone := false
	var migErr error
	tc.env.Spawn("migrate", func(p *sim.Proc) {
		migErr = master.MigrateRange(p, "kv", ik(int64(n/4)), ik(int64(3*n/4)), dst)
		migDone = true
	})
	crashedMidFlight := false
	tc.env.Spawn("destroy", func(p *sim.Proc) {
		p.Sleep(2 * time.Millisecond)
		crashedMidFlight = !migDone
		tc.c.DestroyDisk(dst)
		p.Sleep(15 * time.Second)
		if _, _, err := tc.c.RestartNode(p, dst); err != nil {
			t.Errorf("restart: %v", err)
		}
	})
	if err := tc.env.Run(); err != nil {
		t.Fatal(err)
	}
	if !crashedMidFlight {
		t.Fatalf("disk loss landed after the migration completed; widen the window")
	}
	if migErr != nil {
		t.Logf("migration aborted by the disk loss (expected): %v", migErr)
	}
	tc.verifyOracle(t, oracle)

	// Run the move to completion, then destroy the destination again: the
	// moved range now lives ONLY at the destination, so surviving this loss
	// requires its history to be on the destination's replica set.
	tc.run(t, func(p *sim.Proc) {
		if err := master.MigrateRange(p, "kv", ik(int64(n/4)), ik(int64(3*n/4)), dst); err != nil {
			t.Fatalf("second migration: %v", err)
		}
	})
	tc.c.DestroyDisk(dst)
	tc.run(t, func(p *sim.Proc) {
		p.Sleep(2 * time.Second)
		if _, _, err := tc.c.RestartNode(p, dst); err != nil {
			t.Fatalf("restart after post-move disk loss: %v", err)
		}
	})
	tc.verifyOracle(t, oracle)

	// Post-rebuild writes to the moved range land at the destination.
	tc.run(t, func(p *sim.Proc) {
		tc.put(t, p, tc.c.Nodes[0], int64(n/2), "moved-then-rebuilt")
		oracle[int64(n/2)] = "moved-then-rebuilt"
	})
	tc.verifyOracle(t, oracle)
}

// replicaImage is a deep copy of one follower's replica of an origin: the
// retained raw frames and every key's full version chain.
type replicaImage struct {
	frames map[uint64]string
	chains map[string]string
}

func imageOf(st *repStore) replicaImage {
	img := replicaImage{frames: make(map[uint64]string), chains: make(map[string]string)}
	for lsn, fr := range st.frames {
		img.frames[lsn] = string(fr)
	}
	for id, rp := range st.parts {
		for _, ks := range rp.keys {
			var chain []byte
			for _, v := range rp.vers[ks] {
				chain = fmt.Appendf(chain, "%d/%v/%x;", v.TS, v.Deleted, v.Val)
			}
			img.chains[fmt.Sprintf("%d/%x", id, ks)] = string(chain)
		}
	}
	return img
}

func (a replicaImage) diff(b replicaImage) string {
	if len(a.frames) != len(b.frames) || len(a.chains) != len(b.chains) {
		return fmt.Sprintf("%d frames / %d keys became %d / %d", len(a.frames), len(a.chains), len(b.frames), len(b.chains))
	}
	for lsn, fr := range a.frames {
		if b.frames[lsn] != fr {
			return fmt.Sprintf("retained frame %d changed", lsn)
		}
	}
	for k, ch := range a.chains {
		if b.chains[k] != ch {
			return fmt.Sprintf("version chain of %s changed: %s -> %s", k, ch, b.chains[k])
		}
	}
	return ""
}

// TestFollowerCopiesSurviveOriginRot pins the ownership of shipped bytes:
// followers' retained frames and the versions decoded from them (which
// alias those frames) must not share memory with the origin's log. Bit rot
// on the origin's segments and the scrubber's in-place repair of it leave
// every follower's replica, and so every follower read, unchanged.
func TestFollowerCopiesSurviveOriginRot(t *testing.T) {
	const n = 200
	tc := newRepCluster(t, table.Physiological, 4, n)
	defer tc.env.Close()
	origin := tc.c.Nodes[1]
	images := func() map[int]replicaImage {
		out := make(map[int]replicaImage)
		for _, f := range tc.c.followersOf(origin.ID) {
			if st := f.stores[origin.ID]; st != nil {
				out[f.ID] = imageOf(st)
			}
		}
		return out
	}
	compare := func(stage string, before, after map[int]replicaImage) {
		t.Helper()
		if len(before) != len(after) {
			t.Fatalf("%s: %d replicas became %d", stage, len(before), len(after))
		}
		for id, img := range before {
			if d := img.diff(after[id]); d != "" {
				t.Fatalf("%s: follower %d: %s", stage, id, d)
			}
		}
	}
	tc.run(t, func(p *sim.Proc) {
		for i := 0; i < 60; i++ {
			tc.put(t, p, origin, int64(n/2+i%40), fmt.Sprintf("upd-%d", i))
		}
		tc.c.DrainShipQueues(p)
		before := images()
		if len(before) == 0 {
			t.Fatal("origin has no replicas")
		}
		for pick := 0; pick < 64; pick++ {
			origin.Log.FlipFlushedBit(pick*7919, nil)
		}
		rotted := len(origin.Log.CheckFlushed())
		if rotted == 0 {
			t.Fatal("no frame rotted")
		}
		compare("after bit rot", before, images())
		if repaired := tc.c.ScrubPass(p); repaired != rotted {
			t.Fatalf("scrubber repaired %d of %d rotted frames", repaired, rotted)
		}
		if bad := origin.Log.CheckFlushed(); len(bad) != 0 {
			t.Fatalf("frames %v still rotted after the scrub", bad)
		}
		compare("after repair", before, images())
	})
	tc.verifyOracle(t, func() map[int64]string {
		want := make(map[int64]string)
		for i := int64(0); i < n; i++ {
			want[i] = fmt.Sprintf("val-%06d", i)
		}
		for i := 0; i < 60; i++ {
			want[int64(n/2+i%40)] = fmt.Sprintf("upd-%d", i)
		}
		return want
	}())
}

// TestShipDeliveryAllocs pins the cost of one applyToFollower delivery: the
// RecShip wrapper is encoded straight into the follower's segment and the
// replica store decodes its retained frame without copying, so a delivery
// allocates only the store's own bookkeeping (a transaction's staged-write
// list, a newly seen key).
func TestShipDeliveryAllocs(t *testing.T) {
	tc := newRepCluster(t, table.Physiological, 4, 100)
	defer tc.env.Close()
	origin, f := tc.c.Nodes[1], tc.c.Nodes[2]
	const runs = 200
	payload := []byte("payload-of-a-replicated-row")
	sh := origin.ship
	first := len(sh.queue)
	for i := 0; i < runs+2; i++ {
		txn := cc.TxnID(1<<40 + i/2)
		if i%2 == 0 {
			origin.Log.Append(wal.Record{Type: wal.RecUpdate, Txn: txn, Part: 1, Key: ik(int64(i / 2 % 16)),
				After: table.EncodeValue(cc.Version{TS: cc.Timestamp(1<<40 + i), Val: payload})})
		} else {
			origin.Log.Append(wal.Record{Type: wal.RecCommit, Txn: txn})
		}
	}
	items := sh.queue[first:]
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		it := items[next]
		next++
		tc.c.applyToFollower(f, origin, it.lsn, it.frame)
	})
	t.Logf("%.2f objects per delivery", allocs)
	if allocs > 1 {
		t.Fatalf("one delivery allocates %.1f objects, want <= 1", allocs)
	}
}
