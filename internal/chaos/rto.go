package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"wattdb/internal/cluster"
	"wattdb/internal/sim"
)

// Fuzzy-checkpoint chaos wiring. Every run starts the cluster's background
// checkpointer on every node, so restarts replay only the delta since the
// last complete checkpoint; the plan's -ckpt faults power-fail a node at a
// random step of an in-flight checkpoint, and the restart oracle asserts the
// bounded-replay contract on every recovery.

// noteRecovery folds a completed restart's RecoveryStats into the report and
// checks the bounded-replay oracle: when a complete checkpoint bounded the
// replay, no partition may have applied a record below its recorded redo
// point — restart work is O(delta since checkpoint), not O(retained log).
func (h *harness) noteRecovery(n *cluster.DataNode) {
	lr := n.LastRecovery
	h.rep.ReplayBytes += lr.Bytes
	h.rep.RecoveryTime += lr.Elapsed
	if !lr.Checkpointed {
		return
	}
	h.rep.BoundedRestarts++
	if lr.MinApplied != 0 && lr.MinApplied < lr.Redo {
		h.violate(fmt.Sprintf(
			"recovery bound: node %d replayed LSN %d below its checkpoint redo point %d",
			n.ID, lr.MinApplied, lr.Redo))
	}
}

// ckptCrash builds one mid-checkpoint power failure: the crash is armed to
// fire after a random number of checkpoint protocol steps (flush batches,
// begin append, redo scan, end append, truncation), so over seeds the plan
// covers every phase of the begin/end pair — including the torn-pair window
// between the two records.
func ckptCrash(rng *rand.Rand, at time.Duration, nodes int) faultEvent {
	return faultEvent{
		at:   at,
		kind: faultCkptCrash,
		node: rng.Intn(nodes),
		tear: rng.Intn(8), // protocol steps before the armed crash fires
		dur:  12*time.Second + time.Duration(rng.Int63n(int64(10*time.Second))),
	}
}

// ckptCrashEvents derives the cfg.CkptFaults mid-checkpoint crashes a plan
// carries, landing in the middle half of the window.
func ckptCrashEvents(rng *rand.Rand, window time.Duration, nodes, count int) []faultEvent {
	evs := make([]faultEvent, 0, count)
	for i := 0; i < count; i++ {
		at := window/4 + time.Duration(rng.Int63n(int64(window/2)))
		evs = append(evs, ckptCrash(rng, at, nodes))
	}
	return evs
}

// execCkptCrash power-fails a node mid-checkpoint: it arms the crash
// countdown and drives a checkpoint into it. If the countdown is consumed
// elsewhere (a concurrent daemon checkpoint picks it up) or the checkpoint
// completes before the countdown expires, the event degrades to a plain
// power failure — still a crash, still restarted by this event's pair. A
// node someone else crashed first is left to that fault's restart pair.
func (h *harness) execCkptCrash(ev faultEvent) {
	n := h.c.Nodes[ev.node]
	if n.Down() || n.DiskLost() {
		h.logFault("mid-checkpoint crash on node %d skipped (already down)", ev.node)
		return
	}
	wasLeader := n == h.c.Master.Node
	h.c.ArmCheckpointCrash(n, ev.tear)
	h.logFault("mid-checkpoint crash armed: node %d after %d steps (restart after %v)",
		ev.node, ev.tear, ev.dur)
	node := n
	dur := ev.dur
	h.env.Spawn(fmt.Sprintf("chaos-ckpt-crash-%d", ev.node), func(p *sim.Proc) {
		h.c.CheckpointNode(p, node, 0)
		if node.Down() && h.c.CheckpointCrashArmed(node) {
			// Another fault power-failed the node while our checkpoint was in
			// flight; its crash/restart pair owns the outage.
			h.c.ArmCheckpointCrash(node, -1)
			h.logFault("mid-checkpoint crash on node %d absorbed by a concurrent crash", node.ID)
			return
		}
		if !node.Down() {
			h.c.ArmCheckpointCrash(node, -1)
			h.c.CrashNode(node)
		}
		h.rep.Crashes++
		h.rep.CkptCrashes++
		if h.c.MasterReplicated() && wasLeader {
			h.rep.LeaderCrashes++
		}
		p.Sleep(dur)
		redone, undone, err := h.c.RestartNode(p, node)
		if err != nil {
			h.violate(fmt.Sprintf("restart of node %d after mid-checkpoint crash failed: %v", node.ID, err))
			return
		}
		if _, err := node.Log.Iter().All(); err != nil {
			h.violate(fmt.Sprintf("mid-checkpoint crash on node %d left a corrupt log tail: %v", node.ID, err))
		}
		h.rep.Restarts++
		h.noteRecovery(node)
		h.logFault("node %d restarted after mid-checkpoint crash (replay: %d redone, %d undone, %d bytes from redo %d, %v to ready)",
			node.ID, redone, undone, node.LastRecovery.Bytes, node.LastRecovery.Redo, node.LastRecovery.Elapsed)
		h.wl.afterRestart(p, node)
	})
}
