package cc

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"wattdb/internal/sim"
)

// refChain is a reference model of one key's MVCC state with the history
// kept newest first: every commit prepends the replaced leaf, and GC applies
// the vacuum rule by walking from the newest version down. The store keeps
// its chains oldest first; the two must agree on every read and every byte
// freed.
type refChain struct {
	history    []Version // newest first
	lastCommit Timestamp
}

// refGC is the vacuum rule over the newest-first chains: keep every version
// down to the newest one at or below the watermark, drop a chain wholly
// superseded by a leaf at or below it, and forget keys with nothing left.
func refGC(ref map[string]*refChain, watermark Timestamp) int64 {
	var freed int64
	for key, e := range ref {
		if len(e.history) > 0 {
			keep := len(e.history)
			for i, v := range e.history {
				if v.TS <= watermark {
					keep = i + 1
					break
				}
			}
			for _, v := range e.history[keep:] {
				freed += v.Bytes()
			}
			e.history = e.history[:keep:keep]
			if e.lastCommit <= watermark {
				for _, v := range e.history {
					freed += v.Bytes()
				}
				e.history = nil
			}
		}
		if len(e.history) == 0 && e.lastCommit <= watermark {
			delete(ref, key)
		}
	}
	return freed
}

// refVisible resolves key at snapshot snap in the reference model.
func refVisible(e *refChain, leaf *Version, snap Timestamp) (Version, bool) {
	if leaf != nil && leaf.TS <= snap {
		return *leaf, true
	}
	if e != nil {
		for _, v := range e.history {
			if v.TS <= snap {
				return v, true
			}
		}
	}
	return Version{}, false
}

func sameVersion(a, b Version) bool {
	return a.TS == b.TS && a.Deleted == b.Deleted && bytes.Equal(a.Val, b.Val)
}

// TestVersionChainMatchesNewestFirstModel drives random commits, deletes and
// vacuums against the store and the newest-first reference model, and
// compares the version every snapshot sees (through the leaf and through the
// history alone), the bytes each GC frees, and the retained totals.
func TestVersionChainMatchesNewestFirstModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			env := sim.NewEnv(1)
			defer env.Close()
			vs := NewVersionStore(env)
			ref := make(map[string]*refChain)
			leaves := make(map[string]*Version)
			keys := []string{"district", "warehouse", "stock", "item"}
			var clock Timestamp = 1
			var refBytes int64
			check := func(step int) {
				for _, key := range keys {
					for snap := Timestamp(0); snap <= clock+1; snap++ {
						reader := &Txn{Begin: snap, State: TxnActive}
						for _, leaf := range []*Version{leaves[key], nil} {
							got, gok := vs.VisibleVersion(reader, key, leaf)
							want, wok := refVisible(ref[key], leaf, snap)
							if gok != wok || (gok && !sameVersion(got, want)) {
								t.Fatalf("step %d key %s snap %d leaf=%v: got %+v/%v, want %+v/%v",
									step, key, snap, leaf != nil, got, gok, want, wok)
							}
						}
					}
				}
				if vs.VersionBytes() != refBytes {
					t.Fatalf("step %d: store retains %d bytes, model %d", step, vs.VersionBytes(), refBytes)
				}
				if vs.Entries() != len(ref) {
					t.Fatalf("step %d: store has %d entries, model %d", step, vs.Entries(), len(ref))
				}
			}
			env.Spawn("driver", func(p *sim.Proc) {
				for step := 0; step < 600; step++ {
					if rng.Intn(6) == 0 {
						wm := Timestamp(rng.Int63n(int64(clock) + 2))
						freed, want := vs.GC(wm), refGC(ref, wm)
						if freed != want {
							t.Fatalf("step %d: GC(%d) freed %d bytes, model %d", step, wm, freed, want)
						}
						refBytes -= want
						check(step)
						continue
					}
					key := keys[rng.Intn(len(keys))]
					leaf := leaves[key]
					var leafTS Timestamp
					if leaf != nil {
						leafTS = leaf.TS
					}
					txn := &Txn{ID: TxnID(step + 1), Begin: clock, State: TxnActive}
					if err := vs.AcquireWriteIntent(p, txn, key, leafTS, time.Second); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					val := bytes.Repeat([]byte{byte(step)}, rng.Intn(24))
					vs.StagePending(txn, key, rng.Intn(5) == 0, val)
					clock++
					newLeaf := vs.CommitKey(txn, key, leaf, clock)
					e := ref[key]
					if e == nil {
						e = &refChain{}
						ref[key] = e
					}
					if leaf != nil {
						e.history = append([]Version{*leaf}, e.history...)
						refBytes += leaf.Bytes()
					}
					e.lastCommit = clock
					leaves[key] = &newLeaf
					if step%7 == 0 {
						check(step)
					}
				}
				check(600)
			})
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestHotKeyCommitAllocs pins the cost of committing a hot key: a commit on
// a key with 256 history versions allocates no more objects, and no more
// than a small constant more bytes, than one on a key with a single version.
// The chain grows by appending, so its cost does not scale with its length
// (prepending would reallocate and copy the whole chain on every commit).
func TestHotKeyCommitAllocs(t *testing.T) {
	type cost struct {
		objects float64
		bytes   float64
	}
	measure := func(history int) cost {
		env := sim.NewEnv(1)
		defer env.Close()
		vs := NewVersionStore(env)
		val := []byte("0123456789abcdef")
		var clock Timestamp = 1
		var leaf *Version
		commit := func(p *sim.Proc) {
			var leafTS Timestamp
			if leaf != nil {
				leafTS = leaf.TS
			}
			txn := &Txn{ID: TxnID(clock), Begin: clock, State: TxnActive}
			if err := vs.AcquireWriteIntent(p, txn, "hot", leafTS, time.Second); err != nil {
				t.Fatal(err)
			}
			vs.StagePending(txn, "hot", false, val)
			clock++
			v := vs.CommitKey(txn, "hot", leaf, clock)
			leaf = &v
		}
		var c cost
		env.Spawn("committer", func(p *sim.Proc) {
			for i := 0; i <= history; i++ {
				commit(p) // the first commit has no leaf to push
			}
			const runs = 200
			c.objects = testing.AllocsPerRun(runs, func() { commit(p) })
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				commit(p)
			}
			runtime.ReadMemStats(&after)
			c.bytes = float64(after.TotalAlloc-before.TotalAlloc) / runs
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return c
	}
	one, hot := measure(1), measure(256)
	t.Logf("per commit: 1 version %.1f objects %.0f B; 256 versions %.1f objects %.0f B",
		one.objects, one.bytes, hot.objects, hot.bytes)
	if hot.objects > one.objects {
		t.Fatalf("commit on a 256-version chain allocates %.1f objects, on a 1-version chain %.1f",
			hot.objects, one.objects)
	}
	if hot.bytes > one.bytes+512 {
		t.Fatalf("commit on a 256-version chain allocates %.0f bytes, on a 1-version chain %.0f",
			hot.bytes, one.bytes)
	}
}
