package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"wattdb/internal/sim"
)

// span is one call perfbench made into a layer, timed in sim time. Spans of
// one transaction, migration or query share an id; parent indexes the
// enclosing span (-1 for a root).
type span struct {
	name       string
	start, end time.Duration
	parent     int32
	id         int64
}

// tracer records spans for one simulated cluster. A nil *tracer is the
// untraced mode: every method is a no-op that allocates nothing, and the
// simulation runs exactly as it does traced (spans only read the clock).
type tracer struct {
	spans []span
	host  *hostProfile // shared by every sub-run of a benchmark run
}

func (t *tracer) open(p *sim.Proc, name string, parent int32, id int64) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: p.Now(), end: -1, parent: parent, id: id})
	return int32(len(t.spans) - 1)
}

func (t *tracer) close(p *sim.Proc, i int32) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].end = p.Now()
}

// breakdown reports whether transactions carry a Fig. 7 time decomposition.
func (t *tracer) breakdown() bool { return t != nil }

func (t *tracer) startProfile() {
	if t != nil {
		t.host.start()
	}
}

func (t *tracer) stopProfile() {
	if t != nil {
		t.host.stop()
	}
}

// spanStats aggregates closed spans that lie in [from, to).
type spanStats struct {
	dur  map[string][]time.Duration
	self map[string]time.Duration // span time not covered by its children
}

func (t *tracer) aggregate(from, to time.Duration, into *spanStats) {
	if into.dur == nil {
		into.dur = map[string][]time.Duration{}
		into.self = map[string]time.Duration{}
	}
	// Children may overlap (the two boots of a migration run in parallel),
	// so a span's covered time is the union of its children's intervals.
	children := map[int32][]span{}
	for _, s := range t.spans {
		if s.parent >= 0 && s.end >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	covered := make([]time.Duration, len(t.spans))
	for parent, kids := range children {
		sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
		var reach time.Duration = -1
		for _, k := range kids {
			lo := k.start
			if lo < reach {
				lo = reach
			}
			if k.end > lo {
				covered[parent] += k.end - lo
			}
			if k.end > reach {
				reach = k.end
			}
		}
	}
	for i, s := range t.spans {
		if s.end < 0 || s.start < from || s.end > to {
			continue
		}
		d := s.end - s.start
		into.dur[s.name] = append(into.dur[s.name], d)
		into.self[s.name] += d - covered[i]
	}
}

// writeSpans writes the spans as tab-separated rows: index, parent, id,
// name, start and end in sim nanoseconds.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "span\tparent\tid\tname\tstart_ns\tend_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", i, s.parent, s.id, s.name, int64(s.start), int64(s.end))
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// hostProfile attributes the simulator's host CPU time and allocations to
// the repository's modules with the standard library's profilers, taken
// over the measured windows only.
type hostProfile struct {
	cpuBuf   bytes.Buffer
	cpuNanos map[string]int64 // self CPU ns by module
	alloc    map[string]int64 // sampled allocated bytes by module
	memStart map[[32]uintptr]int64
	err      error
}

// allocProfileRate samples one allocation per this many bytes in traced
// runs (the default 512 KiB gives too few samples per window).
const allocProfileRate = 16 << 10

func newHostProfile() *hostProfile {
	return &hostProfile{cpuNanos: map[string]int64{}, alloc: map[string]int64{}}
}

func (h *hostProfile) start() {
	h.memStart = memProfile()
	h.cpuBuf.Reset()
	if err := pprof.StartCPUProfile(&h.cpuBuf); err != nil && h.err == nil {
		h.err = err
	}
}

func (h *hostProfile) stop() {
	pprof.StopCPUProfile()
	if h.err != nil {
		return
	}
	samples, err := parseCPUProfile(h.cpuBuf.Bytes())
	if err != nil {
		h.err = err
		return
	}
	for _, s := range samples {
		h.cpuNanos[cpuModule(s.frames)] += s.nanos
	}
	for stk, bytes := range memProfile() {
		if d := bytes - h.memStart[stk]; d > 0 {
			h.alloc[allocModule(stk)] += d
		}
	}
}

// memProfile returns allocated bytes per stack, as of a fresh collection.
func memProfile() map[[32]uintptr]int64 {
	runtime.GC()
	runtime.GC() // the profile publishes the cycle before the last
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, ok := runtime.MemProfile(recs, true)
	if !ok {
		return nil
	}
	out := make(map[[32]uintptr]int64, n)
	for _, r := range recs[:n] {
		out[r.Stack0] += r.AllocBytes
	}
	return out
}

// modules are the layers host cost is attributed to: the engine's internal
// packages, the benchmark itself, the Go runtime (scheduler, GC,
// allocator) and everything else.
var modules = []string{"sim", "hw", "buffer", "btree", "table", "cc", "wal",
	"cluster", "tpcc", "exec", "chbench", "storage", "perfbench", "runtime", "other"}

// moduleOf maps a function name to its module, or "" for a standard-library
// package other than the runtime.
func moduleOf(fn string) string {
	const internal = "wattdb/internal/"
	switch {
	case strings.HasPrefix(fn, internal):
		rest := fn[len(internal):]
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		for _, m := range modules {
			if m == rest {
				return m
			}
		}
		return "other"
	case strings.HasPrefix(fn, "main."):
		return "perfbench"
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/"):
		return "runtime"
	}
	return ""
}

// cpuModule charges a CPU sample to its leaf frame's module. A leaf in a
// standard-library helper (sort, bytes, math/rand...) is charged to the
// innermost repository frame that called it.
func cpuModule(frames []string) string {
	for _, fn := range frames {
		if m := moduleOf(fn); m != "" {
			return m
		}
	}
	return "other"
}

// allocModule charges an allocation to the innermost repository frame.
func allocModule(stk [32]uintptr) string {
	var pcs []uintptr
	for _, pc := range stk {
		if pc == 0 {
			break
		}
		pcs = append(pcs, pc)
	}
	frames := runtime.CallersFrames(pcs)
	for {
		f, more := frames.Next()
		if m := moduleOf(f.Function); m != "" && m != "runtime" {
			return m
		}
		if !more {
			return "other"
		}
	}
}

// shares converts per-module amounts into fractions of their total.
func shares(by map[string]int64) map[string]float64 {
	var total int64
	for _, v := range by {
		total += v
	}
	out := map[string]float64{}
	for _, m := range modules {
		if total > 0 {
			out[m] = float64(by[m]) / float64(total)
		}
	}
	return out
}
