package main

import (
	"fmt"
	"time"

	"nextgenmalloc/internal/alloc"
	"nextgenmalloc/internal/sim"
	"nextgenmalloc/internal/slo"
	"nextgenmalloc/internal/workload"
)

// Span kinds recorded by the tracer.
const (
	spanSetup  uint8 = iota // workload.setup (worker 0)
	spanRun                 // workload.run (one per worker)
	spanMalloc              // alloc.malloc
	spanFree                // alloc.free
)

var spanNames = [...]string{"workload.setup", "workload.run", "alloc.malloc", "alloc.free"}

// span is one traced call: which thread made it, the workload span it
// ran under (-1 for none), and its host and simulated start and end.
type span struct {
	kind             uint8
	thread           int32
	parent           int32
	hostStart        int64 // ns since the tracer's epoch
	hostEnd          int64
	simStart, simEnd uint64 // the calling thread's cycle clock
}

// tracer collects spans in memory for one run. Simulated threads are
// coroutines that never run concurrently, so no locking is needed.
type tracer struct {
	epoch time.Time
	spans []span
	// open maps a thread to the index of its open workload span.
	open map[int]int32
	live liveSet
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), open: map[int]int32{}, live: newLiveSet()}
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.epoch)) }

// begin opens a workload span on t and returns its index.
func (tr *tracer) begin(kind uint8, t *sim.Thread) int32 {
	i := int32(len(tr.spans))
	tr.spans = append(tr.spans, span{kind: kind, thread: int32(t.ID()), parent: -1, hostStart: tr.now(), simStart: t.Clock()})
	tr.open[t.ID()] = i
	return i
}

// end closes the workload span i opened on t.
func (tr *tracer) end(i int32, t *sim.Thread) {
	tr.spans[i].hostEnd = tr.now()
	tr.spans[i].simEnd = t.Clock()
	delete(tr.open, t.ID())
}

// parentOf returns t's open workload span (-1 when none).
func (tr *tracer) parentOf(t *sim.Thread) int32 {
	if i, ok := tr.open[t.ID()]; ok {
		return i
	}
	return -1
}

// observedWorkload forwards a workload, timing worker 0's Setup for
// setup_s and, with a tracer, recording workload.setup/run spans. It
// forwards slo.Observable so an SLO-armed run still feeds its tracker.
type observedWorkload struct {
	workload.Workload
	tr *tracer // nil for an untraced run
	// setupDone is when worker 0's Setup returned.
	setupDone time.Time
}

// Setup implements workload.Workload.
func (w *observedWorkload) Setup(t *sim.Thread, a alloc.Allocator) {
	if w.tr != nil {
		i := w.tr.begin(spanSetup, t)
		defer w.tr.end(i, t)
	}
	w.Workload.Setup(t, a)
	w.setupDone = time.Now()
}

// Run implements workload.Workload.
func (w *observedWorkload) Run(t *sim.Thread, part int, a alloc.Allocator) {
	if w.tr != nil {
		i := w.tr.begin(spanRun, t)
		defer w.tr.end(i, t)
	}
	w.Workload.Run(t, part, a)
}

// AttachSLO implements slo.Observable by forwarding to the wrapped
// workload when it is observable.
func (w *observedWorkload) AttachSLO(tr *slo.Tracker) {
	if o, ok := w.Workload.(slo.Observable); ok {
		o.AttachSLO(tr)
	}
}

// tracedAlloc forwards an allocator, recording a span per call and
// checking that no two live blocks overlap. It reads only host state
// and the thread's clock, so the simulated run is unchanged. It forwards
// alloc.Flusher so buffered frees still complete before the harness
// reads its counters.
type tracedAlloc struct {
	inner alloc.Allocator
	tr    *tracer
}

// Name implements alloc.Allocator.
func (a *tracedAlloc) Name() string { return a.inner.Name() }

// Stats implements alloc.Allocator.
func (a *tracedAlloc) Stats() alloc.Stats { return a.inner.Stats() }

// Malloc implements alloc.Allocator.
func (a *tracedAlloc) Malloc(t *sim.Thread, size uint64) uint64 {
	h0, s0 := a.tr.now(), t.Clock()
	p := a.inner.Malloc(t, size)
	h1, s1 := a.tr.now(), t.Clock()
	a.tr.spans = append(a.tr.spans, span{kind: spanMalloc, thread: int32(t.ID()), parent: a.tr.parentOf(t),
		hostStart: h0, hostEnd: h1, simStart: s0, simEnd: s1})
	a.tr.live.add(p, size)
	return p
}

// Free implements alloc.Allocator.
func (a *tracedAlloc) Free(t *sim.Thread, addr uint64) {
	a.tr.live.remove(addr)
	h0, s0 := a.tr.now(), t.Clock()
	a.inner.Free(t, addr)
	h1, s1 := a.tr.now(), t.Clock()
	a.tr.spans = append(a.tr.spans, span{kind: spanFree, thread: int32(t.ID()), parent: a.tr.parentOf(t),
		hostStart: h0, hostEnd: h1, simStart: s0, simEnd: s1})
}

// Flush implements alloc.Flusher.
func (a *tracedAlloc) Flush(t *sim.Thread) {
	if f, ok := a.inner.(alloc.Flusher); ok {
		f.Flush(t)
	}
}

// liveSet tracks the live blocks of a run at 8-byte granularity (every
// block is at least 8-byte aligned, so two valid blocks never share a
// granule) and counts the calls that break the allocator contract.
type liveSet struct {
	blocks map[uint64]uint64     // block address -> requested size
	pages  map[uint64]*[8]uint64 // 4 KiB page -> one bit per granule
	// mallocs and frees count calls; errs counts overlaps, null or
	// misaligned results, and frees of blocks that are not live.
	mallocs, frees, errs uint64
	firstErr             error
}

func newLiveSet() liveSet {
	return liveSet{blocks: map[uint64]uint64{}, pages: map[uint64]*[8]uint64{}}
}

func (l *liveSet) fail(format string, args ...any) {
	l.errs++
	if l.firstErr == nil {
		l.firstErr = fmt.Errorf(format, args...)
	}
}

// granules visits the granule bits of [addr, addr+size) page by page;
// set reports whether any visited bit was already set and sets or
// clears them according to mark.
func (l *liveSet) granules(addr, size uint64, mark bool) (overlap bool) {
	if size == 0 {
		size = 1 // a zero-byte block still owns its address
	}
	for g, end := addr>>3, (addr+size-1)>>3; g <= end; g++ {
		page := g >> 9
		bits := l.pages[page]
		if bits == nil {
			if !mark {
				continue
			}
			bits = new([8]uint64)
			l.pages[page] = bits
		}
		w, b := (g>>6)&7, uint64(1)<<(g&63)
		if bits[w]&b != 0 {
			overlap = true
		}
		if mark {
			bits[w] |= b
		} else {
			bits[w] &^= b
		}
	}
	return overlap
}

func (l *liveSet) add(addr, size uint64) {
	l.mallocs++
	if addr == 0 || addr&7 != 0 {
		l.fail("malloc(%d) returned bad address %#x", size, addr)
		return
	}
	if l.granules(addr, size, true) {
		l.fail("malloc(%d) returned %#x, overlapping a live block", size, addr)
	}
	l.blocks[addr] = size
}

func (l *liveSet) remove(addr uint64) {
	l.frees++
	size, ok := l.blocks[addr]
	if !ok {
		l.fail("free(%#x) of a block that is not live", addr)
		return
	}
	delete(l.blocks, addr)
	l.granules(addr, size, false)
}
