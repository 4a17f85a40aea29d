package main

import (
	"strings"
	"testing"

	"nextgenmalloc/internal/alloc"
	"nextgenmalloc/internal/core"
	"nextgenmalloc/internal/harness"
	"nextgenmalloc/internal/sim"
	"nextgenmalloc/internal/slo"
	"nextgenmalloc/internal/workload"
)

// fakeAlloc is a bump allocator that counts Flush calls.
type fakeAlloc struct {
	next    uint64
	flushes int
}

func (f *fakeAlloc) Name() string { return "fake" }
func (f *fakeAlloc) Malloc(_ *sim.Thread, size uint64) uint64 {
	f.next += (size + 15) &^ 15
	return f.next
}
func (f *fakeAlloc) Free(*sim.Thread, uint64) {}
func (f *fakeAlloc) Stats() alloc.Stats       { return alloc.Stats{} }
func (f *fakeAlloc) Flush(*sim.Thread)        { f.flushes++ }

func TestTracedAllocForwardsFlush(t *testing.T) {
	inner := &fakeAlloc{}
	var a alloc.Allocator = &tracedAlloc{inner: inner, tr: newTracer()}
	f, ok := a.(alloc.Flusher)
	if !ok {
		t.Fatal("tracedAlloc does not implement alloc.Flusher")
	}
	f.Flush(nil)
	if inner.flushes != 1 {
		t.Fatalf("inner Flush called %d times, want 1", inner.flushes)
	}
}

// fakeObservable records the tracker it was handed.
type fakeObservable struct {
	workload.Workload
	got *slo.Tracker
}

func (f *fakeObservable) AttachSLO(tr *slo.Tracker) { f.got = tr }

func TestObservedWorkloadForwardsSLO(t *testing.T) {
	inner := &fakeObservable{}
	var w workload.Workload = &observedWorkload{Workload: inner}
	o, ok := w.(slo.Observable)
	if !ok {
		t.Fatal("observedWorkload does not implement slo.Observable")
	}
	tr := slo.NewTracker(slo.DefaultOptions())
	o.AttachSLO(tr)
	if inner.got != tr {
		t.Fatal("AttachSLO was not forwarded")
	}
	// A workload without SLO support just ignores the tracker.
	(&observedWorkload{Workload: workload.DefaultXalanc(100)}).AttachSLO(tr)
}

// smallCells are quick versions of the benchmark's cell shapes: an
// asynchronous-free NextGen xalanc (Flush matters) and an SLO-armed
// service on two shards.
func smallCells() []cell {
	return []cell{
		{name: "xalanc", offload: true, options: func() harness.Options {
			w := workload.DefaultXalanc(2000)
			w.NodeSlots = 1000
			return harness.Options{Allocator: "nextgen", Workload: w}
		}},
		{name: "service", offload: true, options: func() harness.Options {
			o := slo.DefaultOptions()
			return harness.Options{
				Allocator: "nextgen",
				Workload: &workload.Service{NWorkers: 2, RequestsPerWorker: 40, Tenants: 3,
					ChurnEvery: 2, MeanGapCycles: 20000, BurstLen: 2, Seed: 5},
				Servers: 2, Sched: core.RoundRobin, SLO: &o,
			}
		}},
	}
}

func TestObserversAddNoSimulatedTraffic(t *testing.T) {
	cells := smallCells()
	plain := runRep(cells, false)
	traced := runRep(cells, true)
	var gate checker
	gate.checkUntraced(cells, plain, nil)
	gate.checkTraced(cells, traced, plain)
	if gate.failed != 0 {
		t.Fatalf("gate failed: %v", gate.failures)
	}
	for i, cr := range traced.cells {
		if cr.res.Total != plain.cells[i].res.Total {
			t.Errorf("%s: traced worker counters differ", cells[i].name)
		}
		if len(runSpans(cr.tr)) == 0 {
			t.Errorf("%s: no allocator spans inside workload.run", cells[i].name)
		}
		if plain.cells[i].setup <= 0 {
			t.Errorf("%s: setup time not measured", cells[i].name)
		}
	}
	for _, r := range []rep{plain, traced} {
		if s := r.cells[1].res.SLO; s == nil || s.Completed() == 0 {
			t.Fatal("service run fed no requests to its SLO tracker")
		}
	}
	if got, want := traced.cells[1].res.SLO.Completed(), plain.cells[1].res.SLO.Completed(); got != want {
		t.Errorf("traced run completed %d requests, untraced %d", got, want)
	}
}

func TestLiveSet(t *testing.T) {
	l := newLiveSet()
	l.add(0x1000, 12) // granules 0x1000 and 0x1008
	l.add(0x1010, 16) // adjacent: no overlap
	if l.errs != 0 {
		t.Fatalf("adjacent blocks flagged: %v", l.firstErr)
	}
	l.add(0x1008, 8) // inside the first block
	if l.errs != 1 || !strings.Contains(l.firstErr.Error(), "overlapping") {
		t.Fatalf("overlap not detected: errs=%d err=%v", l.errs, l.firstErr)
	}
	l = newLiveSet()
	l.add(0x2000, 4096) // spans a page boundary of the bitmap
	l.remove(0x2000)
	l.add(0x2ff8, 8) // reuse after free is fine
	l.remove(0x2ff8)
	l.remove(0x2ff8) // double free
	if l.errs != 1 || !strings.Contains(l.firstErr.Error(), "not live") {
		t.Fatalf("double free not detected: errs=%d err=%v", l.errs, l.firstErr)
	}
	l.add(0x3004, 8) // misaligned
	if l.errs != 2 {
		t.Fatalf("misaligned block not detected: errs=%d", l.errs)
	}
	if l.mallocs != 3 || l.frees != 3 {
		t.Fatalf("counted %d mallocs / %d frees, want 3 / 3", l.mallocs, l.frees)
	}
}
