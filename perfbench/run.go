package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"nextgenmalloc/internal/alloc"
	"nextgenmalloc/internal/harness"
	ngmetrics "nextgenmalloc/internal/metrics"
)

// cellRun is one harness run of a cell.
type cellRun struct {
	res   harness.Result
	err   error
	wall  time.Duration // host time of the RunE call
	setup time.Duration // RunE start to the end of worker 0's Setup
	tr    *tracer       // nil for an untraced run
}

// rep is one repetition: every cell of the workload, in order.
type rep struct {
	cells   []cellRun
	wall    time.Duration
	setup   time.Duration
	goAlloc uint64 // Go heap bytes allocated during the repetition
	// host holds a traced repetition's span-derived host metrics.
	host map[string]float64
}

// runCell runs c once, traced when tr is non-nil. It collects garbage
// first, so no run pays for the previous one's heap and the process's
// peak footprint is that of its largest cell.
func runCell(c cell, tr *tracer) cellRun {
	runtime.GC()
	opt := c.options()
	w := &observedWorkload{Workload: opt.Workload, tr: tr}
	opt.Workload = w
	if tr != nil {
		opt.Wrap = func(a alloc.Allocator) alloc.Allocator { return &tracedAlloc{inner: a, tr: tr} }
	}
	start := time.Now()
	res, err := harness.RunE(opt)
	r := cellRun{res: res, err: err, wall: time.Since(start), tr: tr}
	if !w.setupDone.IsZero() {
		r.setup = w.setupDone.Sub(start)
	}
	return r
}

// heapAllocs reads the cumulative Go heap allocation counter.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// runRep runs every cell once, traced or not.
func runRep(cells []cell, traced bool) rep {
	var r rep
	a0 := heapAllocs()
	for _, c := range cells {
		var tr *tracer
		if traced {
			tr = newTracer()
		}
		cr := runCell(c, tr)
		r.cells = append(r.cells, cr)
		r.wall += cr.wall
		r.setup += cr.setup
	}
	r.goAlloc = heapAllocs() - a0
	if traced {
		r.host = traceHostMetrics(r)
	}
	return r
}

// dropResults releases a repetition's harness results and live-block
// ledgers once it has been gated.
func (r rep) dropResults() {
	for i := range r.cells {
		r.cells[i].res = harness.Result{}
		if tr := r.cells[i].tr; tr != nil {
			tr.live = liveSet{}
		}
	}
}

// dropSpans releases a traced repetition's spans once its host metrics
// are taken, keeping its live-block ledger for the gate.
func (r rep) dropSpans() {
	for _, cr := range r.cells {
		cr.tr.spans = nil
	}
}

// profiledRep runs an untraced repetition under the CPU profiler and
// returns the profile's samples per bucket.
func profiledRep(cells []cell) (rep, map[string]int64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return rep{}, nil, fmt.Errorf("cpu profile: %w", err)
	}
	r := runRep(cells, false)
	pprof.StopCPUProfile()
	b, err := bucketProfile(buf.Bytes())
	return r, b, err
}

// digest hashes every simulated counter of a run: the metrics document
// without its host-side warp ledger, plus the per-thread counters,
// allocator statistics and kernel accounting. Two commits whose runs
// digest alike produced bit-identical simulations.
func digest(res harness.Result) string {
	doc := ngmetrics.FromResult(res)
	doc.Warp = nil
	b, err := json.Marshal(struct {
		Doc       ngmetrics.Result
		PerThread any
		Alloc     any
		Kernel    any
	}{doc, res.PerThread, res.AllocStats, res.Kernel})
	if err != nil {
		panic(err) // plain structs of numbers and strings always encode
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// checker is the correctness gate: every check counts as attempted,
// and a failed one is remembered for the report.
type checker struct {
	attempted, failed uint64
	failures          []string
}

func (c *checker) check(what string, err error) {
	c.attempted++
	if err != nil {
		c.failed++
		if len(c.failures) < 20 {
			c.failures = append(c.failures, fmt.Sprintf("%s: %v", what, err))
		}
	}
}

// checkUntraced gates one untraced repetition; first is the run's
// first repetition (nil when r is that one), whose counters every later
// repetition must reproduce.
func (c *checker) checkUntraced(cells []cell, r rep, first *rep) {
	for i, cr := range r.cells {
		name := cells[i].name
		c.check(name+" RunE", cr.err)
		if cr.err != nil {
			continue
		}
		c.check(name+" liveness", cr.res.CheckLiveness())
		doc := ngmetrics.NewFile(ngmetrics.FromResults(name, []harness.Result{cr.res}))
		data, err := doc.Encode()
		if err == nil {
			err = ngmetrics.Validate(data)
		}
		c.check(name+" metrics.Validate", err)
		if first == nil || first.cells[i].err != nil {
			continue
		}
		err = nil
		if d0, d := digest(first.cells[i].res), digest(cr.res); d0 != d {
			err = fmt.Errorf("counter digest %s, first repetition %s", d, d0)
		}
		c.check(name+" repeatable", err)
	}
}

// checkTraced gates one traced repetition: the allocator contract held,
// the allocator's own call counts agree with the calls made, and the
// simulation matched the untraced run exactly.
func (c *checker) checkTraced(cells []cell, r, base rep) {
	for i, cr := range r.cells {
		name := cells[i].name + " traced"
		c.check(name+" RunE", cr.err)
		if cr.err != nil || base.cells[i].err != nil {
			continue
		}
		l := &cr.tr.live
		var err error
		if l.errs > 0 {
			err = fmt.Errorf("%d contract violations, first: %v", l.errs, l.firstErr)
		}
		c.check(name+" no overlapping blocks", err)
		st := cr.res.AllocStats
		err = nil
		if st.MallocCalls != l.mallocs || st.FreeCalls != l.frees || uint64(len(l.blocks)) != l.mallocs-l.frees {
			err = fmt.Errorf("allocator counts %d mallocs / %d frees, calls made %d / %d, %d blocks live",
				st.MallocCalls, st.FreeCalls, l.mallocs, l.frees, len(l.blocks))
		}
		c.check(name+" malloc/free balance", err)
		u := base.cells[i].res
		err = nil
		switch {
		case cr.res.Total != u.Total:
			err = errors.New("worker counters differ from the untraced run")
		case cr.res.Server != u.Server:
			err = errors.New("server counters differ from the untraced run")
		case cr.res.WallCycles != u.WallCycles:
			err = fmt.Errorf("wall cycles %d, untraced %d", cr.res.WallCycles, u.WallCycles)
		case cr.res.AllocStats != u.AllocStats:
			err = errors.New("allocator statistics differ from the untraced run")
		}
		c.check(name+" identical to untraced", err)
	}
}

// checkRequests counts a request-serving run's requests: each is
// attempted, an abandoned one failed. The exact p99 needs the tracker
// to have kept every span.
func (c *checker) checkRequests(res harness.Result) {
	s := res.SLO
	if s == nil {
		return
	}
	c.attempted += s.Completed() + s.Abandoned()
	c.failed += s.Abandoned()
	var err error
	if d := s.DroppedSpans(); d > 0 {
		err = fmt.Errorf("%d request spans dropped", d)
	}
	c.check("slo spans retained", err)
}
