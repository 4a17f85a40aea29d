package sim

import (
	"nextgenmalloc/internal/cache"
	"nextgenmalloc/internal/mem"
	"nextgenmalloc/internal/region"
	"nextgenmalloc/internal/tlb"
)

// This file implements the time-warp fast path for wait loops: the host
// stops stepping through provably-identical polling rounds and applies
// their combined effect arithmetically.
//
// The correctness argument rests on one scheduler invariant: exactly one
// simulated thread runs at a time, and control only transfers at an
// explicit yield inside Thread.step. Between two yields — i.e. within
// one lease — no other thread runs, so simulated memory and every other
// core's model state are frozen. A wait round that (a) performs only
// L1-hit loads, (b) never yields, and (c) produces the exact same
// counter delta as the round before it is therefore a pure function of
// frozen state: every further round inside the same lease is
// bit-identical, and k of them can be applied as arithmetic on the
// counters and the LRU clocks. The replay stops before anything that
// could change the outcome: the lease end (another thread runs), the
// loop's own deadline (WaitSpec.Until), or a declared external event
// horizon such as a fault-stall window start (WaitSpec.Horizon).
//
// Warp never changes what is simulated — only how fast the host gets
// there. The golden suite runs with warp on, and the deep-equality tests
// in warp_test.go compare entire warp-on and warp-off results.

// warpWarmup is the number of rounds a WarpLoop call executes before it
// starts snapshotting for steadiness detection, so short waits (a client
// whose response arrives within a few polls) pay no detection overhead.
const warpWarmup = 3

// Backoff for busy loops: a Round that does real work (the server
// serving requests) is never going to fingerprint clean, and paying two
// counter snapshots per round on it erases the savings warp buys on the
// idle windows. After warpDirtyLimit consecutive dirty fingerprints the
// detector stops snapshotting and doubles a plain-round backoff up to
// warpMaxBackoff. Long idle windows still engage within ~one backoff
// span; windows shorter than that were barely profitable to skip.
const (
	warpDirtyLimit = 2
	warpMaxBackoff = 32
)

// WaitSpec declares one wait loop to WarpLoop: how to run one round of
// it concretely, what a steady round loads, and which boundaries cap a
// bulk skip.
type WaitSpec struct {
	// Round executes one iteration of the real loop body and reports
	// whether the wait is over. It must be exactly the code the
	// unwarped loop would run — WarpLoop calls it for every round it
	// does not skip, including all unsteady ones.
	Round func() bool

	// Addrs returns the virtual addresses the steady round loads, in
	// issue order (duplicates allowed). It is consulted only when a bulk
	// skip is about to be applied, and its length must equal the steady
	// round's load count or the skip is abandoned. Nil disables warp for
	// this loop.
	Addrs func() []uint64

	// Until, when nonzero, is the loop's exclusive deadline: rounds run
	// only while Thread.Clock() < Until, and skipped rounds must start
	// below it too. This models `for t.Clock() < deadline { ... }`.
	Until uint64

	// Horizon, when non-nil, returns an exclusive upper bound on warped
	// round starts (0 = none): a round starting at or past the horizon
	// may take a different path — e.g. a fault-stall window opening —
	// so it must execute concretely. Unlike Until it does not terminate
	// the loop; rounds keep running concretely past it.
	Horizon func() uint64

	// Skipped, when non-nil, is invoked after each bulk skip with the
	// number of rounds skipped and the simulated cycles they covered, so
	// the call site can scale per-round host-side accounting (empty-poll
	// counters and the like) exactly as if the rounds had run.
	Skipped func(rounds, cycles uint64)
}

// warpSnap is the per-round state fingerprint: everything a clean wait
// round is allowed to change, in absolute cumulative form.
type warpSnap struct {
	clock        uint64
	instr        uint64
	atomics      uint64
	kernelCycles uint64
	cache        cache.CoreStats
	tlb          tlb.Stats
}

// snapInto fills dst in place: the fingerprint is taken once per
// concrete round in a steady wait, so it must not copy the 136-byte
// struct around.
func (t *Thread) snapInto(dst *warpSnap) {
	dst.clock = t.clock
	dst.instr = t.instr
	dst.atomics = t.atomics
	dst.kernelCycles = t.kernelCycles
	dst.cache = t.caches.Stats(t.core)
	dst.tlb = t.tlb.Stats()
}

// diff sets d to the per-round delta s - o between two snapshots. It
// fills d in place: it runs once per fingerprinted round.
func (d *warpSnap) diff(s, o *warpSnap) {
	d.clock = s.clock - o.clock
	d.instr = s.instr - o.instr
	d.atomics = s.atomics - o.atomics
	d.kernelCycles = s.kernelCycles - o.kernelCycles
	d.cache = cache.CoreStats{
		Loads:          s.cache.Loads - o.cache.Loads,
		Stores:         s.cache.Stores - o.cache.Stores,
		L1Misses:       s.cache.L1Misses - o.cache.L1Misses,
		L2Misses:       s.cache.L2Misses - o.cache.L2Misses,
		LLCLoadMisses:  s.cache.LLCLoadMisses - o.cache.LLCLoadMisses,
		LLCStoreMisses: s.cache.LLCStoreMisses - o.cache.LLCStoreMisses,
		Invalidations:  s.cache.Invalidations - o.cache.Invalidations,
		DirtyTransfers: s.cache.DirtyTransfers - o.cache.DirtyTransfers,
	}
	d.tlb = tlb.Stats{
		LoadHits:    s.tlb.LoadHits - o.tlb.LoadHits,
		LoadMisses:  s.tlb.LoadMisses - o.tlb.LoadMisses,
		StoreHits:   s.tlb.StoreHits - o.tlb.StoreHits,
		StoreMisses: s.tlb.StoreMisses - o.tlb.StoreMisses,
		STLBHits:    s.tlb.STLBHits - o.tlb.STLBHits,
	}
}

// clean reports whether a round delta is replayable: pure L1-hit loads
// (each translating through an L1 TLB hit), forward clock progress, and
// nothing that moves non-replayed model state — no stores, misses,
// fills, coherence traffic, atomics, or kernel work. A round with zero
// loads is rejected too: it touched no memory the detector can certify,
// and the pure-Pause rounds it would describe (fault-stall chunks) carry
// undeclared per-round host accounting.
func (d *warpSnap) clean() bool {
	return d.clock > 0 &&
		d.cache.Loads > 0 &&
		d.instr >= d.cache.Loads &&
		d.cache.Stores == 0 &&
		d.cache.L1Misses == 0 &&
		d.cache.L2Misses == 0 &&
		d.cache.LLCLoadMisses == 0 &&
		d.cache.LLCStoreMisses == 0 &&
		d.cache.Invalidations == 0 &&
		d.cache.DirtyTransfers == 0 &&
		d.tlb.LoadHits == d.cache.Loads &&
		d.tlb.LoadMisses == 0 &&
		d.tlb.StoreHits == 0 &&
		d.tlb.StoreMisses == 0 &&
		d.tlb.STLBHits == 0 &&
		d.atomics == 0 &&
		d.kernelCycles == 0
}

// WarpLoop runs a declared wait loop: `for Until unreached { if Round()
// { return } }`, with the time-warp fast path applied when the machine
// was configured with Warp. Behaviour — every counter, every yield,
// every scheduling decision — is bit-identical with and without warp;
// only the host work differs.
//
// Detection: after a short warm-up, WarpLoop fingerprints each round.
// Two consecutive rounds inside one lease (no yield) with identical
// clean deltas prove the loop is in a steady state over frozen memory;
// the rounds that remain below every cap (lease end, Until, Horizon)
// are then applied arithmetically and the loop continues concretely.
func (t *Thread) WarpLoop(s WaitSpec) {
	if s.Round == nil {
		panic("sim: WarpLoop needs a Round")
	}
	if !t.m.cfg.Warp || s.Addrs == nil {
		for s.Until == 0 || t.clock < s.Until {
			if s.Round() {
				return
			}
		}
		return
	}
	var (
		rounds   uint64      // concrete rounds executed by this call
		snaps    [2]warpSnap // double-buffered fingerprints (no copies)
		cur      = &snaps[0] // snapshot at the current loop position
		prev     = &snaps[1]
		curOK    bool     // cur describes the state after the last round
		d        warpSnap // the last round's delta
		tmpl     warpSnap // candidate steady-round delta
		tmplOK   bool
		disabled bool // Addrs declaration failed verification: stop trying
		dirty    int  // consecutive dirty fingerprints
		skip     int  // plain rounds left before fingerprinting resumes
	)
	for s.Until == 0 || t.clock < s.Until {
		if disabled || rounds < warpWarmup || skip > 0 {
			if s.Round() {
				return
			}
			rounds++
			if skip > 0 {
				skip--
				curOK = false
			}
			continue
		}
		if !curOK {
			t.snapInto(cur)
			curOK = true
		}
		prev, cur = cur, prev
		yields := t.yields
		if s.Round() {
			return
		}
		rounds++
		t.snapInto(cur)
		d.diff(cur, prev)
		if t.yields != yields || !d.clean() {
			// A yield means another thread may have written memory; an
			// unclean round did real work. Either way the steady state
			// (if any) must be re-proven from scratch — and a loop that
			// keeps fingerprinting dirty is doing real work every round,
			// so back off the detector rather than tax it.
			tmplOK = false
			if dirty++; dirty >= warpDirtyLimit {
				skip = min(4<<(dirty-warpDirtyLimit), warpMaxBackoff)
			}
			continue
		}
		dirty = 0
		if !tmplOK || d != tmpl {
			tmpl, tmplOK = d, true
			continue
		}
		k := t.warpBudget(&s, tmpl.clock)
		if k == 0 {
			continue
		}
		addrs := s.Addrs()
		if uint64(len(addrs)) != tmpl.cache.Loads || !t.warpApply(addrs, &tmpl, k) {
			disabled = true
			tmplOK = false
			continue
		}
		if s.Skipped != nil {
			s.Skipped(k, k*tmpl.clock)
		}
		t.snapInto(cur)
	}
}

// warpBudget returns how many steady rounds of cost rc may be skipped
// from the current clock: every skipped round must have run yield-free
// under the current lease and started strictly below Until and the
// event horizon. Returns 0 when nothing bounds the skip (a sole live
// thread with no deadline must keep polling concretely) or when a bound
// has already been reached.
func (t *Thread) warpBudget(s *WaitSpec, rc uint64) uint64 {
	k := ^uint64(0)
	bounded := false
	if t.lease != ^uint64(0) {
		if t.clock > t.lease {
			return 0 // the next step() yields; nothing to skip here
		}
		// Round j ends at clock + j*rc; it is yield-free iff every step
		// inside it sees clock <= lease, which holds when the round ends
		// at lease+1 or earlier.
		k = (t.lease + 1 - t.clock) / rc
		bounded = true
	}
	if s.Until != 0 {
		if t.clock >= s.Until {
			return 0
		}
		if n := (s.Until-1-t.clock)/rc + 1; n < k {
			k = n
		}
		bounded = true
	}
	if s.Horizon != nil {
		if h := s.Horizon(); h != 0 {
			if t.clock >= h {
				return 0
			}
			if n := (h-1-t.clock)/rc + 1; n < k {
				k = n
			}
			bounded = true
		}
	}
	if !bounded {
		return 0
	}
	return k
}

// warpApply replays k steady rounds: it resolves the declared load
// sequence to concrete L1 ways (pure probes — any residency mismatch
// abandons the skip) and advances the clock, instruction count, PMU
// demand counters, and LRU clocks to exactly the state k concrete
// rounds would leave. See cache.ReplayL1Loads / tlb.ReplayL1LoadHits
// for the stamp arithmetic.
func (t *Thread) warpApply(addrs []uint64, d *warpSnap, k uint64) bool {
	if cap(t.warpIdxs) < len(addrs) {
		t.warpIdxs = make([]int, len(addrs))
		t.warpWays = make([]int, len(addrs))
		t.warpCls = make([]region.Class, len(addrs))
	}
	idxs := t.warpIdxs[:len(addrs)]
	ways := t.warpWays[:len(addrs)]
	cls := t.warpCls[:len(addrs)]
	for i, va := range addrs {
		e := t.translate(va)
		paddr := e.base | va&mem.PageMask
		ci := t.caches.ProbeL1(t.core, paddr>>cache.LineShift)
		wi := t.tlb.ProbeL1Way(va, uint(e.shift))
		if ci < 0 || wi < 0 {
			return false
		}
		idxs[i] = ci
		ways[i] = wi
		cls[i] = e.class(va)
	}
	t.caches.ReplayL1Loads(t.core, idxs, cls, k)
	t.tlb.ReplayL1LoadHits(ways, k)
	t.clock += k * d.clock
	t.instr += k * d.instr
	t.m.noteWarp(k, k*d.clock)
	return true
}
