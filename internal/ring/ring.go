// Package ring implements single-producer single-consumer descriptor
// rings in simulated shared memory — the transport NextGen-Malloc uses
// between an application core and the dedicated allocator core.
//
// The layout is deliberately cache-conscious: the producer index, the
// consumer index, and the slot array live on separate cache lines, so
// the coherence traffic the simulator observes is exactly the line
// ping-pong a real cross-core ring would generate (the overhead the
// paper's §3.1.1 weighs against the pollution savings). Each side keeps
// a shadow copy of the opposite index (the standard SPSC optimization),
// so the common push touches only the slot line and the tail line, and
// an empty poll costs a single load that stays cached until the
// producer actually publishes.
//
// Because sim.LineSize/SlotSize slots share one cache line, a producer
// can amortize the tail-line transfer across several requests: Stage
// writes slots without publishing, Publish makes the whole batch
// visible with one tail store, and PushN/PopN are the vectored
// wrappers (the batched-request opportunity of the paper's §3.3).
// TryPush/TryPop remain the unbatched one-request path and are
// cycle-identical to the pre-batching transport.
package ring

import (
	"fmt"
	"math/bits"

	"nextgenmalloc/internal/sim"
)

// Stats are host-side ring telemetry (observation-only: collecting them
// issues no simulated memory traffic). Occupancy is a histogram of the
// ring depth observed by the producer after each successful push, in
// log2 buckets: bucket 0 is unused, bucket b counts depths in
// [2^(b-1), 2^b). The deepest shipped ring (1024 slots) lands in
// bucket 11.
type Stats struct {
	Pushes      uint64
	Pops        uint64
	PushBatches uint64 // tail publications (Pushes/PushBatches = avg batch width)
	PopBatches  uint64 // head publications (Pops/PopBatches = avg drain width)
	FullRetries uint64 // push attempts that found the ring full
	StallCycles uint64 // producer cycles spent spinning in Push/Stage
	Occupancy   [12]uint64
}

// Add accumulates o into s (for merging per-ring stats).
func (s *Stats) Add(o Stats) {
	s.Pushes += o.Pushes
	s.Pops += o.Pops
	s.PushBatches += o.PushBatches
	s.PopBatches += o.PopBatches
	s.FullRetries += o.FullRetries
	s.StallCycles += o.StallCycles
	for i := range s.Occupancy {
		s.Occupancy[i] += o.Occupancy[i]
	}
}

// SlotSize is the byte size of one ring slot: two 8-byte words
// (operation descriptor and payload), mirroring the request_size /
// response_addr pair of the paper's §4.2 prototype.
const SlotSize = 16

// headerSize is head line + tail line.
const headerSize = 2 * sim.LineSize

// SPSC is a single-producer single-consumer ring of 16-byte slots.
//
// Word layout:
//
//	base + 0:          head (consumer index), own line
//	base + 64:         tail (producer index), own line
//	base + 128 + 16*i: slot i {word0, word1}
//
// The shadow fields model the index copies a real implementation keeps
// in registers or producer/consumer-private lines.
type SPSC struct {
	base uint64
	mask uint64
	size uint64

	prodTail   uint64 // producer's private tail mirror
	staged     uint64 // slots written past prodTail but not yet published
	shadowHead uint64 // producer's last-read consumer index
	consHead   uint64 // consumer's private head mirror
	shadowTail uint64 // consumer's last-read producer index

	// pubTail is the tail value actually delivered to the consumer's
	// line. It trails prodTail only while a fault-injected doorbell drop
	// is outstanding; Republish (or the next surviving Publish) catches
	// it up.
	pubTail uint64
	// dropHook, when set, is consulted on each tail publication;
	// returning true suppresses the tail store (a lost doorbell).
	dropHook func() bool

	stats Stats

	// stamps, when enabled, records the producer clock at stage time for
	// each slot, indexed like the slot array. Host-side only: reading or
	// writing a stamp issues no simulated traffic, so enabling them
	// cannot perturb counters (the latency spans built from them are
	// pure observation).
	stamps []uint64

	// spinAddrs holds the head word's address: spin's declared load
	// sequence, kept here so a warped wait allocates nothing.
	spinAddrs [1]uint64
}

// Stats returns a copy of the ring's telemetry counters.
func (r *SPSC) Stats() Stats { return r.stats }

// EnableStamps turns on host-side enqueue-cycle stamping: every slot
// staged afterwards remembers the producer clock at stage time, which
// the consumer reads back through PoppedStamp/PoppedStamps to build
// offload latency spans. Zero simulated cost.
func (r *SPSC) EnableStamps() {
	if r.stamps == nil {
		r.stamps = make([]uint64, r.size)
	}
}

// PoppedStamp returns the enqueue stamp of the slot most recently
// consumed by TryPop (0 when stamping is disabled).
func (r *SPSC) PoppedStamp() uint64 {
	if r.stamps == nil {
		return 0
	}
	return r.stamps[(r.consHead-1)&r.mask]
}

// PoppedStamps fills out with the enqueue stamps of the last k slots
// consumed (oldest first), matching a PopN that returned k. A no-op
// when stamping is disabled.
func (r *SPSC) PoppedStamps(k int, out []uint64) {
	if r.stamps == nil {
		return
	}
	for i := 0; i < k; i++ {
		out[i] = r.stamps[(r.consHead-uint64(k-i))&r.mask]
	}
}

// HostDepth returns the ring occupancy visible to the host (published
// plus staged slots), without issuing simulated traffic — the gauge the
// timeline sampler reads. Compare Len, which models a real consumer
// probe and costs a simulated atomic load.
func (r *SPSC) HostDepth() int {
	return int(r.prodTail + r.staged - r.consHead)
}

// BytesFor returns the mapped bytes needed for a ring with the given
// slot count.
func BytesFor(slots int) int {
	return headerSize + slots*SlotSize
}

// New places a ring over zeroed simulated memory at base. slots must be
// a power of two.
func New(base uint64, slots int) *SPSC {
	if slots <= 0 || slots&(slots-1) != 0 {
		panic(fmt.Sprintf("ring: slot count %d is not a power of two", slots))
	}
	if base%sim.LineSize != 0 {
		panic("ring: base must be cache-line aligned")
	}
	return &SPSC{base: base, mask: uint64(slots - 1), size: uint64(slots), spinAddrs: [1]uint64{base}}
}

func (r *SPSC) headAddr() uint64         { return r.base }
func (r *SPSC) tailAddr() uint64         { return r.base + sim.LineSize }
func (r *SPSC) slotAddr(i uint64) uint64 { return r.base + headerSize + (i&r.mask)*SlotSize }

// TailAddr exposes the producer tail word's address — the word an empty
// TryPop/PopN reloads — so the consumer can declare its idle-poll load
// sequence to the scheduler's time-warp detector (sim.WaitSpec.Addrs).
func (r *SPSC) TailAddr() uint64 { return r.tailAddr() }

// TryStage writes (w0, w1) into the next free slot without publishing
// it; it returns false when the ring (counting earlier staged slots) is
// full. Staged slots stay invisible to the consumer until Publish, so a
// producer can coalesce several requests — consecutive slots share a
// cache line (sim.LineSize/SlotSize per line) — and pay for a single
// tail-line transfer. Producer-side only.
func (r *SPSC) TryStage(t *sim.Thread, w0, w1 uint64) bool {
	if r.prodTail+r.staged-r.shadowHead >= r.size {
		// Looks full: refresh the consumer index.
		r.shadowHead = t.AtomicLoad64(r.headAddr())
		if r.prodTail+r.staged-r.shadowHead >= r.size {
			r.stats.FullRetries++
			return false
		}
	}
	slot := r.slotAddr(r.prodTail + r.staged)
	t.Store64(slot, w0)
	t.Store64(slot+8, w1)
	if r.stamps != nil {
		r.stamps[(r.prodTail+r.staged)&r.mask] = t.Clock()
	}
	r.staged++
	return true
}

// Staged reports how many slots are written but not yet published.
func (r *SPSC) Staged() int { return int(r.staged) }

// SetDropHook installs a fault-injection hook consulted on every tail
// publication; returning true loses that doorbell (the slot words are
// written, but the consumer keeps seeing the old tail until a later
// publication or Republish delivers it). Nil disarms. Test/injection
// use only — with no hook the transport is byte-identical to the seed.
func (r *SPSC) SetDropHook(fn func() bool) { r.dropHook = fn }

// Republish re-rings the doorbell: an unconditional release store of
// the producer's true tail, recovering any publication a drop hook
// suppressed. The retry path's store is deliberately not droppable —
// it models a synchronous re-ring, not a fire-and-forget doorbell.
// Producer-side state; the shutdown drain may also call it to surface
// hidden slots before the final pops.
func (r *SPSC) Republish(t *sim.Thread) {
	r.pubTail = r.prodTail
	t.AtomicStore64(r.tailAddr(), r.prodTail)
}

// Dropped reports whether a suppressed doorbell is outstanding (the
// consumer's tail line is stale). Host-side observation only.
func (r *SPSC) Dropped() bool { return r.pubTail != r.prodTail }

// Publish makes every staged slot visible with one release store of the
// new tail. A no-op (no simulated traffic) when nothing is staged.
func (r *SPSC) Publish(t *sim.Thread) {
	if r.staged == 0 {
		return
	}
	k := r.staged
	r.staged = 0
	r.prodTail += k
	if r.dropHook != nil && r.dropHook() {
		// Doorbell lost: the producer still pays the store (it executed
		// the instruction), but the line delivers the stale tail.
		t.AtomicStore64(r.tailAddr(), r.pubTail)
	} else {
		r.pubTail = r.prodTail
		t.AtomicStore64(r.tailAddr(), r.prodTail)
	}
	r.stats.Pushes += k
	r.stats.PushBatches++
	// The histogram counts per request (its sum stays equal to Pushes):
	// all k requests of this batch observed the same post-publish depth.
	if b := bits.Len64(r.prodTail - r.shadowHead); b < len(r.stats.Occupancy) {
		r.stats.Occupancy[b] += k
	} else {
		r.stats.Occupancy[len(r.stats.Occupancy)-1] += k
	}
}

// Stage stages the slot, waiting for space when the ring is full. It
// publishes any staged backlog before it waits, so the consumer can
// drain while the producer waits. The wait is spin's warped retry loop;
// cycles spent waiting for ring space are accounted as producer stall
// time.
func (r *SPSC) Stage(t *sim.Thread, w0, w1 uint64) {
	if r.TryStage(t, w0, w1) {
		return
	}
	r.Publish(t)
	r.spin(t, func() bool { return r.TryStage(t, w0, w1) })
}

// TryPush publishes (w0, w1) if the ring has space; it returns false
// when full. Any previously staged slots are published along with it.
// Producer-side only.
func (r *SPSC) TryPush(t *sim.Thread, w0, w1 uint64) bool {
	if !r.TryStage(t, w0, w1) {
		return false
	}
	r.Publish(t)
	return true
}

// Push publishes (w0, w1), waiting for space when the ring is full. The
// wait is spin's warped retry loop; cycles spent waiting for ring space
// are accounted as producer stall time.
func (r *SPSC) Push(t *sim.Thread, w0, w1 uint64) {
	if r.TryPush(t, w0, w1) {
		return
	}
	r.spin(t, func() bool { return r.TryPush(t, w0, w1) })
}

// spin is the producer's full-ring wait: each round pauses 32 cycles
// and retries until retry succeeds, and the wait's cycles are added to
// StallCycles. It runs as a sim.WarpLoop. A round that finds the ring
// still full refreshes shadowHead with one load of the head word and
// stores nothing, so inside one scheduler lease — while the consumer
// cannot run — every such round is identical, and the time warp skips
// them in bulk. Skipped rounds are counted in FullRetries exactly as if
// each had run.
func (r *SPSC) spin(t *sim.Thread, retry func() bool) {
	start := t.Clock()
	t.WarpLoop(sim.WaitSpec{
		Round: func() bool {
			t.Pause(32)
			return retry()
		},
		Addrs:   func() []uint64 { return r.spinAddrs[:] },
		Skipped: func(rounds, _ uint64) { r.stats.FullRetries += rounds },
	})
	r.stats.StallCycles += t.Clock() - start
}

// PushN stages every request and publishes them with a single tail
// store (waiting for space as needed, like Push).
func (r *SPSC) PushN(t *sim.Thread, reqs [][2]uint64) {
	for _, q := range reqs {
		r.Stage(t, q[0], q[1])
	}
	r.Publish(t)
}

// TryPop consumes one slot; ok is false when the ring is empty.
// Consumer-side only.
func (r *SPSC) TryPop(t *sim.Thread) (w0, w1 uint64, ok bool) {
	if r.consHead == r.shadowTail {
		r.shadowTail = t.AtomicLoad64(r.tailAddr())
		if r.consHead == r.shadowTail {
			return 0, 0, false
		}
	}
	slot := r.slotAddr(r.consHead)
	w0 = t.Load64(slot)
	w1 = t.Load64(slot + 8)
	r.consHead++
	t.AtomicStore64(r.headAddr(), r.consHead)
	r.stats.Pops++
	r.stats.PopBatches++
	return w0, w1, true
}

// PopN consumes up to len(buf) slots, publishing the consumer index
// once for the whole batch — the consumer-side mirror of Stage/Publish.
// It returns the number of requests popped (0 when the ring is empty).
func (r *SPSC) PopN(t *sim.Thread, buf [][2]uint64) int {
	if len(buf) == 0 {
		return 0
	}
	if r.consHead == r.shadowTail {
		r.shadowTail = t.AtomicLoad64(r.tailAddr())
		if r.consHead == r.shadowTail {
			return 0
		}
	}
	k := uint64(len(buf))
	if avail := r.shadowTail - r.consHead; avail < k {
		k = avail
	}
	for i := uint64(0); i < k; i++ {
		slot := r.slotAddr(r.consHead + i)
		buf[i][0] = t.Load64(slot)
		buf[i][1] = t.Load64(slot + 8)
	}
	r.consHead += k
	t.AtomicStore64(r.headAddr(), r.consHead)
	r.stats.Pops += k
	r.stats.PopBatches++
	return int(k)
}

// Len returns the occupancy as seen by the consumer.
func (r *SPSC) Len(t *sim.Thread) int {
	return int(t.AtomicLoad64(r.tailAddr()) - r.consHead)
}
