package harness

import (
	"fmt"
	"reflect"
	"testing"

	"nextgenmalloc/internal/core"
	"nextgenmalloc/internal/fault"
	"nextgenmalloc/internal/sim"
	"nextgenmalloc/internal/workload"
)

// warpCase is one configuration of the warp-equivalence gate. fullRing
// marks a cell whose free rings must fill, so the gate also proves that
// the producer's full-ring wait (ring.SPSC Push/Stage) was exercised.
type warpCase struct {
	opt      Options
	fullRing bool
}

// warpCases are the configurations the warp-equivalence gate covers:
// plain offload, synchronous offload (client response spins), adaptive
// prealloc (idle top-up gauges in the steady round), an armed fault
// plan with resilience (stall horizons and deadline waits), an armed
// timeline sampler (probe cadence must survive warp), every service
// policy with 32 clients on one server (the round-robin cursor must
// advance across warped idle rounds), and 4-slot free rings on
// 8 clients (full-ring producer waits, through Push for nextgen and
// through Stage for nextgen-batch) at a short and a long quantum.
func warpCases() map[string]warpCase {
	cases := map[string]warpCase{
		"offload": {opt: Options{
			Allocator: "nextgen",
			Workload:  &workload.Xmalloc{NThreads: 4, OpsPerThread: 600, TouchBytes: 64, Seed: 3},
		}},
		"offload-sync": {opt: Options{
			Allocator: "nextgen-sync",
			Workload:  &workload.Xmalloc{NThreads: 3, OpsPerThread: 400, TouchBytes: 64, Seed: 5},
		}},
		"offload-adaptive": {opt: Options{
			Allocator: "nextgen-adaptive",
			Workload:  workload.DefaultXalanc(1500),
		}},
		"fault-stall": {opt: Options{
			Allocator: "nextgen",
			Workload:  &workload.Xmalloc{NThreads: 3, OpsPerThread: 500, TouchBytes: 64, Seed: 7},
			FaultPlan: &fault.Plan{Seed: 7, StallCycles: 60000, StallStart: 40000, StallPeriod: 200000},
		}},
		"fault-drops": {opt: Options{
			Allocator: "nextgen",
			Workload:  &workload.Xmalloc{NThreads: 3, OpsPerThread: 400, TouchBytes: 64, Seed: 9},
			FaultPlan: &fault.Plan{Seed: 11, DropEveryN: 64, CorruptEveryN: 128},
		}},
		"timeline-armed": {opt: Options{
			Allocator:      "nextgen",
			Workload:       &workload.Xmalloc{NThreads: 4, OpsPerThread: 600, TouchBytes: 64, Seed: 3},
			SampleInterval: 5000,
		}},
	}
	for _, p := range []core.SchedPolicy{core.FixedScan, core.RoundRobin, core.DoorbellPriority, core.BatchDrain} {
		cases["sched-32x1/"+p.String()] = warpCase{opt: Options{
			Allocator: "nextgen",
			Workload:  workload.NewParallelXalanc(32, warpXalanc(40)),
			Machine:   warpMachine(33, 64),
			Servers:   1,
			Sched:     p,
		}}
	}
	for _, kind := range []string{"nextgen", "nextgen-batch"} {
		for _, q := range []uint64{64, 4096} {
			cases[fmt.Sprintf("ring-full/%s/q%d", kind, q)] = warpCase{fullRing: true, opt: Options{
				Allocator: kind,
				Workload:  workload.NewParallelXalanc(8, warpXalanc(150)),
				Machine:   warpMachine(9, q),
				Servers:   1,
				Tune:      func(c *core.Config) { c.RingSlots = 4 },
			}}
		}
	}
	return cases
}

// warpXalanc is the per-worker xalanc input of the multi-client cells.
func warpXalanc(ops int) workload.Xalanc {
	return workload.Xalanc{
		Ops: ops, NodeSlots: 256, Burst: 16, ComputePerOp: 360,
		ChaseEvery: 3, ChaseClusters: 16, TouchBytes: 96, Seed: 5,
	}
}

// warpMachine is sim.ScaledConfig with the given core count and
// scheduler quantum.
func warpMachine(cores int, quantum uint64) *sim.Config {
	cfg := sim.ScaledConfig()
	cfg.Cores = cores
	cfg.Quantum = quantum
	return &cfg
}

// runWithWarp runs opt on its own machine config (sim.ScaledConfig when
// opt.Machine is nil) with the time warp set to warp.
func runWithWarp(opt Options, warp bool) Result {
	cfg := sim.ScaledConfig()
	if opt.Machine != nil {
		cfg = *opt.Machine
	}
	cfg.Warp = warp
	opt.Machine = &cfg
	return Run(opt)
}

// TestWarpEquivalence is the second gate behind the golden suite: an
// entire Result — every PMU counter, class attribution, ring/server
// telemetry word, timeline sample, latency digest, and resilience
// ledger — must be deeply equal with warp on and off. Only the Warp
// ledger itself may differ (it reports what the fast path skipped).
func TestWarpEquivalence(t *testing.T) {
	for name, c := range warpCases() {
		c := c
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			off := runWithWarp(c.opt, false)
			on := runWithWarp(c.opt, true)
			if off.Warp != (sim.WarpStats{}) {
				t.Fatalf("warp-off run reported warp activity: %+v", off.Warp)
			}
			if c.fullRing && (off.Offload == nil || off.Offload.FreeRing.FullRetries == 0) {
				t.Fatal("ring-full cell never found a free ring full")
			}
			warp := on.Warp
			off.Warp, on.Warp = sim.WarpStats{}, sim.WarpStats{}
			if !reflect.DeepEqual(off, on) {
				t.Fatalf("warp changed the simulation:\noff: %+v\non:  %+v", off, on)
			}
			t.Logf("windows=%d rounds=%d cyclesWarped=%d largest=%d",
				warp.Windows, warp.Rounds, warp.CyclesWarped, warp.LargestSkip)
		})
	}
}

// TestWarpEngages pins that the fast path actually fires on an
// idle-heavy offload run — the empty-poll windows the tentpole exists
// to skip — and that the ledger is consistent with the run.
func TestWarpEngages(t *testing.T) {
	res := runWithWarp(Options{
		Allocator: "nextgen",
		Workload:  &workload.Xmalloc{NThreads: 2, OpsPerThread: 800, TouchBytes: 256, Seed: 3},
	}, true)
	w := res.Warp
	if w.Windows == 0 || w.Rounds == 0 || w.CyclesWarped == 0 {
		t.Fatalf("warp never engaged on an idle-heavy run: %+v", w)
	}
	if w.LargestSkip > w.CyclesWarped {
		t.Fatalf("largest skip %d exceeds total warped cycles %d", w.LargestSkip, w.CyclesWarped)
	}
	if w.Rounds < w.Windows {
		t.Fatalf("%d windows but only %d rounds", w.Windows, w.Rounds)
	}
	t.Logf("windows=%d rounds=%d cyclesWarped=%d largest=%d (wall=%d)",
		w.Windows, w.Rounds, w.CyclesWarped, w.LargestSkip, res.WallCycles)
}
