package ring

import (
	"fmt"
	"testing"

	"nextgenmalloc/internal/sim"
)

// pushFull runs a producer against a slow consumer on a 4-slot ring:
// the consumer computes 2000 cycles after every pop, so nearly every
// push finds the ring full and waits in Push. It returns the
// producer's ring stats and the machine's warp ledger.
func pushFull(warp bool, pushes int) (Stats, sim.WarpStats) {
	cfg := sim.DefaultConfig()
	cfg.Cores = 2
	cfg.Warp = warp
	m := sim.New(cfg)
	base, _ := m.Kernel().Mmap(1)
	var stats Stats
	m.Spawn("producer", 0, func(t *sim.Thread) {
		r := New(base, 4)
		for i := 0; i < pushes; i++ {
			r.Push(t, uint64(i), 0)
		}
		stats = r.Stats()
	})
	m.Spawn("consumer", 1, func(t *sim.Thread) {
		r := New(base, 4)
		for popped := 0; popped < pushes; {
			if _, _, ok := r.TryPop(t); ok {
				popped++
				t.Exec(2000)
			} else {
				t.Pause(50)
			}
		}
	})
	m.Run()
	return stats, m.WarpStats()
}

// TestPushFullWarpEquivalence: the full-ring wait warps, and warping it
// changes neither the retry count nor the stall cycles.
func TestPushFullWarpEquivalence(t *testing.T) {
	off, offWarp := pushFull(false, 200)
	on, onWarp := pushFull(true, 200)
	if off.FullRetries == 0 || off.StallCycles == 0 {
		t.Fatalf("producer never waited on a full ring: %+v", off)
	}
	if offWarp != (sim.WarpStats{}) {
		t.Fatalf("warp-off run reported warp activity: %+v", offWarp)
	}
	if onWarp.Rounds == 0 {
		t.Fatal("the full-ring wait never warped")
	}
	if on != off {
		t.Fatalf("warp changed the ring stats:\noff: %+v\non:  %+v", off, on)
	}
	t.Logf("fullRetries=%d stallCycles=%d warpedRounds=%d", on.FullRetries, on.StallCycles, onWarp.Rounds)
}

// BenchmarkPushFull measures producer backpressure on the host: 2000
// pushes into a full ring against a slow consumer, with the full-ring
// wait stepped round by round (warp=false) or warped (warp=true).
func BenchmarkPushFull(b *testing.B) {
	for _, warp := range []bool{false, true} {
		b.Run(fmt.Sprintf("warp=%v", warp), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pushFull(warp, 2000)
			}
		})
	}
}
