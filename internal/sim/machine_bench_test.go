package sim

import (
	"fmt"
	"testing"
)

// BenchmarkMachineRun measures the scheduler itself — heap maintenance,
// lease hand-offs, and (for the idle topology) the time-warp fast path —
// on two topologies:
//
//   - busy: four threads doing wall-to-wall memory work, no wait loops.
//     Warp has nothing to skip here; this pins the scheduler's overhead
//     on compute-bound runs.
//   - idle: a producer computing in long chunks plus a waiter spinning
//     on a flag via WarpLoop. Nearly all of the waiter's simulated time
//     is an idle window bounded by the producer's lease — the shape the
//     cycle-skipping engine exists for; warp=true vs warp=false is the
//     before/after of the pr6 tentpole.
//   - wide68: 68 threads computing in short chunks with one store each,
//     the thread count of a 64-worker fleet plus servers. Leases are
//     short and the run heap is deep, so the run heap's sift and the
//     coroutine switches dominate.
func BenchmarkMachineRun(b *testing.B) {
	for _, topo := range []string{"busy", "idle", "wide68"} {
		for _, warp := range []bool{false, true} {
			b.Run(fmt.Sprintf("%s/warp=%v", topo, warp), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchRun(topo, warp)
				}
			})
		}
	}
}

func benchRun(topo string, warp bool) uint64 {
	cfg := DefaultConfig()
	cfg.Cores = 4
	if topo == "wide68" {
		cfg.Cores = 68
	}
	cfg.Warp = warp
	m := New(cfg)
	switch topo {
	case "busy":
		for c := 0; c < 4; c++ {
			base, _ := m.Kernel().Mmap(4)
			m.Spawn(fmt.Sprintf("busy%d", c), c, func(t *Thread) {
				for i := 0; i < 4000; i++ {
					t.Store64(base+uint64(i%512)*8, uint64(i))
					t.Load64(base + uint64((i+7)%512)*8)
				}
			})
		}
	case "idle":
		flag, _ := m.Kernel().Mmap(1)
		m.Spawn("producer", 0, func(t *Thread) {
			for i := 0; i < 80; i++ {
				t.Exec(5000)
			}
			t.AtomicStore64(flag, 1)
		})
		m.Spawn("waiter", 1, func(t *Thread) {
			t.WarpLoop(WaitSpec{
				Round: func() bool {
					if t.AtomicLoad64(flag) == 1 {
						return true
					}
					t.Pause(8)
					return false
				},
				Addrs: func() []uint64 { return []uint64{flag} },
			})
		})
	case "wide68":
		base, _ := m.Kernel().Mmap(2) // 68 private lines
		for c := 0; c < 68; c++ {
			word := base + uint64(c)*64
			m.Spawn(fmt.Sprintf("wide%d", c), c, func(t *Thread) {
				for i := 0; i < 3000; i++ {
					t.Exec(40 + c%7)
					t.Store64(word, uint64(i))
				}
			})
		}
	default:
		panic("unknown topology " + topo)
	}
	return m.Run()
}
