package main

import (
	"testing"

	"nextgenmalloc/internal/harness"
	"nextgenmalloc/internal/region"
)

// TestSimLayerMetricsSumBeforeRatios checks that several runs' counts
// are summed before a ratio is taken, so a run's weight is its size.
func TestSimLayerMetricsSumBeforeRatios(t *testing.T) {
	run := func(instr, llc, meta, busy, wall uint64, servers int) harness.Result {
		r := harness.Result{
			Offload:    &harness.OffloadTelemetry{ServerBusyCycles: busy},
			Servers:    make([]harness.ServerTelemetry, servers),
			WallCycles: wall,
		}
		r.Total.Instructions = instr
		r.Total.LLCLoadMisses = llc
		r.Classes[region.Meta].LLCLoadMisses = meta
		r.Classes[region.Meta+1].LLCLoadMisses = llc - meta
		return r
	}
	m := simLayerMetrics([]harness.Result{
		run(1000, 10, 10, 50, 100, 1),
		run(9000, 90, 0, 300, 100, 4),
	})
	for name, want := range map[string]float64{
		"cache.llc_mpki":         10,          // 100 misses / 10 kinstr
		"cache.meta_llc_share":   0.1,         // 10 of 100 misses
		"core.server_busy_share": 350.0 / 500, // 1x100 + 4x100 server cycles
	} {
		if got := m[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}
