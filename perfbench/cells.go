package main

import (
	"fmt"
	"strings"

	"nextgenmalloc/internal/core"
	"nextgenmalloc/internal/fault"
	"nextgenmalloc/internal/harness"
	"nextgenmalloc/internal/sim"
	"nextgenmalloc/internal/slo"
	"nextgenmalloc/internal/workload"
)

// cell is one harness run of a workload. Every repetition builds fresh
// options (workload instances carry per-run state), so options is a
// constructor rather than a value.
type cell struct {
	// name labels the cell in output ("mimalloc", "nextgen-prealloc", ...).
	name string
	// offload marks the cells whose simulated metrics stand for the
	// workload (the NextGen arm; all 16 runs of service-failover).
	offload bool
	// params records the cell's inputs for provenance.
	params map[string]any
	// options builds the harness options for one run.
	options func() harness.Options
}

// benchWorkload is a fixed set of cells and the reason it was chosen.
type benchWorkload struct {
	name string
	why  string
	// cells builds the workload's cells for one seed.
	cells func(seed uint64) []cell
}

// Sizes of the three workloads. They keep every cell short (0.2 to
// 2 s on a 2-core x86 host), so a run of --seconds 40 takes the median
// over 7 to 26 repetitions.
const (
	// table3Size is the repository's quick-scale Table 3 input:
	// DefaultXalanc(40000) keeps 20000 node slots and runs 40000 ops.
	table3Size = 40000
	// fleetWorkers clients share one server shard, each running
	// fleetOpsPerWorker ops of the fleet sweep's per-worker transformer.
	fleetWorkers      = 64
	fleetOpsPerWorker = 150
	// serviceRuns service cells make up one repetition, each on its own
	// sub-seed, with serviceRequests arriving at each of its 4 workers.
	// Host cost depends on the seed: in about half of the runs two hot
	// pages collide in the simulator's per-thread translation cache, and
	// a run takes 5e3 or 5e5 to 2e6 translation misses. Spreading a
	// repetition's 4096 requests over 16 seeds averages that out.
	serviceRuns     = 16
	serviceRequests = 64
)

// workloads lists the benchmark's workloads in run order.
var workloads = []benchWorkload{
	{
		name:  "xalanc-table3",
		why:   "Quick-scale Table 3 xalanc on mimalloc vs nextgen-prealloc: per-access sim/tlb/cache/mem path and the allocators; ring never full; carries sim_gain_pct (paper 4.51%)",
		cells: table3Cells,
	},
	{
		name:  "fleet-saturated",
		why:   "64 xalanc workers (150 ops each) on 1 round-robin server shard: ring backpressure (full-ring retries), run-heap and coroutine switching dominate host time",
		cells: fleetCells,
	},
	{
		name:  "service-failover",
		why:   "16 seeds of a multi-tenant service on 4 shards, shard 1 stalled for good at 200k cycles, failover and SLO on: idle polling, fault, failover, slo paths",
		cells: serviceCells,
	},
}

// findWorkload returns the named workload.
func findWorkload(name string) (benchWorkload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// table3Xalanc is the Table 3 input (DefaultXalanc with ComputePerOp
// 360, ChaseEvery 3, ChaseClusters 16) at quick scale.
func table3Xalanc(seed uint64) *workload.Xalanc {
	w := workload.DefaultXalanc(table3Size)
	w.ComputePerOp = 360
	w.ChaseEvery = 3
	w.ChaseClusters = 16
	w.Seed = seed
	return w
}

func table3Cells(seed uint64) []cell {
	params := func(kind string) map[string]any {
		x := table3Xalanc(seed)
		return map[string]any{
			"allocator": kind, "workload": "xalanc", "ops": x.Ops, "node_slots": x.NodeSlots,
			"burst": x.Burst, "compute_per_op": x.ComputePerOp, "chase_every": x.ChaseEvery,
			"chase_clusters": x.ChaseClusters, "touch_bytes": x.TouchBytes, "seed": x.Seed,
			"machine": "sim.ScaledConfig",
		}
	}
	mk := func(kind string, offload bool) cell {
		return cell{
			name: kind, offload: offload, params: params(kind),
			options: func() harness.Options {
				return harness.Options{Allocator: kind, Workload: table3Xalanc(seed)}
			},
		}
	}
	return []cell{mk("mimalloc", false), mk("nextgen-prealloc", true)}
}

// fleetXalanc is the fleet sweep's per-worker transformer (table3
// allocation density, a small per-worker live set), with half the
// sweep's smallest per-worker transform so a repetition stays short.
func fleetXalanc(seed uint64) workload.Xalanc {
	return workload.Xalanc{
		Ops:           fleetOpsPerWorker,
		NodeSlots:     512,
		Burst:         16,
		ComputePerOp:  360,
		ChaseEvery:    3,
		ChaseClusters: 16,
		TouchBytes:    96,
		Seed:          seed,
	}
}

func fleetCells(seed uint64) []cell {
	proto := fleetXalanc(seed)
	return []cell{{
		name: "nextgen-w64-s1", offload: true,
		params: map[string]any{
			"allocator": "nextgen", "workload": "xalanc-x64", "workers": fleetWorkers, "servers": 1,
			"sched": core.RoundRobin.String(), "quantum": 4096, "ops_per_worker": proto.Ops,
			"node_slots": proto.NodeSlots, "burst": proto.Burst, "compute_per_op": proto.ComputePerOp,
			"chase_every": proto.ChaseEvery, "chase_clusters": proto.ChaseClusters,
			"touch_bytes": proto.TouchBytes, "seed": seed, "machine": "sim.ScaledConfig, 65 cores",
		},
		options: func() harness.Options {
			cfg := sim.ScaledConfig()
			cfg.Cores = fleetWorkers + 1
			cfg.Quantum = 4096
			return harness.Options{
				Allocator: "nextgen",
				Workload:  workload.NewParallelXalanc(fleetWorkers, proto),
				Machine:   &cfg,
				Servers:   1,
				Sched:     core.RoundRobin,
			}
		},
	}}
}

// serviceStall is a permanent single-shard kill: shard 1 stalls from
// cycle 200k for longer than the run lasts (Shard is +1 encoded).
func serviceStall(seed uint64) fault.Plan {
	return fault.Plan{Seed: seed, StallStart: 200000, StallCycles: 1 << 26, Shard: 2}
}

// serviceResilience is the failover sweep's policy with failover on.
func serviceResilience() *core.Resilience {
	return &core.Resilience{
		Enabled:         true,
		TimeoutCycles:   100000,
		MaxRetries:      2,
		BackoffCycles:   8000,
		FallbackAfter:   1,
		ProbeCycles:     100000,
		MaxRequestBytes: 1 << 24,
		FailoverAfter:   1,
	}
}

func serviceWorkload(seed uint64) *workload.Service {
	return &workload.Service{
		NWorkers:          4,
		RequestsPerWorker: serviceRequests,
		Tenants:           8,
		ChurnEvery:        4,
		MeanGapCycles:     60000,
		BurstLen:          4,
		Seed:              seed,
	}
}

// serviceCells are serviceRuns runs of the service, on sub-seeds
// seed*serviceRuns .. seed*serviceRuns+serviceRuns-1.
func serviceCells(seed uint64) []cell {
	var cells []cell
	for i := range uint64(serviceRuns) {
		cells = append(cells, serviceCell(seed*serviceRuns+i))
	}
	return cells
}

func serviceCell(seed uint64) cell {
	s, plan, res := serviceWorkload(seed), serviceStall(seed), serviceResilience()
	return cell{
		name: fmt.Sprintf("nextgen-4sh-failover-%d", seed), offload: true,
		params: map[string]any{
			"allocator": "nextgen", "workload": "service", "servers": 4,
			"workers": s.NWorkers, "requests_per_worker": s.RequestsPerWorker, "tenants": s.Tenants,
			"churn_every": s.ChurnEvery, "mean_gap_cycles": s.MeanGapCycles, "burst_len": s.BurstLen,
			"seed": seed, "fault_plan": plan.String(), "resilience": fmt.Sprintf("%+v", *res),
			"slo": "slo.DefaultOptions", "machine": "sim.ScaledConfig",
		},
		options: func() harness.Options {
			o := slo.DefaultOptions()
			return harness.Options{
				Allocator:  "nextgen",
				Workload:   serviceWorkload(seed),
				Servers:    4,
				FaultPlans: []fault.Plan{serviceStall(seed)},
				Resilience: serviceResilience(),
				SLO:        &o,
			}
		},
	}
}
