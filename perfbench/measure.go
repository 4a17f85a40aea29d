package main

import (
	"math"

	"nextgenmalloc/internal/harness"
)

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// offloadCells returns the indexes of the workload's NextGen cells.
func offloadCells(cells []cell) []int {
	var out []int
	for i, c := range cells {
		if c.offload {
			out = append(out, i)
		}
	}
	if len(out) == 0 {
		panic("perfbench: workload without a NextGen cell")
	}
	return out
}

// offloadResults returns the results of r's NextGen cells.
func offloadResults(cells []cell, r rep) []harness.Result {
	var out []harness.Result
	for _, i := range offloadCells(cells) {
		out = append(out, r.cells[i].res)
	}
	return out
}

// offloadSpans returns the allocator spans made inside workload.Run by
// the NextGen cells of a traced repetition.
func offloadSpans(cells []cell, r rep) []span {
	var out []span
	for _, i := range offloadCells(cells) {
		out = append(out, runSpans(r.cells[i].tr)...)
	}
	return out
}

// accesses counts simulated loads and stores over every core of a run.
func accesses(r harness.Result) uint64 {
	return r.Total.Loads + r.Total.Stores + r.Server.Loads + r.Server.Stores
}

// runSpans returns the traced allocator spans made inside workload.Run.
func runSpans(tr *tracer) []span {
	var out []span
	for _, s := range tr.spans {
		if (s.kind == spanMalloc || s.kind == spanFree) && s.parent >= 0 && tr.spans[s.parent].kind == spanRun {
			out = append(out, s)
		}
	}
	return out
}

// cycles returns the simulated durations of the spans of one kind.
func cycles(spans []span, kind uint8) []uint64 {
	var out []uint64
	for _, s := range spans {
		if s.kind == kind {
			out = append(out, s.simEnd-s.simStart)
		}
	}
	return out
}

// worstTenantP99 is the largest per-tenant p99 end-to-end request
// latency (arrival to completion), exact from the trackers' retained
// spans, a tenant's requests pooled over the runs.
func worstTenantP99(rs []harness.Result) uint64 {
	by := map[int][]uint64{}
	for _, r := range rs {
		if r.SLO == nil {
			continue
		}
		for _, s := range r.SLO.Spans() {
			by[s.Tenant] = append(by[s.Tenant], s.EndToEnd())
		}
	}
	var worst uint64
	for _, xs := range by {
		worst = max(worst, percentileU64(xs, 0.99))
	}
	return worst
}

// endToEndMetrics computes the gated metrics and the report-only ones.
// untraced holds the timed repetitions; traced is a traced repetition of
// the same cells; rssMB is the process's peak resident set.
func endToEndMetrics(cells []cell, untraced []rep, traced rep, rssMB float64) map[string]float64 {
	var walls, setups []float64
	for _, r := range untraced {
		walls = append(walls, r.wall.Seconds())
		setups = append(setups, r.setup.Seconds())
	}
	var acc uint64
	for _, cr := range untraced[0].cells {
		acc += accesses(cr.res)
	}
	off := offloadResults(cells, untraced[0])
	var workerCycles, wallCycles float64
	for _, r := range off {
		workerCycles += float64(r.Total.Cycles)
		wallCycles += float64(r.WallCycles)
	}
	spans := offloadSpans(cells, traced)
	calls := float64(len(spans))
	m := map[string]float64{
		"wall_s":             median(walls),
		"setup_s":            median(setups),
		"ns_per_access":      ratio(median(walls)*1e9, float64(acc)),
		"peak_rss_mb":        rssMB,
		"sim_cycles_per_op":  ratio(workerCycles, calls),
		"sim_ops_per_kcycle": ratio(calls*1000, wallCycles),
		"sim_p99_cycles":     float64(percentileU64(cycles(spans, spanMalloc), 0.99)),
	}
	if off[0].SLO != nil {
		m["sim_worst_tenant_p99_cycles"] = float64(worstTenantP99(off))
	}
	for i, c := range cells {
		if !c.offload && c.name == "mimalloc" {
			ref := float64(untraced[0].cells[i].res.Total.Cycles)
			m["sim_gain_pct"] = ratio(ref-workerCycles, ref) * 100
		}
	}
	return m
}

// simLayerMetrics computes the per-layer counts of untraced runs,
// summing each count over the runs before taking ratios.
func simLayerMetrics(rs []harness.Result) map[string]float64 {
	f := func(v uint64) float64 { return float64(v) }
	// sum holds the summed counters that Result's own helpers read.
	sum := harness.Result{Offload: &harness.OffloadTelemetry{}}
	var acc, warpRounds, warped, serverWall, gap, nacks uint64
	var forwarded, emergency, violations, worstWindow uint64
	for _, r := range rs {
		sum.Total.Add(r.Total)
		sum.Server.Add(r.Server)
		sum.Classes.Add(r.Classes)
		acc += accesses(r)
		warpRounds += r.Warp.Rounds
		warped += r.Warp.CyclesWarped
		if r.Offload != nil {
			sum.Offload.Add(*r.Offload)
			// Server time while the workers ran: a stalled shard's
			// loop keeps counting idle cycles until its stall ends.
			serverWall += uint64(len(r.Servers)) * r.WallCycles
		}
		for _, s := range r.Servers {
			nacks += s.Nacks
			for _, c := range s.Clients {
				gap = max(gap, c.MaxGapCycles)
			}
		}
		if r.Failover != nil {
			forwarded += r.Failover.Totals.ForwardedMallocs
		}
		if r.Resilience != nil {
			emergency += r.Resilience.Client.EmergencyMallocs
		}
		if r.SLO != nil {
			violations += r.SLO.Violations()
			if w, ok := r.SLO.WorstWindow(); ok {
				worstWindow = max(worstWindow, w.Violations)
			}
		}
	}
	tot, o := sum.Total, sum.Offload
	kins := f(tot.Instructions) / 1000
	llcMeta, dtlbMeta := sum.MetaShare()
	pushes := o.MallocRing.Pushes + o.FreeRing.Pushes
	return map[string]float64{
		"sim.accesses":                f(acc),
		"sim.instructions":            f(tot.Instructions + sum.Server.Instructions),
		"sim.warp_rounds":             f(warpRounds),
		"sim.warp_cycle_share":        ratio(f(warped), f(tot.Cycles+sum.Server.Cycles)),
		"cache.l1_mpki":               ratio(f(tot.L1Misses), kins),
		"cache.llc_mpki":              ratio(f(tot.LLCLoadMisses+tot.LLCStoreMisses), kins),
		"cache.meta_llc_share":        llcMeta,
		"cache.invalidations_pki":     ratio(f(tot.Invalidations), kins),
		"tlb.dtlb_mpki":               ratio(f(tot.DTLBLoadMisses+tot.DTLBStoreMisses), kins),
		"tlb.meta_dtlb_share":         dtlbMeta,
		"mem.kernel_cycle_share":      ratio(f(tot.KernelCycles), f(tot.Cycles)),
		"ring.pushes":                 f(pushes),
		"ring.full_retries_per_push":  ratio(f(o.MallocRing.FullRetries+o.FreeRing.FullRetries), f(pushes)),
		"ring.stall_cycle_share":      ratio(f(o.MallocRing.StallCycles+o.FreeRing.StallCycles), f(tot.Cycles)),
		"ring.push_batch_width":       ratio(f(pushes), f(o.MallocRing.PushBatches+o.FreeRing.PushBatches)),
		"core.server_busy_share":      ratio(f(o.ServerBusyCycles), f(serverWall)),
		"core.empty_poll_cycle_share": ratio(f(o.ServerEmptyPollCycles), f(serverWall)),
		"core.max_client_gap_cycles":  f(gap),
		"core.nacks":                  f(nacks),
		"core.forwarded_mallocs":      f(forwarded),
		"core.emergency_mallocs":      f(emergency),
		"slo.violations":              f(violations),
		"slo.worst_window_violations": f(worstWindow),
	}
}

// traceHostMetrics computes the host-side numbers of one traced
// repetition.
func traceHostMetrics(r rep) map[string]float64 {
	var allocNs, calls, setupNs, runNs float64
	for _, cr := range r.cells {
		first, last := int64(math.MaxInt64), int64(math.MinInt64)
		for _, s := range cr.tr.spans {
			d := float64(s.hostEnd - s.hostStart)
			switch s.kind {
			case spanMalloc, spanFree:
				allocNs += d
				calls++
			case spanSetup:
				setupNs += d
			case spanRun:
				first, last = min(first, s.hostStart), max(last, s.hostEnd)
			}
		}
		if last >= first {
			runNs += float64(last - first)
		}
	}
	return map[string]float64{
		"alloc.host_share":       ratio(allocNs, float64(r.wall.Nanoseconds())),
		"alloc.host_ns_per_call": ratio(allocNs, calls),
		"workload.setup_host_s":  setupNs / 1e9,
		"workload.run_host_s":    runNs / 1e9,
	}
}

// perLayerMetrics computes every per-layer metric from the run's
// untraced and traced repetitions and the profile's bucket counts.
func perLayerMetrics(cells []cell, untraced, traced []rep, buckets map[string]int64) map[string]float64 {
	m := simLayerMetrics(offloadResults(cells, untraced[0]))

	spans := offloadSpans(cells, traced[0])
	mc, fc := cycles(spans, spanMalloc), cycles(spans, spanFree)
	m["alloc.malloc_cycles_p50"] = float64(percentileU64(mc, 0.50))
	m["alloc.malloc_cycles_p99"] = float64(percentileU64(mc, 0.99))
	m["alloc.free_cycles_p99"] = float64(percentileU64(fc, 0.99))

	host := map[string][]float64{}
	var tw, uw, goAlloc []float64
	for _, r := range traced {
		for k, v := range r.host {
			host[k] = append(host[k], v)
		}
		tw = append(tw, r.wall.Seconds())
	}
	for k, vs := range host {
		m[k] = median(vs)
	}
	for _, r := range untraced {
		uw = append(uw, r.wall.Seconds())
		goAlloc = append(goAlloc, float64(r.goAlloc)/(1<<20))
	}
	m["host.go_alloc_mb"] = median(goAlloc)
	m["trace.overhead_pct"] = (ratio(median(tw), median(uw)) - 1) * 100

	var total int64
	for _, n := range buckets {
		total += n
	}
	for _, b := range profileBuckets {
		m["host.self_share."+b] = ratio(float64(buckets[b]), float64(total))
	}
	return m
}
