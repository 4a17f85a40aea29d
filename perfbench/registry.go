package main

// metricDef describes one reported metric.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression (0 for
	// per-layer metrics, which have none).
	bound float64
	// layer is the module the metric measures ("end-to-end" for
	// user-visible metrics).
	layer string
	// doc says how the metric is measured and, for a per-layer metric,
	// which end-to-end metric on which workload it should move.
	doc string
}

// endToEnd are the gated metrics of a --trace 0 run. Each is defined,
// and non-zero, on every workload. Host times are medians over the
// run's repetitions; simulated metrics repeat exactly for a seed.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25, "end-to-end",
		"host seconds for one repetition of the workload's cells (median over repetitions)"},
	{"ns_per_access", "ns", "lower", 0.25, "end-to-end",
		"wall_s per simulated load or store, summed over every worker and server core of every cell, warped rounds included"},
	{"setup_s", "s", "lower", 0.25, "end-to-end",
		"host seconds from each harness.RunE call to the end of worker 0's Workload.Setup, summed over cells (median over repetitions)"},
	{"peak_rss_mb", "MB", "lower", 0.25, "end-to-end",
		"peak resident set of the benchmark process over its untraced repetitions (getrusage maxrss, MiB)"},
	{"sim_cycles_per_op", "cycles", "lower", 0.15, "end-to-end",
		"NextGen cells: worker simulated cycles per malloc+free call made inside workload.Run"},
	{"sim_ops_per_kcycle", "ops/kcycle", "higher", 0.15, "end-to-end",
		"NextGen cells: malloc+free calls made inside workload.Run per thousand simulated wall cycles"},
	{"sim_p99_cycles", "cycles", "lower", 0.25, "end-to-end",
		"NextGen cells: p99 simulated cycles of a malloc made inside workload.Run, over all threads (alloc.malloc_cycles_p99); on service-failover it includes the mallocs that time out on the stalled shard"},
}

// reportOnly are end-to-end numbers printed by name but not gated: each
// is 0 or undefined on some workload, and the gate needs metrics that
// never read 0.
var reportOnly = []metricDef{
	{"error_rate", "ratio", "lower", 0, "end-to-end",
		"failed checks / checks attempted; abandoned service requests count as failed checks (0 at this commit; also the result line's failed/attempted)"},
	{"sim_worst_tenant_p99_cycles", "cycles", "lower", 0, "end-to-end",
		"service-failover only: the worst tenant's p99 end-to-end request latency (arrival to completion), a tenant's requests pooled over the runs; its quartiles spread by about a quarter of its median over ten seeds, so it is not gated"},
	{"sim_gain_pct", "%", "higher", 0, "end-to-end",
		"xalanc-table3 only: nextgen-prealloc's worker-cycle improvement over mimalloc (paper Table 3: 4.51%; the model is otherwise unvalidated)"},
}

// perLayer are the metrics of a --trace 1 run. Simulated counts come
// from an untraced run's harness.Result and describe the workload's
// NextGen cells; host-side numbers cover every cell.
var perLayer = []metricDef{
	{"sim.accesses", "count", "lower", 0, "sim", "simulated loads+stores over all cores; with host.self_share.{cache,tlb,mem,sim} it sets ns_per_access on every workload"},
	{"sim.instructions", "count", "lower", 0, "sim", "simulated instructions over all cores"},
	{"sim.warp_rounds", "count", "higher", 0, "sim", "wait-loop rounds the time warp skipped; should move wall_s on service-failover and xalanc-table3"},
	{"sim.warp_cycle_share", "ratio", "higher", 0, "sim", "warped cycles / cycles over all cores"},
	{"cache.l1_mpki", "1/kinstr", "lower", 0, "cache", "worker L1 misses per kilo-instruction; moves sim_cycles_per_op on xalanc-table3"},
	{"cache.llc_mpki", "1/kinstr", "lower", 0, "cache", "worker LLC load+store misses per kilo-instruction; moves sim_cycles_per_op and sim_gain_pct on xalanc-table3"},
	{"cache.meta_llc_share", "ratio", "lower", 0, "cache", "allocator-metadata share of worker LLC misses (paper Table 1); moves sim_gain_pct on xalanc-table3"},
	{"cache.invalidations_pki", "1/kinstr", "lower", 0, "cache", "worker coherence invalidations per kilo-instruction"},
	{"tlb.dtlb_mpki", "1/kinstr", "lower", 0, "tlb", "worker dTLB load+store misses per kilo-instruction; moves sim_cycles_per_op on xalanc-table3"},
	{"tlb.meta_dtlb_share", "ratio", "lower", 0, "tlb", "allocator-metadata share of worker dTLB misses; moves sim_gain_pct on xalanc-table3"},
	{"mem.kernel_cycle_share", "ratio", "lower", 0, "mem", "simulated kernel (syscall) cycles / worker cycles"},
	{"ring.pushes", "count", "lower", 0, "ring", "requests pushed on the malloc and free rings"},
	{"ring.full_retries_per_push", "ratio", "lower", 0, "ring", "push attempts that found the ring full, per push; moves wall_s on fleet-saturated, 0 on xalanc-table3"},
	{"ring.stall_cycle_share", "ratio", "lower", 0, "ring", "producer cycles spinning on a full ring / worker cycles; moves sim_ops_per_kcycle on fleet-saturated"},
	{"ring.push_batch_width", "count", "higher", 0, "ring", "pushes per tail publication"},
	{"core.server_busy_share", "ratio", "higher", 0, "core", "server busy cycles / (servers x simulated wall cycles); moves sim_ops_per_kcycle on fleet-saturated"},
	{"core.empty_poll_cycle_share", "ratio", "lower", 0, "core", "empty ring-poll cycles / (servers x simulated wall cycles); moves wall_s on service-failover and xalanc-table3"},
	{"core.max_client_gap_cycles", "cycles", "lower", 0, "core", "widest gap between two completions for one client (starvation)"},
	{"core.nacks", "count", "lower", 0, "core", "requests the servers rejected"},
	{"core.forwarded_mallocs", "count", "lower", 0, "core", "mallocs failed over to a healthy shard; > 0 only on service-failover; moves sim_p99_cycles there"},
	{"core.emergency_mallocs", "count", "lower", 0, "core", "mallocs served by the emergency tier; moves sim_p99_cycles on service-failover"},
	{"slo.violations", "count", "lower", 0, "slo", "requests over their class budget (service-failover; 0 elsewhere)"},
	{"slo.worst_window_violations", "count", "lower", 0, "slo", "violations in the worst tumbling window"},
	{"alloc.malloc_cycles_p50", "cycles", "lower", 0, "alloc", "median simulated cycles of a malloc inside workload.Run (traced run)"},
	{"alloc.malloc_cycles_p99", "cycles", "lower", 0, "alloc", "p99 simulated cycles of a malloc inside workload.Run; moves sim_p99_cycles on service-failover"},
	{"alloc.free_cycles_p99", "cycles", "lower", 0, "alloc", "p99 simulated cycles of a free inside workload.Run"},
	{"alloc.host_share", "ratio", "lower", 0, "alloc", "host time inside allocator calls / traced wall; exact on xalanc-table3, an upper bound elsewhere (a blocked call's interval covers other threads)"},
	{"alloc.host_ns_per_call", "ns", "lower", 0, "alloc", "host ns per allocator call (traced run; same caveat as alloc.host_share)"},
	{"workload.setup_host_s", "s", "lower", 0, "workload", "host seconds inside worker 0's Workload.Setup, summed over cells (traced run); part of setup_s"},
	{"workload.run_host_s", "s", "lower", 0, "workload", "host seconds from the first workload.run start to the last end, summed over cells (traced run)"},
	{"host.self_share.sim", "ratio", "lower", 0, "host", "CPU-profile share in package sim; moves ns_per_access on every workload"},
	{"host.self_share.cache", "ratio", "lower", 0, "host", "CPU-profile share in package cache; moves ns_per_access, most on xalanc-table3's mimalloc cell"},
	{"host.self_share.tlb", "ratio", "lower", 0, "host", "CPU-profile share in package tlb; moves ns_per_access"},
	{"host.self_share.mem", "ratio", "lower", 0, "host", "CPU-profile share in package mem; moves ns_per_access"},
	{"host.self_share.ring", "ratio", "lower", 0, "host", "CPU-profile share in package ring; moves wall_s on fleet-saturated, nothing on xalanc-table3"},
	{"host.self_share.core", "ratio", "lower", 0, "host", "CPU-profile share in package core; moves wall_s on service-failover and xalanc-table3"},
	{"host.self_share.allocators", "ratio", "lower", 0, "host", "CPU-profile share in the classic allocators"},
	{"host.self_share.workload", "ratio", "lower", 0, "host", "CPU-profile share in package workload"},
	{"host.self_share.slo", "ratio", "lower", 0, "host", "CPU-profile share in package slo"},
	{"host.self_share.fault", "ratio", "lower", 0, "host", "CPU-profile share in package fault"},
	{"host.self_share.runtime_coro", "ratio", "lower", 0, "host", "CPU-profile share switching simulated-thread coroutines"},
	{"host.self_share.runtime_gc", "ratio", "lower", 0, "host", "CPU-profile share in Go allocation and garbage collection; moves wall_s"},
	{"host.self_share.other", "ratio", "lower", 0, "host", "CPU-profile share elsewhere (harness, metrics, this benchmark, other runtime work)"},
	{"host.go_alloc_mb", "MB", "lower", 0, "host", "Go heap bytes allocated per untraced repetition (MiB); moves peak_rss_mb and wall_s through GC"},
	{"trace.overhead_pct", "%", "lower", 0, "trace", "traced wall / untraced wall - 1, in percent (medians)"},
}
