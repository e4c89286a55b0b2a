package main

import "fmt"

// perLayer computes the per-layer metrics: counters from the timed pass
// (the servers' /v1/stats and the process's MemStats), times from the
// traced pass's spans. Each base says what a number was computed over.
func perLayer(res *result, b *bench, timed, tp *pass, t *tracedRun) {
	n := plans(timed.calls)
	served := n + len(timed.setupCalls)
	st := timed.stats
	tr := t.tr
	hits, enc := tr.named("cloud.hit"), tr.named("cloud.encode")
	res.add("cloud.hit_ms", "ms", median(hits), fmt.Sprintf("p50 of %d repeated, cached requests", len(hits)))
	res.add("cloud.miss_self_ms", "ms", median(t.missSelf),
		fmt.Sprintf("p50 of %d missed calls: round trip minus replayed queue+dp (batch: over its fan-out)", len(t.missSelf)))
	res.add("cloud.encode_ms", "ms", median(enc), fmt.Sprintf("p50 json.Marshal of %d returned bodies", len(enc)))
	res.add("cloud.response_kb", "KB", mean(t.respKB), fmt.Sprintf("mean of %d bodies", len(t.respKB)))
	res.add("cloud.cache_hit_ratio", "ratio", float64(st.CacheHits)/float64(n), fmt.Sprintf("%d hits of %d timed plans", st.CacheHits, n))
	solves := st.DPFullSolves + st.DPSegmentSolves
	res.add("cloud.reuse_factor", "ratio", ratio(float64(served), float64(solves)),
		fmt.Sprintf("%d plans served (set-up included) per %d full + %d segment solves", served, st.DPFullSolves, st.DPSegmentSolves))
	res.add("cloud.shed", "count", float64(st.Shed), fmt.Sprintf("over %d server(s)", timed.envs*max(1, b.w.nodes)))
	res.add("cloud.degraded", "count", float64(st.Degraded), fmt.Sprintf("over %d server(s)", timed.envs*max(1, b.w.nodes)))
	q := quality(timed, traceMinCalls)
	res.add("penalized_share", "share", q.penalized, fmt.Sprintf("of %d plans (first %d calls)", q.plans, traceMinCalls))
	res.add("degraded_share", "share", q.degraded, fmt.Sprintf("of %d plans (first %d calls)", q.plans, traceMinCalls))

	win := tr.named("queue.windows")
	res.add("queue.windows_us", "us", 1000*median(win), fmt.Sprintf("p50 of %d WindowsFunc sweeps over a route's signals", len(win)))

	solve, stitch := tr.named("dp.solve"), tr.named("dp.stitch")
	states, solveMs := sum(t.states), sum(solve)
	res.add("dp.solve_ms", "ms", median(solve), fmt.Sprintf("p50 of %d OptimizeCtx replays", len(solve)))
	res.add("dp.solve_states", "count", mean(t.states), fmt.Sprintf("mean StatesExpanded of %d solves", len(t.states)))
	res.add("dp.solve_mstates_per_s", "Mstates/s", ratio(states, solveMs)/1000, fmt.Sprintf("%.0f states in %.1f ms", states, solveMs))
	res.add("dp.stitch_ms", "ms", median(stitch), fmt.Sprintf("p50 of %d StitchCtx replays of the same requests", len(stitch)))
	res.add("dp.stitch_over_solve", "ratio", median(t.ratios), fmt.Sprintf("p50 per-request StitchCtx/OptimizeCtx over %d requests", len(t.ratios)))
	build := tr.named("dp.build")
	res.add("dp.build_ms", "ms", median(build), fmt.Sprintf("p50 BuildRouteTables of %d routes", len(build)))
	res.add("dp.segment_solves", "count", float64(t.solves), fmt.Sprintf("summed over %d routes", len(build)))
	res.add("dp.crossings", "count", float64(t.crossing), fmt.Sprintf("summed over %d routes", len(build)))
	exp, imp := tr.named("dp.export"), tr.named("dp.import")
	res.add("dp.export_ms", "ms", median(exp), fmt.Sprintf("p50 Export+gob of %d routes", len(exp)))
	res.add("dp.import_ms", "ms", median(imp), fmt.Sprintf("p50 gob+ImportRouteTables of %d payloads", len(imp)))
	res.add("dp.wire_kb", "KB", mean(t.wireKB), fmt.Sprintf("mean gob payload of %d routes", len(t.wireKB)))

	fetch := tr.named("cluster.table_fetch")
	cc := timed.clusterCounts
	res.add("cluster.table_fetch_ms", "ms", median(fetch), fmt.Sprintf("p50 GET /v1/tables against the owner, %d fetches (0 without tables)", len(fetch)))
	res.add("cluster.table_fetches", "count", float64(cc.fetches), fmt.Sprintf("peer fetches over %d epoch(s)", timed.envs))
	res.add("cluster.fetch_fail_ratio", "ratio", ratio(float64(cc.fetchFails), float64(cc.fetches+cc.fetchFails)),
		fmt.Sprintf("%d failed of %d", cc.fetchFails, cc.fetches+cc.fetchFails))
	res.add("cluster.hedged_fetches", "count", float64(cc.hedged), "")
	res.add("cluster.replicas_pushed", "count", float64(cc.pushed), "")
	res.add("cluster.forwards", "count", float64(cc.forwards), "")
	res.add("cluster.builds_per_route", "ratio", ratio(float64(st.DPSegmentSolves), float64(timed.envs*t.solves)),
		fmt.Sprintf("%d server segment solves over %d env(s) of %d", st.DPSegmentSolves, timed.envs, t.solves))

	res.add("process.alloc_kb_per_plan", "KB", ratio(float64(timed.allocBytes)/1024, float64(n)), fmt.Sprintf("TotalAlloc delta over %d timed plans", n))
	res.add("process.gc_cycles", "count", float64(timed.gcCycles), fmt.Sprintf("over %.2f s timed", timed.wall.Seconds()))
	timedRate := float64(n) / timed.wall.Seconds()
	tracedRate := float64(plans(tp.calls)) / tp.wall.Seconds()
	res.add("trace.plans_per_s_drop", "share", 1-tracedRate/timedRate,
		fmt.Sprintf("tracing overhead: %.1f plans/s timed vs %.1f traced", timedRate, tracedRate))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sum(vs []float64) float64 {
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s
}
