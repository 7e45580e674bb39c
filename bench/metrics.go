package main

// metricSpec is one row of BENCHMARK.json's end_to_end or per_layer
// list. bench_test.go checks the file against these tables.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the baseline median it may worsen by
}

// endToEnd is what a listener's app sees, named by role so that every
// workload reports every row: "op" is the workload's own operation — a
// plan request on warm_plan and cold_plan, an acked write on acked_write,
// a dislike→new-plan session on skip_replan.
//
// There is no op_p50_ms row. The clients are a closed loop, so ops_per_s
// is already clients / mean latency; and on skip_replan about half the
// re-plans are served warm (≈50 ms sessions) and half cold (≈75 ms), so
// the median session sits on the edge between two modes and reads either
// at random. Medians are printed per window and reported by the traced
// pass as client.*_p50_ms.
//
// The tail is p90 because it is the highest percentile with ten samples
// beyond it in one window (about a hundred operations, see
// workloadSpec.Window). p95 also sits on an edge of its own on cold_plan:
// about one cold plan in twenty overlaps a GC cycle, so p95 reads 20 ms or
// 27 ms depending on which side of one in twenty the window fell.
//
// op_p90_ms and ops_per_s are the best window's values, not the median
// window's: see bestWindow in run.go.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"op_p90_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"live_heap_mb", "MB", "lower", 0.10},
}

// perLayer is what the traced pass and the direct probes report, under
// the layer's name. They have no bound: they explain a move in an
// end-to-end number, they do not gate.
var perLayer = []metricSpec{
	{"client.plan_p50_ms", "ms", "lower", 0},
	{"client.plan_p99_ms", "ms", "lower", 0},
	{"client.acked_write_p50_ms", "ms", "lower", 0},
	{"client.acked_write_p99_ms", "ms", "lower", 0},
	{"client.skip_replan_p50_ms", "ms", "lower", 0},
	{"client.self_p50_us", "us", "lower", 0},
	{"router.handle_p50_us", "us", "lower", 0},
	{"router.self_p50_us", "us", "lower", 0},
	{"router.ack_barrier_share", "share", "lower", 0},
	{"router.non2xx", "count", "lower", 0},
	{"httpapi.handle_p50_us", "us", "lower", 0},
	{"httpapi.codec_p50_us", "us", "lower", 0},
	{"httpapi.non2xx", "count", "lower", 0},
	{"system.plan_warm_p50_us", "us", "lower", 0},
	{"system.plan_cold_p50_ms", "ms", "lower", 0},
	{"system.add_feedback_p50_us", "us", "lower", 0},
	{"system.record_fix_p50_us", "us", "lower", 0},
	{"pipeline.predict_p50_us", "us", "lower", 0},
	{"pipeline.gate_p50_us", "us", "lower", 0},
	{"pipeline.candidates_p50_us", "us", "lower", 0},
	{"pipeline.rank_p50_us", "us", "lower", 0},
	{"pipeline.allocate_p50_us", "us", "lower", 0},
	{"feedback.preferences_p50_us", "us", "lower", 0},
	{"feedback.append_p50_ns", "ns", "lower", 0},
	{"feedback.disliked_dropped_share", "share", "higher", 0},
	{"plancache.get_p50_ns", "ns", "lower", 0},
	{"plancache.put_p50_ns", "ns", "lower", 0},
	{"plancache.invalidate_user_p50_ns", "ns", "lower", 0},
	{"plancache.hit_share", "share", "higher", 0},
	{"durable.append_p50_us", "us", "lower", 0},
	{"durable.fsync_p50_us", "us", "lower", 0},
	{"durable.mean_commit_batch", "count", "higher", 0},
	{"durable.emit_errors", "count", "lower", 0},
	{"durable.recovery_events_per_s", "1/s", "higher", 0},
	{"replicate.ship_apply_p50_ms", "ms", "lower", 0},
	{"replicate.ack_wait_p50_ms", "ms", "lower", 0},
	{"replicate.ack_timeouts", "count", "lower", 0},
	{"precompute.rewarm_p50_ms", "ms", "lower", 0},
	{"precompute.warm_served_share", "share", "higher", 0},
	{"precompute.flash_rewarm_ms", "ms", "lower", 0},
	{"precompute.warm_batch_ms_per_plan", "ms", "lower", 0},
	{"precompute.jobs_dropped", "count", "lower", 0},
	{"tracking.compact_p50_ms", "ms", "lower", 0},
	{"content.ingest_p50_ms", "ms", "lower", 0},
	{"setup.world_s", "s", "lower", 0},
	{"setup.population_s", "s", "lower", 0},
	{"setup.catalog_s", "s", "lower", 0},
	{"setup.history_s", "s", "lower", 0},
	{"setup.cluster_s", "s", "lower", 0},
	{"setup.catchup_s", "s", "lower", 0},
	{"setup.prewarm_s", "s", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.unexplained_pct", "%", "lower", 0},
}

// metricValue is one reported number, as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect turns measured values into the reported map: every row of
// specs appears, a row nothing measured reads 0.
func collect(specs []metricSpec, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		out[s.Name] = metricValue{Value: values[s.Name], Unit: s.Unit}
	}
	return out
}
