package main

// metricDef names one reported metric. For a per-layer metric, Moves and
// On name the end-to-end metric it should move and the workload where it
// should move it.
type metricDef struct {
	Name, Unit string
	Moves, On  string
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Every workload reports every one of them; the rationale
// document says what each means on each workload.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s"},
	{Name: "throughput_rps", Unit: "req/s"},
	{Name: "latency_p50_ms", Unit: "ms"},
	{Name: "latency_p99_ms", Unit: "ms"},
	{Name: "success_rate", Unit: "ratio"},
	{Name: "slo_attainment", Unit: "ratio"},
	{Name: "alloc_bytes_per_req", Unit: "B"},
	{Name: "setup_heap_mb", Unit: "MB"},
	{Name: "sim_energy_mj_per_sample", Unit: "mJ"},
	{Name: "sim_latency_mean_ms", Unit: "ms"},
	{Name: "sim_samples_per_s", Unit: "samples/s"},
}

// nnModels are the models whose forward pass the traced run probes.
var nnModels = []string{"simple", "mnist-small", "mnist-cnn", "cifar-10"}

// perLayer are the metrics of single layers, measured in a traced run.
// A layer a workload does not exercise reports 0 there.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"server.handler_ms_p50", "ms", "latency_p50_ms", "http-real"},
		{"server.handler_ms_p99", "ms", "latency_p99_ms", "http-real"},
		{"server.transport_ms_p50", "ms", "latency_p50_ms", "http-real"},
		{"server.json_decode_ms_p50", "ms", "latency_p50_ms", "http-real"},
		{"server.body_bytes_mean", "B", "alloc_bytes_per_req", "http-real"},

		{"cluster.submit_us_p50", "us", "throughput_rps", "fleet-estimate"},
		{"cluster.submit_us_p99", "us", "latency_p99_ms", "fleet-estimate"},
		{"cluster.reroute_share", "ratio", "latency_p99_ms", "fleet-estimate"},
		{"cluster.node_imbalance", "ratio", "latency_p99_ms", "fleet-estimate"},
		{"cluster.route_failures", "count", "success_rate", "fleet-estimate"},

		{"pipeline.wait_us_p50", "us", "latency_p50_ms", "fleet-estimate"},
		{"pipeline.wait_us_p99", "us", "latency_p99_ms", "fleet-estimate"},
		{"pipeline.batch_wait_us_p50", "us", "latency_p50_ms", "http-real"},
		{"pipeline.requests_per_batch", "ratio", "throughput_rps", "fleet-estimate"},
		{"pipeline.flush_size_share", "ratio", "latency_p50_ms", "http-real"},
		{"pipeline.flush_window_share", "ratio", "latency_p50_ms", "http-real"},
		{"pipeline.flush_idle_share", "ratio", "latency_p50_ms", "http-real"},
		{"pipeline.shed_share", "ratio", "success_rate", "fleet-estimate"},
		{"pipeline.infeasible_share", "ratio", "success_rate", "http-real"},
		{"pipeline.expired_share", "ratio", "success_rate", "http-real"},

		{"scheduler.select_us_p50", "us", "throughput_rps", "virtual-replay"},
		{"scheduler.select_cached_us_p50", "us", "throughput_rps", "fleet-estimate"},
		{"scheduler.cache_hit_ratio", "ratio", "throughput_rps", "fleet-estimate"},
		{"scheduler.spill_share", "ratio", "sim_latency_mean_ms,sim_energy_mj_per_sample", "fleet-estimate"},
		{"mlsched.rank_us_p50", "us", "throughput_rps", "virtual-replay"},

		{"opencl.classify_ms_p50", "ms", "latency_p50_ms", "http-real"},
		{"opencl.estimate_us_p50", "us", "throughput_rps", "fleet-estimate,virtual-replay"},
		{"device.commands_per_batch", "count", "throughput_rps", "fleet-estimate"},
		{"device.batch_share.cpu", "ratio", "sim_energy_mj_per_sample", "all"},
		{"device.batch_share.igpu", "ratio", "sim_energy_mj_per_sample", "all"},
		{"device.batch_share.dgpu", "ratio", "sim_energy_mj_per_sample", "all"},
	}
	for _, m := range nnModels {
		defs = append(defs, metricDef{"nn.forward_ms_p50." + m, "ms", "latency_p50_ms", "http-real"})
	}
	for _, m := range nnModels {
		defs = append(defs, metricDef{"nn.gflops." + m, "GFLOP/s", "throughput_rps", "http-real"})
	}
	for _, m := range nnModels {
		defs = append(defs, metricDef{"nn.alloc_bytes_per_forward." + m, "B", "alloc_bytes_per_req", "http-real"})
	}
	return append(defs,
		metricDef{"setup.new_s", "s", "setup_s", "all"},
		metricDef{"setup.load_s", "s", "setup_s", "all"},
		metricDef{"setup.build_s", "s", "setup_s", "all"},
		metricDef{"trace.untraced_throughput_rps", "req/s", "throughput_rps", "all"},
		metricDef{"trace.traced_throughput_rps", "req/s", "throughput_rps", "all"},
		metricDef{"trace.overhead_share", "ratio", "throughput_rps", "all"},
	)
}()
