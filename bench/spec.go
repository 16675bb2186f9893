package main

// The benchmark's contract: the workloads it runs and the metrics it
// prints. BENCHMARK.json at the repository root repeats these names;
// TestBenchmarkJSONMatchesBinary keeps the two from drifting.

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadSpecs = []workloadSpec{
	{"http-json", "221 KB JSON row batches: service JSON decode dominates, core/wal/wire idle; an HTTP-decode change shows here only"},
	{"wire-stream", "binary 64-row frames over SiteConn: wire decode + core/matrix block kernels are the work; JSON and WAL bypassed"},
	{"sharded-query", "read-heavy on a 4-shard tracker: flush barrier, merge-on-query and response encode set query latency"},
	{"durable-tenancy", "48 hh/quantile trackers, WAL on, 12 resident, one op in 199 faults a session in: the only workload running wal, hibernate/fault-in, hh and quantile"},
}

// End-to-end metrics: what a client of distserve pays. Every workload
// reports all of them. failed ÷ attempted is the result line's own
// `failed`/`attempted` pair, not a metric: a metric may never be 0.
var endToEndSpecs = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"updates_per_s", "1/s", "higher", 0.25},
	{"ack_ms_p50", "ms", "lower", 0.25},
	{"query_ms_p50", "ms", "lower", 0.25},
	{"server_cpu_us_per_update", "us", "lower", 0.25},
	{"wire_bytes_per_update", "B", "lower", 0.01},
	{"msgs_per_update", "msgs", "lower", 0.05},
}

// Per-layer metrics, one group per module of the repository. A layer a
// workload does not run reports 0 (wal.* off durable-tenancy, hh.* and
// quantile.* on the matrix workloads, and so on).
var perLayerSpecs = []metricSpec{
	// distload: the generator itself.
	{"distload.ack_ms_p99", "ms", "lower", 0},
	{"distload.query_ms_p99", "ms", "lower", 0},
	{"distload.ops_attempted", "count", "higher", 0},
	{"distload.ops_failed", "count", "lower", 0},
	{"distload.client_cpu_share", "ratio", "lower", 0},
	{"distload.window_iqr_over_median", "ratio", "lower", 0},
	{"distload.host_load", "ratio", "lower", 0},
	{"distload.ref_kernel_ms", "ms", "lower", 0},
	// distserve: the process.
	{"distserve.peak_rss_mb", "MB", "lower", 0},
	{"distserve.start_ms", "ms", "lower", 0},
	// service.
	{"service.http_self_us_per_batch", "us", "lower", 0},
	{"service.json_decode_us_per_batch", "us", "lower", 0},
	{"service.ingest_self_us_per_batch", "us", "lower", 0},
	{"service.query_us", "us", "lower", 0},
	{"service.query_encode_us", "us", "lower", 0},
	{"service.checkpoint_ms", "ms", "lower", 0},
	{"service.faultin_ms_p50", "ms", "lower", 0},
	{"service.faults", "count", "lower", 0},
	{"service.evictions", "count", "lower", 0},
	{"service.fault_ratio", "ratio", "lower", 0},
	{"service.batches", "count", "higher", 0},
	{"service.rejected", "count", "lower", 0},
	// wire.
	{"wire.encode_ns_per_row", "ns", "lower", 0},
	{"wire.decode_ns_per_row", "ns", "lower", 0},
	{"wire.frames_in", "count", "lower", 0},
	{"wire.frames_out", "count", "lower", 0},
	{"wire.bytes_in", "B", "lower", 0},
	{"wire.bytes_out", "B", "lower", 0},
	{"wire.retransmits", "count", "lower", 0},
	{"wire.drain_ms_p50", "ms", "lower", 0},
	// wal.
	{"wal.append_us_per_batch", "us", "lower", 0},
	{"wal.commit_wait_us_per_batch", "us", "lower", 0},
	{"wal.appends", "count", "lower", 0},
	{"wal.flushes", "count", "lower", 0},
	{"wal.flushes_per_append", "ratio", "lower", 0},
	{"wal.bytes_per_payload_byte", "ratio", "lower", 0},
	{"wal.replay_ms", "ms", "lower", 0},
	{"wal.segments", "count", "lower", 0},
	// facade (repro.Session).
	{"facade.process_self_ns_per_update", "ns", "lower", 0},
	{"facade.snapshot_us", "us", "lower", 0},
	{"facade.savestate_ms", "ms", "lower", 0},
	{"facade.state_bytes", "B", "lower", 0},
	// core.
	{"core.process_ns_per_row", "ns", "lower", 0},
	{"core.shard_merge_us", "us", "lower", 0},
	{"core.up_msgs", "count", "lower", 0},
	{"core.down_msgs", "count", "lower", 0},
	{"core.cov_err_over_eps", "ratio", "lower", 0},
	// sketch / matrix.
	{"sketch.fd_append_ns_per_row", "ns", "lower", 0},
	{"matrix.addblock_ns_per_row", "ns", "lower", 0},
	{"matrix.eig_us", "us", "lower", 0},
	// hh / quantile.
	{"hh.process_ns_per_item", "ns", "lower", 0},
	{"hh.query_us", "us", "lower", 0},
	{"hh.err_over_eps", "ratio", "lower", 0},
	{"quantile.process_ns_per_item", "ns", "lower", 0},
	{"quantile.query_us", "us", "lower", 0},
	{"quantile.rank_err_over_eps", "ratio", "lower", 0},
	// The traced pass as a whole.
	{"trace.updates_per_s", "1/s", "higher", 0},
}

// metricSet is one run's measured values by metric name.
type metricSet map[string]float64
