package main

// The benchmark's vocabulary: workloads, end-to-end metrics with their
// regression bounds, and per-layer metrics. BENCHMARK.json at the repo
// root mirrors these tables; main_test.go fails if the two drift.

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

var workloadDefs = []workloadDef{
	{"ingest", "write-dominated archive: puts then an explicit flush; codec, voxel, ldpc, nc and persist blobs do the work, the request path almost none"},
	{"durable_read", "restore from healthy glass: voxel read and single-sector decode do the work; persist, flush and nc do none (bypass for write-path and NC changes)"},
	{"degraded_read", "restore with one information platter of the set failed: cross-platter nc reconstruct over gf256 plus 5x the sector decodes per sector returned"},
	{"cluster_small", "1 KiB put/get/delete through a 3-library router: HTTP, router, queues, keystore, staging, metadata; the codec does nothing (bypass for codec changes)"},
}

// End-to-end metrics. Every one is defined on every workload (the
// driver requires it): "op" is the workload's client operation — a Put
// from send until the flush that burned it returns on ingest, a Get on
// the read workloads, and one Put plus one Get plus one Delete on
// cluster_small. There is no end-to-end tail: the op's p90 was one until
// the driver's A/A check refused it. On durable_read 6-9 % of the Gets
// carry a within-track repair that triples their latency, so p90 sits on
// the edge of that mode and moved 26-30 % between identical runs, and the
// workloads are too small for a higher percentile to keep ten samples
// beyond it. It is reported per layer (client.op_p90_ms), and the tail's
// mass still moves goodput_mbps, which is the reciprocal of mean latency.
//
// The timing bounds are the widest the driver allows. On a calm host
// every timing repeats within 2-9 % (README, "A/A evidence"), but this
// host's floating-point throughput drops to 0.6x and 0.3x for seconds to
// minutes at a time, and a bound the benchmark cannot hold through such
// an episode would reject the benchmark itself.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"goodput_mbps", "MB/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"cpu_s_per_user_mb", "s/MB", "lower", 0.25},
	{"alloc_bytes_per_user_byte", "B/B", "lower", 0.10},
}

// Per-layer metrics, all from the traced run, none gated. The first
// block is the ladder (each layer's public functions timed alone on
// the workloads' input shapes); the second is counts and busy time read
// from the obs registries over the workload's measured phase.
var perLayer = []metricDef{
	{"gf256.muladd_mbps", "MB/s", "higher", 0},
	{"nc.encode_track_us", "us", "lower", 0},
	{"nc.reconstruct_set_us", "us", "lower", 0},
	{"ldpc.encode_sector_us", "us", "lower", 0},
	{"ldpc.decode_sector_us", "us", "lower", 0},
	{"ldpc.decode_sector_bp_us", "us", "lower", 0},
	{"voxel.write_sector_us", "us", "lower", 0},
	{"voxel.read_sector_us", "us", "lower", 0},
	{"voxel.read_fail_frac", "frac", "lower", 0},
	{"keystore.encrypt_us", "us", "lower", 0},
	{"keystore.decrypt_us", "us", "lower", 0},
	{"persist.append_sync_us", "us", "lower", 0},
	{"service.put_us", "us", "lower", 0},
	{"service.get_staged_us", "us", "lower", 0},
	{"service.get_durable_us", "us", "lower", 0},
	{"service.get_degraded_us", "us", "lower", 0},
	{"service.flush_s_per_user_mb", "s/MB", "lower", 0},
	{"gateway.inproc_put_us", "us", "lower", 0},
	{"gateway.inproc_get_us", "us", "lower", 0},
	{"gateway.http_put_us", "us", "lower", 0},
	{"gateway.http_get_us", "us", "lower", 0},
	{"gateway.http_null_us", "us", "lower", 0},
	{"gateway.put_during_flush_p50_ms", "ms", "lower", 0},
	{"cluster.inproc_put_us", "us", "lower", 0},
	{"cluster.inproc_get_us", "us", "lower", 0},
	{"cluster.http_put_us", "us", "lower", 0},
	{"cluster.http_get_us", "us", "lower", 0},
	{"cluster.http_delete_us", "us", "lower", 0},
	{"backend.twin_read_us", "us", "lower", 0},
	{"backend.twin_read_spread_frac", "frac", "lower", 0},
	{"reconcile.put_unexplained_frac", "frac", "lower", 0},
	{"reconcile.get_unexplained_frac", "frac", "lower", 0},
	{"reconcile.flush_unexplained_frac", "frac", "lower", 0},

	{"service.flush_batch_s", "s", "lower", 0},
	{"service.flush_encode_s", "s", "lower", 0},
	{"service.flush_burn_s", "s", "lower", 0},
	{"service.flush_verify_s", "s", "lower", 0},
	{"service.flush_publish_s", "s", "lower", 0},
	{"service.flush_verify_share", "frac", "lower", 0},
	{"codec.encode_sectors", "count", "lower", 0},
	{"codec.decode_sectors", "count", "lower", 0},
	{"codec.encode_busy_s", "s", "lower", 0},
	{"codec.decode_busy_s", "s", "lower", 0},
	{"codec.jobs", "count", "lower", 0},
	{"codec.token_misses", "count", "lower", 0},
	{"codec.busy_share_of_cpu", "frac", "higher", 0},
	{"service.decoded_sectors_per_info_sector", "count", "lower", 0},
	{"service.sector_repairs", "count", "lower", 0},
	{"service.set_recoveries", "count", "lower", 0},
	{"service.platters_written", "count", "lower", 0},
	{"service.redundancy_platters", "count", "lower", 0},
	{"service.stored_bytes_per_user_byte", "B/B", "lower", 0},
	{"gateway.queue_wait_put_us", "us", "lower", 0},
	{"gateway.queue_wait_get_us", "us", "lower", 0},
	{"gateway.request_put_us", "us", "lower", 0},
	{"gateway.request_get_us", "us", "lower", 0},
	{"persist.fsyncs_per_put", "count", "lower", 0},
	{"persist.fsync_mean_us", "us", "lower", 0},
	{"persist.wal_bytes_per_user_byte", "B/B", "lower", 0},
	{"persist.snapshots", "count", "lower", 0},
	{"persist.recovery_s", "s", "lower", 0},
	{"cluster.routed_per_op", "count", "lower", 0},
	{"cluster.fsyncs_per_put", "count", "lower", 0},
	{"client.put_p50_ms", "ms", "lower", 0},
	{"client.get_p50_ms", "ms", "lower", 0},
	{"client.delete_p50_ms", "ms", "lower", 0},
	{"client.put_p99_ms", "ms", "lower", 0},
	{"client.get_p99_ms", "ms", "lower", 0},
	{"client.delete_p99_ms", "ms", "lower", 0},
	{"client.max_ms", "ms", "lower", 0},
	{"client.op_p90_ms", "ms", "lower", 0},
	{"client.ops_per_s", "1/s", "higher", 0},
	{"client.goodput_all_rounds_mbps", "MB/s", "higher", 0},
	{"client.flush_s_per_user_mb", "s/MB", "lower", 0},
	{"trace.overhead_frac", "frac", "lower", 0},
}

// benchmarkJSON is BENCHMARK.json's shape.
type benchmarkJSON struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

// benchmarkFile is the BENCHMARK.json these tables define.
func benchmarkFile() benchmarkJSON {
	return benchmarkJSON{
		Command:    []string{"bash", "cmd/silica-bench/run.sh"},
		Paths:      []string{"cmd/silica-bench"},
		RunSeconds: referenceSeconds,
		Workloads:  workloadDefs,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}
