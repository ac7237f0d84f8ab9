package main

// metricDef is one metric as BENCHMARK.json registers it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists the untraced run's metrics: what a user of the engine
// sees. Every workload reports each of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "ops/s", "higher", 0.25},
	{"point_p50_us", "us", "lower", 0.25},
	{"point_p95_us", "us", "lower", 0.25},
	{"agg_p50_us", "us", "lower", 0.25},
	{"agg_p95_us", "us", "lower", 0.25},
	{"scan_p50_us", "us", "lower", 0.25},
	{"scan_p95_us", "us", "lower", 0.25},
	{"write_p50_us", "us", "lower", 0.25},
	{"write_p95_us", "us", "lower", 0.25},
	{"heap_bytes_per_row", "B", "lower", 0.1},
}

// rungs are the ladder's layers that replay the whole stream.
var rungs = []string{"table", "shard_1", "shard", "casper", "wal"}

// perLayer lists the traced run's metrics.
func perLayer() []metricDef {
	var out []metricDef
	for _, r := range rungs {
		for _, c := range classNames {
			out = append(out,
				metricDef{Name: r + "." + c + "_ns", Unit: "ns", Better: "lower"},
				metricDef{Name: r + "." + c + "_allocs", Unit: "allocs/op", Better: "lower"},
				metricDef{Name: r + "." + c + "_bytes", Unit: "B/op", Better: "lower"})
		}
	}
	for _, c := range classNames[:classWrite] {
		out = append(out, metricDef{Name: "replica." + c + "_ns", Unit: "ns", Better: "lower"})
	}
	return append(out,
		metricDef{"table.partitions", "count", "higher", 0},
		metricDef{"table.ghost_slots", "count", "higher", 0},
		metricDef{"solver.train_s", "s", "lower", 0},
		metricDef{"shard.load_s", "s", "lower", 0},
		metricDef{"shard.scan_first_row_ns", "ns", "lower", 0},
		metricDef{"shard.stripe_retries", "count", "lower", 0},
		metricDef{"shard.fan_inline_frac", "ratio", "lower", 0},
		metricDef{"shard.cursor_batches", "count", "lower", 0},
		metricDef{"shard.compensation_hits", "count", "lower", 0},
		metricDef{"wal.checkpoint_ms", "ms", "lower", 0},
		metricDef{"wal.bytes_per_write", "B", "lower", 0},
		metricDef{"wal.fsyncs", "count", "lower", 0},
		metricDef{"wal.group_batch_p50", "count", "higher", 0},
		metricDef{"wal.recovery_s", "s", "lower", 0},
		metricDef{"wal.disk_bytes_per_row", "B", "lower", 0},
		metricDef{"replica.catchup_s", "s", "lower", 0},
		metricDef{"replica.records_applied", "count", "lower", 0},
		metricDef{"replica.apply_per_s", "1/s", "higher", 0},
		metricDef{"txn.commit_ns", "ns", "lower", 0},
		metricDef{"trace.overhead_frac", "ratio", "lower", 0},
	)
}
