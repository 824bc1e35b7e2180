package main

import (
	"math"
	"sort"
)

// metricDef is one reported metric. bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts as
// a regression; per-layer metrics carry none.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd is what a user of the warehouse pays. Bounds are read from
// `-calibrate 10` (README.md has the tables): three times the widest
// interquartile spread any workload showed in three ten-run sets, rounded up
// to 0.05, at least 0.05 (0.01 for the byte ratios) and at most 0.25, the
// largest bound the contract allows. On the 2-vCPU calibration box ten runs
// of the same code on the same seed differ by 3-20% between quartiles on
// every timing metric, so all of them sit at that cap; README.md says what
// was enlarged to get there and why 0.10 is out of reach. The byte ratios
// are exact for a given input; their spread is across seeds.
//
// failed_share is printed with the others but is not in BENCHMARK.json: it
// is 0 on every accepted run, a relative bound on 0 means nothing, and the
// result line already carries attempted and failed.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"apply_p50_ms", "ms", "lower", 0.25},
	{"apply_p95_ms", "ms", "lower", 0.25},
	{"refresh_p50_ms", "ms", "lower", 0.25},
	{"refresh_p95_ms", "ms", "lower", 0.25},
	{"checkpoint_s", "s", "lower", 0.25},
	{"recover_s", "s", "lower", 0.25},
	{"aux_bytes_per_detail_byte", "ratio", "lower", 0.01},
	{"wal_bytes_per_delta_byte", "ratio", "lower", 0.01},
	{"snapshot_bytes_per_detail_byte", "ratio", "lower", 0.01},
	{"heap_live_mb", "MB", "lower", 0.05},
	{"alloc_kb_per_op", "KB", "lower", 0.05},
}

// perLayer comes from the traced run: seam decorators, direct timed calls
// into each layer, and the warehouse's own registry.
var perLayer = []metricDef{
	{"wire.req_bytes_per_op", "B", "lower", 0},
	{"wire.resp_bytes_per_op", "B", "lower", 0},
	{"wire.encode_us_p50", "us", "lower", 0},
	{"wire.decode_us_p50", "us", "lower", 0},
	{"wire.ping_rtt_us_p50", "us", "lower", 0},
	{"wire.self_ms_p50", "ms", "lower", 0},
	{"wire.request_errors", "count", "lower", 0},

	{"warehouse.propagate_ms_p50", "ms", "lower", 0},
	{"warehouse.propagate_ms_p95", "ms", "lower", 0},
	{"warehouse.batch_size_mean", "count", "higher", 0},
	{"warehouse.query_direct_us_p50", "us", "lower", 0},
	{"warehouse.snapshot_rebuild_share", "share", "lower", 0},
	{"warehouse.query_locked", "count", "lower", 0},
	{"warehouse.snapshots_published_per_delta", "count", "lower", 0},

	{"maintain.apply_ms_p50", "ms", "lower", 0},
	{"maintain.apply_ms_p95", "ms", "lower", 0},
	{"maintain.apply_ms_p99", "ms", "lower", 0},
	{"maintain.stage.expand_share", "share", "lower", 0},
	{"maintain.stage.filter_share", "share", "lower", 0},
	{"maintain.stage.delta_detail_join_share", "share", "lower", 0},
	{"maintain.stage.scoped_recompute_share", "share", "lower", 0},
	{"maintain.stage.commit_share", "share", "lower", 0},
	{"maintain.stage.scoped_recompute_ms_p50", "ms", "lower", 0},
	{"maintain.memo_hit_share", "share", "higher", 0},
	{"maintain.rollbacks", "count", "lower", 0},

	{"wal.begin_us_p50", "us", "lower", 0},
	{"wal.commit_us_p50", "us", "lower", 0},
	{"wal.commit_us_p95", "us", "lower", 0},
	{"wal.fsyncs_per_delta", "count", "lower", 0},
	{"wal.groupcommit_batch_mean", "count", "higher", 0},
	{"wal.bytes_per_delta", "B", "lower", 0},
	{"wal.replay_s", "s", "lower", 0},
	{"wal.acked_lost", "count", "lower", 0},

	{"persist.save_s", "s", "lower", 0},
	{"persist.load_s", "s", "lower", 0},
	{"persist.snapshot_bytes", "B", "lower", 0},

	{"pager.get_us_p50", "us", "lower", 0},
	{"pager.put_us_p50", "us", "lower", 0},
	{"pager.gets_per_delta", "count", "lower", 0},
	{"pager.puts_per_delta", "count", "lower", 0},
	{"pager.hit_share", "share", "higher", 0},
	{"pager.evictions_per_delta", "count", "lower", 0},
	{"pager.flushes_per_delta", "count", "lower", 0},
	{"pager.spill_ratio", "ratio", "higher", 0},

	{"core.derive_ms", "ms", "lower", 0},
	{"core.aux_rows_per_detail_row", "ratio", "lower", 0},
	{"baseline.recompute_ms", "ms", "lower", 0},
	{"runtime.allocs_per_op", "count", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_ms_total", "ms", "lower", 0},

	{"trace.overhead_share", "share", "lower", 0},
	{"trace.unexplained_share", "share", "lower", 0},
}

// measurement is one metric's value with the samples behind it: the six
// per-segment values for segment medians, the repetitions for checkpoint,
// recovery and set-up.
type measurement struct {
	value   float64
	samples int
	parts   []float64
}

// quantile is the nearest-rank q-quantile of xs (which it sorts).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median is the midpoint median (the mean of the two middle values for an
// even count), which is what a median over six segments should be.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ofParts is the median of per-segment (or per-repetition) values.
func ofParts(parts []float64, samples int) measurement {
	return measurement{value: median(parts), samples: samples, parts: parts}
}

func scalar(v float64, samples int) measurement {
	return measurement{value: v, samples: samples}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func nsToFloat(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v)
	}
	return out
}
