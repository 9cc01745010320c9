package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// metricDef names one reported metric. End-to-end metrics come from the
// untraced run (--trace 0); per-layer metrics from the traced run
// (--trace 1). BENCHMARK.json lists the same names in the same order.
type metricDef struct {
	name, unit string
	layer      bool
	better     string // "lower" or "higher"
}

var catalogue = []metricDef{
	// End to end: what a user of the checkpointing system sees.
	{"setup_s", "s", false, "lower"},
	{"ckpt_overhead_ratio", "ratio", false, "lower"},
	{"cpu_ms_per_iter", "ms", false, "lower"},
	{"ckpt_bytes_per_iter", "B", false, "lower"},
	{"max_rss_mb", "MB", false, "lower"},
	{"recover_cpu_ms_p50", "ms", false, "lower"},
	{"recover_parallel_cpu_ms_p50", "ms", false, "lower"},
	{"recover_parallel_speedup", "ratio", false, "higher"},

	// Per layer. First the end-to-end figures that cannot carry a bound:
	// the correctness ratios can be 0, and the recovery tail of a few-ms
	// restore swings with the host. The untraced run prints them too.
	{"restore_exact_ratio", "ratio", true, "higher"},
	{"failed_op_ratio", "ratio", true, "lower"},
	{"recover_cpu_ms_p90", "ms", true, "lower"},

	{"core.iter_ms_p50", "ms", true, "lower"},
	{"core.iter_ms_p95", "ms", true, "lower"},
	{"core.train_stall_ms_per_iter", "ms", true, "lower"},
	{"core.queue_wait_ms_p95", "ms", true, "lower"},
	{"core.blocked_puts_per_kiter", "count", true, "lower"},
	{"core.snapshot_ms_per_iter", "ms", true, "lower"},
	{"core.overlap_ratio", "ratio", true, "higher"},
	{"core.compute_ms_p50", "ms", true, "lower"},
	{"core.apply_ms_p50", "ms", true, "lower"},
	{"core.iter_per_s_wall", "1/s", true, "higher"},

	{"compress.compress_ms_p50", "ms", true, "lower"},
	{"compress.compress_ms_p95", "ms", true, "lower"},

	{"comm.allgather_ms_p50", "ms", true, "lower"},
	{"comm.allgather_ms_p95", "ms", true, "lower"},

	{"checkpoint.merge_ms_p50", "ms", true, "lower"},
	{"checkpoint.diff_write_ms_p50", "ms", true, "lower"},
	{"checkpoint.diff_write_ms_p95", "ms", true, "lower"},
	{"checkpoint.full_write_ms_p50", "ms", true, "lower"},
	{"checkpoint.full_write_ms_p95", "ms", true, "lower"},
	{"checkpoint.encode_self_ms_per_object", "ms", true, "lower"},
	{"checkpoint.diff_bytes_per_write", "B", true, "lower"},
	{"checkpoint.decode_ms_per_diff", "ms", true, "lower"},

	{"storage.objects_per_iter", "count", true, "lower"},
	{"storage.close_ms_p50", "ms", true, "lower"},
	{"storage.close_ms_p95", "ms", true, "lower"},
	{"storage.write_call_ms_p95", "ms", true, "lower"},
	{"storage.open_ms_p50", "ms", true, "lower"},
	{"storage.read_ms_per_mb", "ms/MB", true, "lower"},
	{"storage.list_ms_p50", "ms", true, "lower"},
	{"storage.deletes_per_kiter", "count", true, "lower"},
	{"storage.failed_ops", "count", true, "lower"},

	{"storaged.backing_commit_ms_p50", "ms", true, "lower"},
	{"storaged.backing_commit_ms_p95", "ms", true, "lower"},
	{"storaged.wire_ms_p50", "ms", true, "lower"},
	{"storaged.validate_reads_per_full", "count", true, "lower"},
	{"storaged.retries", "count", true, "lower"},
	{"storaged.quota_rejects", "count", true, "lower"},
	{"storaged.spilled_bytes_per_iter", "B", true, "lower"},
	{"storaged.evictions", "count", true, "lower"},

	{"recovery.scan_ms_p50", "ms", true, "lower"},
	{"recovery.load_full_ms_p50", "ms", true, "lower"},
	{"recovery.load_diff_ms_p50", "ms", true, "lower"},
	{"recovery.replay_ms_p50", "ms", true, "lower"},
	{"recovery.serial_wall_ms_p50", "ms", true, "lower"},
	{"recovery.parallel_wall_ms_p50", "ms", true, "lower"},
	{"recovery.max_abs_err", "abs", true, "lower"},

	{"parallel.dispatches_per_iter", "count", true, "lower"},
	{"runtime.alloc_bytes_per_iter", "B", true, "lower"},
	{"runtime.allocs_per_iter", "count", true, "lower"},
	{"runtime.gc_per_kiter", "count", true, "lower"},

	{"trace.overhead_ratio", "ratio", true, "lower"},
}

// value is one measured metric with the number of samples behind it.
type value struct {
	v float64
	n int
}

// report collects a run's metrics and its operation accounting.
type report struct {
	values    map[string]value
	attempted int
	failures  []string
}

func newReport() *report { return &report{values: map[string]value{}} }

// set records a metric; n is its sample count. A metric with no samples
// is left unset and printed as n/a.
func (r *report) set(name string, v float64, n int) {
	if n == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	r.values[name] = value{v, n}
}

// check counts one attempted operation and records it as failed when err
// is non-nil. It reports whether the operation succeeded.
func (r *report) check(what string, err error) bool {
	r.attempted++
	if err != nil {
		r.failures = append(r.failures, fmt.Sprintf("%s: %v", what, err))
		return false
	}
	return true
}

// write prints every metric with its unit and sample count, then, as the
// last line, the JSON result holding the run's metric set: the end-to-end
// metrics for an untraced run, the per-layer metrics for a traced one.
// Metrics a workload does not exercise are n/a in the table; in the JSON
// line a per-layer n/a reads 0, and an end-to-end one is an error.
func (r *report) write(w io.Writer, layer bool) error {
	r.set("failed_op_ratio", float64(len(r.failures))/float64(max(r.attempted, 1)), r.attempted)
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAILED %s\n", f)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]jsonMetric{}
	var missing []string
	for _, d := range catalogue {
		v, ok := r.values[d.name]
		if ok {
			fmt.Fprintf(w, "%-40s %14.6g %-6s n=%d\n", d.name, v.v, d.unit, v.n)
		} else {
			fmt.Fprintf(w, "%-40s %14s %-6s n=0\n", d.name, "n/a", d.unit)
		}
		if d.layer != layer {
			continue
		}
		if !ok && !layer {
			missing = append(missing, d.name)
		}
		out[d.name] = jsonMetric{Value: v.v, Unit: d.unit}
	}
	if len(missing) > 0 {
		return fmt.Errorf("end-to-end metrics without samples: %s", strings.Join(missing, ", "))
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{len(r.failures) == 0, max(r.attempted, 1), len(r.failures), out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
