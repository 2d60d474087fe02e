//! Metric names and units, the result line, summary statistics and peak RSS.

use qcm_obs::json::{object, Json};
use std::time::Duration;

/// End-to-end metrics (`--trace 0`): name and unit. Every workload prints
/// all of them; `README.md` defines each one per workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("mine_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("job_p50_ms", "ms"),
    ("job_p99_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("graph_put_p50_ms", "ms"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A layer a workload does
/// not exercise reports 0 (e.g. `engine.*` on `serve_mixed`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.parse_s", "s"),
    ("graph.parse_mb_per_s", "MB/s"),
    ("graph.hash_s", "s"),
    ("graph.index_build_s", "s"),
    ("graph.index_bytes", "bytes"),
    ("graph.edge_queries", "count"),
    ("graph.intersections", "count"),
    ("graph.bitset_hit_ratio", "ratio"),
    ("core.mine_phase_self_s", "s"),
    ("core.maximality_s", "s"),
    ("qcm.postprocess_s", "s"),
    ("parallel.task_self_s", "s"),
    ("parallel.decompose_self_s", "s"),
    ("parallel.tasks_decomposed", "count"),
    ("engine.tasks_spawned", "count"),
    ("engine.tasks_processed", "count"),
    ("engine.pull_self_s", "s"),
    ("engine.remote_fetches", "count"),
    ("engine.remote_bytes", "bytes"),
    ("engine.vertex_cache_hit_ratio", "ratio"),
    ("engine.transport_messages", "count"),
    ("engine.stolen_tasks", "count"),
    ("engine.worker_busy_frac", "ratio"),
    ("engine.task_p99_ms", "ms"),
    ("engine.task_max_ms", "ms"),
    ("engine.steals", "count"),
    ("engine.steal_failures", "count"),
    ("engine.pop_contention", "count"),
    ("engine.mining_s", "s"),
    ("engine.materialization_s", "s"),
    ("engine.unattributed_s", "s"),
    ("engine.peak_task_bytes", "bytes"),
    ("engine.spill_bytes_written", "bytes"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.jobs_mined", "count"),
    ("service.mining_s", "s"),
    ("service.overhead_p50_ms", "ms"),
    ("service.rejected", "count"),
    ("http.post_job_p50_ms", "ms"),
    ("http.get_job_p50_ms", "ms"),
    ("http.parse_head_us", "us"),
    ("http.put_graph_p50_ms", "ms"),
    ("http.poll_useful_ratio", "ratio"),
    ("obs.trace_overhead_frac", "ratio"),
    ("obs.spans_dropped", "count"),
    ("obs.unattributed_frac", "ratio"),
    ("failed_frac", "ratio"),
];

/// The outcome of one run: operations attempted and failed, plus one value
/// per metric of the run's table ([`END_TO_END`] or [`PER_LAYER`]).
#[derive(Clone, Debug)]
pub struct Report {
    table: &'static [(&'static str, &'static str)],
    values: Vec<Option<f64>>,
    /// Operations attempted (mining jobs, HTTP jobs and graph PUTs).
    pub attempted: u64,
    /// Operations that failed, were shed, or returned a wrong answer.
    pub failed: u64,
}

impl Report {
    /// An empty report over the end-to-end or the per-layer table.
    pub fn new(trace: bool) -> Report {
        let table = if trace { PER_LAYER } else { END_TO_END };
        Report {
            table,
            values: vec![None; table.len()],
            attempted: 0,
            failed: 0,
        }
    }

    /// Sets metric `name`.
    ///
    /// # Panics
    /// When `name` is not in this report's table: a typo must not silently
    /// drop a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .table
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in this report's table"));
        // Non-finite values cannot be written as JSON numbers; an empty
        // ratio (0 of 0) reads as 0.
        self.values[slot] = Some(if value.is_finite() { value } else { 0.0 });
    }

    /// Counts one attempted operation, and a failure when `ok` is false.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds a batch of attempted / failed operations.
    pub fn add_counts(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// `failed / attempted`.
    pub fn failed_frac(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }

    /// The result line:
    /// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
    /// Metrics a workload did not measure are 0 (per-layer tables only).
    pub fn to_json(&self) -> String {
        let metrics = self
            .table
            .iter()
            .zip(&self.values)
            .map(|(&(name, unit), value)| {
                (
                    name,
                    object(vec![
                        ("value", Json::from(value.unwrap_or(0.0))),
                        ("unit", Json::from(unit)),
                    ]),
                )
            })
            .collect();
        object(vec![
            (
                "correct",
                Json::from(self.failed == 0 && self.attempted > 0),
            ),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", object(metrics)),
        ])
        .render()
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Linear-interpolation quantile (`q` in `[0, 1]`) of unsorted samples;
/// 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples; 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Median of durations, in seconds.
pub fn median_s(samples: impl IntoIterator<Item = Duration>) -> f64 {
    let secs: Vec<f64> = samples.into_iter().map(|d| d.as_secs_f64()).collect();
    median(&secs)
}

/// Starts a fresh peak-RSS window by resetting the kernel's `VmHWM` to the
/// current RSS. Best effort: where `/proc/self/clear_refs` is not writable
/// the peak covers the whole process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Hands the allocator's free pages back to the kernel, so that a peak-RSS
/// window opened next reflects the memory its own work needs rather than
/// what earlier work (input generation, reference answers, previous jobs)
/// left cached in the allocator. Called only between measured regions.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::ffi::c_int;
    }
    // SAFETY: glibc's `malloc_trim` takes no pointers, is thread-safe, and
    // only returns free heap memory to the kernel; live allocations are
    // untouched.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn release_free_heap() {}

/// Peak resident set size since the last [`reset_peak_rss`], in MiB.
pub fn peak_rss_mib() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status for VmHWM");
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .expect("/proc/self/status has a VmHWM line");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn report_prints_every_metric_of_its_table() {
        let mut report = Report::new(false);
        report.set("setup_s", 1.5);
        report.count(true);
        let line = report.to_json();
        let json = Json::parse(&line).unwrap();
        let metrics = json.get("metrics").unwrap();
        for (name, unit) in END_TO_END {
            let metric = metrics.get(name).unwrap();
            assert_eq!(metric.get("unit").and_then(Json::as_str), Some(*unit));
        }
        assert_eq!(json.get("correct").and_then(Json::as_bool), Some(true));
    }

    #[test]
    #[should_panic(expected = "not in this report's table")]
    fn unknown_metric_names_are_rejected() {
        Report::new(true).set("setup_s", 1.0);
    }
}
