//! Figures 1–3 (Criterion version): per-task time distributions on the
//! YouTube stand-in at benchmark scale.
//!
//! Criterion measures the end-to-end run; the distribution itself (the actual
//! content of the figures) is printed once to stderr so it can be captured
//! without affecting the timing samples.

use criterion::{criterion_group, criterion_main, Criterion};
use qcm_bench::runner::{run_dataset, RunOptions};
use qcm_bench::scaled;

fn bench_figures(c: &mut Criterion) {
    let spec = scaled::bench_scale(&qcm_gen::datasets::youtube());

    // One informational pass: print the per-root time skew (Figures 1–2) and
    // the time-vs-size pairs of the largest tasks (Figure 3).
    let run = run_dataset(&spec, &RunOptions::default());
    let totals = run.metrics.per_root_totals();
    if let (Some(slowest), Some(fastest)) = (totals.first(), totals.last()) {
        eprintln!(
            "[fig1/2] {} spawning vertices; slowest root {:?} took {:?}, fastest {:?} took {:?}",
            totals.len(),
            slowest.0,
            slowest.1,
            fastest.0,
            fastest.1
        );
    }
    let mut by_size = run.metrics.task_times.clone();
    by_size.sort_by_key(|r| std::cmp::Reverse(r.subgraph_size));
    for rec in by_size.iter().take(5) {
        eprintln!(
            "[fig3] subgraph |V|={} time={:?}",
            rec.subgraph_size, rec.elapsed
        );
    }

    let mut group = c.benchmark_group("figures_task_times");
    group.sample_size(10);
    group.bench_function("youtube_standin_full_run", |b| {
        b.iter(|| run_dataset(&spec, &RunOptions::default()))
    });
    group.finish();
}

criterion_group!(benches, bench_figures);
criterion_main!(benches);
