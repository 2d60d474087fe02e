//! Table 6 (Criterion version): job time as τ_time shrinks on the Hyves
//! stand-in, plus a one-shot print of the mining : materialisation time ratio
//! (the column the paper uses to argue that decomposition overhead is
//! negligible).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qcm_bench::runner::{run_dataset, RunOptions};
use qcm_bench::scaled;
use std::time::Duration;

fn bench_decomposition_cost(c: &mut Criterion) {
    let spec = scaled::bench_scale(&qcm_gen::datasets::hyves());

    // One informational pass outside the measurement loop: print the ratio
    // alongside the timing samples.
    for tau_time_ms in [50u64, 1, 0] {
        let options = RunOptions {
            tau_time: Some(Duration::from_millis(tau_time_ms)),
            ..Default::default()
        };
        let run = run_dataset(&spec, &options);
        eprintln!(
            "[table6] tau_time={tau_time_ms}ms job={:?} mining={:?} materialization={:?} ratio={}",
            run.elapsed,
            run.metrics.total_mining_time,
            run.metrics.total_materialization_time,
            run.metrics
                .mining_materialization_ratio()
                .map(|r| format!("{r:.1}"))
                .unwrap_or_else(|| "inf".to_string()),
        );
    }

    let mut group = c.benchmark_group("table6_decomposition_cost");
    group.sample_size(10);
    for tau_time_ms in [50u64, 10, 1, 0] {
        let options = RunOptions {
            tau_time: Some(Duration::from_millis(tau_time_ms)),
            ..Default::default()
        };
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("tau_time_{tau_time_ms}ms")),
            &options,
            |b, options| b.iter(|| run_dataset(&spec, options)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_decomposition_cost);
criterion_main!(benches);
