//! `qcm-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Generates the workload's inputs from the seed, runs it for the given
//! time, checks every answer, and prints one JSON line last on stdout:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`
//! with the end-to-end metrics (`--trace 0`) or the per-layer ones
//! (`--trace 1`). `--scale tiny` shrinks the inputs (smoke test only);
//! `--data-dir` overrides where the inputs are written (default
//! `.bench_data/` under the working directory; removed afterwards).

use qcm_perf::{Options, Scale, Workload};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: qcm-perf --workload <mine_hardcore|mine_sparse|serve_mixed> \
                     --seed <n> --seconds <s> --trace <0|1> [--scale full|tiny] [--data-dir <dir>]";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::Full;
    let mut data_dir = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            "--scale" => {
                scale = match value {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(format!("--scale must be full or tiny, got {value:?}")),
                }
            }
            "--data-dir" => data_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    let seed = seed.ok_or("missing --seed")?;
    let data_dir = data_dir.unwrap_or_else(|| {
        PathBuf::from(".bench_data").join(format!(
            "{}-{seed}-{}",
            workload.name(),
            std::process::id()
        ))
    });
    Ok(Options {
        workload,
        seed,
        budget: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        scale,
        data_dir,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("qcm-perf: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = qcm_perf::run(&options);
    eprintln!(
        "qcm-perf: {} seed {} trace {}: {} operations, {} failed",
        options.workload.name(),
        options.seed,
        u8::from(options.trace),
        report.attempted,
        report.failed
    );
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
