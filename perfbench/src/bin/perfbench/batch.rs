//! The batch workload `tsv_batch`: `certchain_cli::analyze::analyze_opts`
//! — the function `certchain analyze` runs — called in-process in a
//! closed loop over Zeek TSV.

use crate::dataset::Dataset;
use crate::util::{corrupt, median, ms, quantile};
use crate::{peak_during, Config, Outcome};
use certchain_cli::analyze::{analyze_opts, AnalyzeOptions};
use certchain_cli::dataset::DatasetFormat;
use std::time::{Duration, Instant};

/// Warm-up calls timed for `setup_s`; their median is reported.
const SETUP_REPEATS: usize = 3;

const MB: f64 = 1024.0 * 1024.0;

fn analyze(ds: &Dataset, opts: &AnalyzeOptions) -> Result<String, String> {
    analyze_opts(&ds.dir, opts).map_err(|e| format!("analyze: {e}"))
}

/// The `--format tsv --threads 1` twin of `opts`: the reference output.
fn reference(ds: &Dataset, cfg: &Config, opts: &AnalyzeOptions) -> Result<String, String> {
    let mut text = analyze(
        ds,
        &AnalyzeOptions {
            threads: 1,
            format: Some(DatasetFormat::Tsv),
            ..opts.clone()
        },
    )?;
    if cfg.corrupt_reference {
        corrupt(&mut text);
    }
    Ok(text)
}

/// `tsv_batch`: the dataset as Zeek TSV only, analyzed at the default
/// thread count in a closed loop. Each report must equal its threads=1
/// twin byte for byte.
pub fn tsv_batch(cfg: &Config, ds: &Dataset) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let opts = AnalyzeOptions::default();
    let expected = reference(ds, cfg, &opts)?;

    let mut setup = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let report = analyze(ds, &opts)?;
        setup.push(start.elapsed().as_secs_f64());
        out.check(report == expected);
    }

    let mut latencies = Vec::new();
    let budget = Duration::from_secs_f64(cfg.seconds);
    let start = Instant::now();
    while latencies.is_empty() || start.elapsed() < budget {
        let t = Instant::now();
        let report = analyze(ds, &opts)?;
        latencies.push(ms(t.elapsed()));
        out.check(report == expected);
    }
    let wall = start.elapsed().as_secs_f64();
    // Heap is counted on one more, untimed call.
    let (report, peak) = peak_during(|| analyze(ds, &opts));
    out.check(report? == expected);

    out.metric("setup_s", median(&setup), "s");
    out.metric("op_p50_ms", median(&latencies), "ms");
    out.metric("op_tail_ms", quantile(&latencies, 0.9), "ms");
    out.metric(
        "work_per_s",
        (ds.ssl_rows * latencies.len() as u64) as f64 / wall,
        "1/s",
    );
    out.metric("peak_mem_mb", peak as f64 / MB, "MB");
    out.note("samples", latencies.len() as f64);
    Ok(out)
}
