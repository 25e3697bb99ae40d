//! Small shared helpers: order statistics, on-disk sizes, and the JSON
//! lines the run prints.

use crate::dataset::Dataset;
use crate::{Config, Outcome};
use std::path::Path;
use std::time::Duration;

/// Milliseconds in a duration, with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `q`-quantile of `values` by linear interpolation between closest
/// ranks. `0.0` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Total bytes of the regular files under `path` (recursive).
pub fn dir_bytes(path: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(path) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map(|m| m.len()).unwrap_or(0),
            _ => 0,
        })
        .sum()
}

/// A report with its trailing `loss accounting:` line removed — the part
/// that is byte-identical across formats and between `analyze` and the
/// daemon's `/report`.
pub fn tables_only(report: &str) -> &str {
    match report.rfind("loss accounting:") {
        Some(at) => &report[..at],
        None => report,
    }
}

/// Damage a reference output at its start (inside the tables, which every
/// comparison covers), so every comparison against it must fail
/// (`--corrupt-reference`).
pub fn corrupt(reference: &mut String) {
    reference.insert(0, '#');
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (which JSON cannot carry) become 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The last line of standard output: `correct`, `attempted`, `failed`
/// and every metric with its unit.
pub fn result_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

/// The run record: what ran, on what, over which inputs.
pub fn run_record(cfg: &Config, ds: &Dataset, out: &Outcome) -> String {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    format!(
        "{{\"perfbench_run\": {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"seconds\": {}, \
         \"nproc\": {nproc}, \"profile\": {}, \"ssl_rows\": {}, \"x509_rows\": {}, \
         \"tsv_bytes\": {}, \"rev\": {}, \"attempted\": {}, \"failed\": {}, \"notes\": {{{}}}}}}}",
        json_str(cfg.workload.name()),
        cfg.seed,
        cfg.trace,
        json_num(cfg.seconds),
        json_str(if cfg.smoke { "quick" } else { "default" }),
        ds.ssl_rows,
        ds.x509_rows,
        ds.tsv_bytes,
        json_str(&source_rev()),
        out.attempted,
        out.failed,
        out.notes
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_num(*v)))
            .collect::<Vec<_>>()
            .join(", "),
    )
}

/// The git revision when the checkout is a git work tree, and otherwise
/// (or additionally) an FNV-1a digest over the program's sources, so two
/// run records over different code never share a rev.
pub fn source_rev() -> String {
    let mut files = Vec::new();
    collect_sources(Path::new("crates"), &mut files);
    for top in ["Cargo.toml", "Cargo.lock"] {
        files.push(top.into());
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for b in f
            .to_string_lossy()
            .as_bytes()
            .iter()
            .chain(std::fs::read(f).unwrap_or_default().iter())
        {
            hash ^= u64::from(*b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    let digest = format!("src-{hash:016x}");
    match git_head() {
        Some(rev) => format!("{rev} {digest}"),
        None => digest,
    }
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.filter_map(Result::ok) {
        let path = e.path();
        match e.file_type() {
            Ok(t) if t.is_dir() => collect_sources(&path, out),
            Ok(t) if t.is_file() && path.extension().is_some_and(|x| x == "rs" || x == "toml") => {
                out.push(path)
            }
            _ => {}
        }
    }
}

/// `HEAD`'s commit id, read from `.git` without running git.
fn git_head() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}
