//! The repository benchmark: one command that runs a named workload
//! against the program built from this checkout, checks every output,
//! and prints its metrics as one JSON line.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --certchain <path to release certchain> [--build-dir <dir>]
//!           [--smoke] [--corrupt-reference]
//! ```
//!
//! `--trace 0` runs the workload's timed phase and prints the end-to-end
//! metrics; `--trace 1` runs the untimed layer-by-layer pass instead and
//! prints the per-layer metrics. `--smoke` swaps the default-profile
//! dataset for the quick profile (used by the crate's own test), and
//! `--corrupt-reference` damages every reference output so that the
//! correctness gate can be seen to fire.
//!
//! Everything the run writes lives in a per-run directory under
//! `<build-dir>/perfbench-tmp/`, removed on exit; the run record and the
//! span file of a traced pass go to `<build-dir>/perfbench-out/`.

mod batch;
mod daemon;
mod dataset;
mod layers;
mod serve;
mod util;

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering::Relaxed, Ordering::SeqCst};

/// Exact-count heap instrumentation, switched on only inside
/// [`peak_during`] so that timed calls never pay for it: net bytes
/// allocated since the window opened, and their high-water mark.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

// SAFETY: both methods delegate to the `System` allocator unchanged and
// only maintain atomic side counters, so `GlobalAlloc`'s contract is
// inherited from `System` wholesale.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: contract inherited from the trait; `layout` is forwarded
    // to `System.alloc` untouched.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same non-zero-size `layout` the caller provided under
        // `GlobalAlloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() && COUNTING.load(Relaxed) {
            let size = layout.size() as isize;
            PEAK.fetch_max(LIVE.fetch_add(size, Relaxed) + size, Relaxed);
        }
        p
    }

    // SAFETY: contract inherited from the trait; the `ptr`/`layout` pair
    // is forwarded to `System.dealloc` untouched.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from `alloc` with this
        // `layout`, and `alloc` always returns `System` pointers.
        unsafe { System.dealloc(ptr, layout) };
        if COUNTING.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as isize, Relaxed);
        }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Run `f` and return its result plus the peak heap growth (bytes above
/// the live heap at entry) observed while it ran. Threads `f` spawns
/// see the switch, since spawning orders it before them.
pub fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    COUNTING.store(true, SeqCst);
    let out = f();
    COUNTING.store(false, SeqCst);
    (out, PEAK.load(Relaxed).max(0) as usize)
}

/// The named workloads (see `BENCHMARK.json` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TsvBatch,
    ServeSpool,
    HttpSlowClients,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "tsv_batch" => Some(Workload::TsvBatch),
            "serve_spool" => Some(Workload::ServeSpool),
            "http_slow_clients" => Some(Workload::HttpSlowClients),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::TsvBatch => "tsv_batch",
            Workload::ServeSpool => "serve_spool",
            Workload::HttpSlowClients => "http_slow_clients",
        }
    }
}

/// One run's settings.
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub corrupt_reference: bool,
    pub certchain: PathBuf,
    pub build_dir: PathBuf,
    /// This run's scratch directory (removed on exit).
    pub work: PathBuf,
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload or the traced pass hands back.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Context for the run record only (sample counts, ratios behind a
    /// metric); never part of the result line.
    pub notes: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, name: &'static str, value: f64) {
        self.notes.push((name, value));
    }

    /// Count one checked operation; `ok == false` counts it as failed.
    pub fn check(&mut self, ok: bool) {
        self.tally(1, u64::from(!ok));
    }

    /// Count `attempted` checked operations of which `failed` failed.
    pub fn tally(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// Removes the run's scratch directory on every exit path, panics
/// included (daemons are reaped by their own guards first).
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut certchain = None;
    let mut build_dir = None;
    let mut smoke = false;
    let mut corrupt_reference = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(value()?.parse::<f64>().map_err(|e| e.to_string())?),
            "--trace" => trace = Some(value()? == "1"),
            "--certchain" => certchain = Some(PathBuf::from(value()?)),
            "--build-dir" => build_dir = Some(PathBuf::from(value()?)),
            "--smoke" => smoke = true,
            "--corrupt-reference" => corrupt_reference = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let build_dir = build_dir.unwrap_or_else(|| PathBuf::from(".bench_build"));
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let work = build_dir.join("perfbench-tmp").join(format!(
        "{}-{seed}-{}",
        workload.name(),
        std::process::id()
    ));
    Ok(Config {
        workload,
        seed,
        seconds: seconds.unwrap_or(10.0).max(0.5),
        trace: trace.unwrap_or(false),
        smoke,
        corrupt_reference,
        certchain: certchain.ok_or("--certchain is required")?,
        build_dir,
        work,
    })
}

fn run(cfg: &Config) -> Result<(Outcome, dataset::Dataset), String> {
    let ds = dataset::Dataset::generate(cfg)?;
    let out = if cfg.trace {
        layers::run(cfg, &ds)?
    } else {
        match cfg.workload {
            Workload::TsvBatch => batch::tsv_batch(cfg, &ds)?,
            Workload::ServeSpool => serve::serve_spool(cfg, &ds)?,
            Workload::HttpSlowClients => serve::http_slow_clients(cfg, &ds)?,
        }
    };
    Ok((out, ds))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !cfg.certchain.is_file() {
        eprintln!(
            "perfbench: no certchain binary at {}",
            cfg.certchain.display()
        );
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::create_dir_all(&cfg.work) {
        eprintln!("perfbench: creating {}: {e}", cfg.work.display());
        return ExitCode::from(2);
    }
    let result = {
        let _guard = WorkDir(cfg.work.clone());
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&cfg)))
    };
    let (outcome, ds) = match result {
        Ok(Ok(done)) => done,
        Ok(Err(e)) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
        Err(_) => {
            eprintln!("perfbench: the run panicked");
            return ExitCode::FAILURE;
        }
    };
    let record = util::run_record(&cfg, &ds, &outcome);
    let out_dir = cfg.build_dir.join("perfbench-out");
    let _ = std::fs::create_dir_all(&out_dir);
    let _ = std::fs::write(
        out_dir.join(format!(
            "run-{}-seed{}-trace{}.json",
            cfg.workload.name(),
            cfg.seed,
            u8::from(cfg.trace)
        )),
        format!("{record}\n"),
    );
    println!("{record}");
    println!("{}", util::result_line(&outcome));
    ExitCode::SUCCESS
}
