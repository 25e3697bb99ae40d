//! The serve workloads: the release `certchain serve` binary as a child
//! process, loaded from this process over loopback HTTP.
//!
//! - `serve_spool`: rotated `ssl`/`x509` pairs land in an empty spool on
//!   a fixed open-loop schedule while the same thread sends the GET mix
//!   and polls `/status` to see when each rotation is published.
//! - `http_slow_clients`: a daemon resumed from a checkpoint of the whole
//!   dataset over an idle spool; one thread sends the GET mix open-loop
//!   while a second connection keeps dribbling a request.

use crate::daemon::{dribble, get, Daemon, DaemonSpec, GET_MIX};
use crate::dataset::{write_rotations, Dataset, Rotation};
use crate::util::{corrupt, median, ms, quantile, tables_only};
use crate::{Config, Outcome};
use certchain_cli::analyze::{analyze_opts, AnalyzeOptions};
use certchain_cli::dataset::DatasetFormat;
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Daemon starts timed for `setup_s`; the median is reported and the
/// last daemon started serves the timed phase.
const SETUP_REPEATS: usize = 5;

/// Rotations replayed by `serve_spool` (and the traced replay): enough
/// that the p90 publish latency has more than ten samples beyond it.
pub const ROTATIONS: usize = 120;

/// Every daemon's `--interval-ms` and `--watchdog-cycles`. At 200 ms a
/// scan cycle batches about three rotations and the daemon stays below
/// saturation to the end of the replay, so publish latency reflects fold,
/// commit and publish cost rather than a backlog that swings with host
/// speed. `/healthz` reads "stalled" only after 8 s without a completed
/// cycle, far beyond any publish here, so a `503` would be a real stall.
pub const INTERVAL_MS: u64 = 200;
pub const WATCHDOG_CYCLES: u64 = 40;
/// `serve_spool`'s GET-mix rate beside the rotations.
const SPOOL_MIX_PER_S: f64 = 12.0;
/// How often `/status` is polled while a rotation is unpublished.
const STATUS_POLL: Duration = Duration::from_millis(5);

/// `http_slow_clients`: open-loop GET rate, the slow client's dribble
/// time per request and the period at which it starts one. The slow
/// client holds the single acceptor 60% of the time, so the median
/// request waits behind it too, not only the tail; that keeps the
/// median set by the stall rather than by sub-millisecond service times.
pub const HTTP_PER_S: f64 = 200.0;
const DRIBBLE: Duration = Duration::from_millis(300);
const DRIBBLE_PERIOD: Duration = Duration::from_millis(500);
/// A response slower than this (from its due time) is not "good".
const GOOD_LIMIT_MS: f64 = 50.0;

/// How long after the schedule ends rotations may still publish.
const PUBLISH_DEADLINE: Duration = Duration::from_secs(60);

/// The batch `analyze` report minus its loss-accounting line: what the
/// daemon's `/report` must equal over the same logs.
fn reference_tables(cfg: &Config, ds: &Dataset) -> Result<String, String> {
    let text = analyze_opts(
        &ds.dir,
        &AnalyzeOptions {
            threads: 1,
            format: Some(DatasetFormat::Tsv),
            ..AnalyzeOptions::default()
        },
    )
    .map_err(|e| format!("analyze: {e}"))?;
    let mut tables = tables_only(&text).to_string();
    if cfg.corrupt_reference {
        corrupt(&mut tables);
    }
    Ok(tables)
}

/// Start the daemon [`SETUP_REPEATS`] times (start `i` over checkpoint
/// directory `checkpoint(i)`), keep the last one running, and return it
/// with the median start-up time.
fn start_daemons(
    cfg: &Config,
    ds: &Dataset,
    spool: &Path,
    checkpoint: impl Fn(usize) -> Result<std::path::PathBuf, String>,
) -> Result<(Daemon, f64), String> {
    let mut setup = Vec::new();
    let mut last = None;
    for i in 0..SETUP_REPEATS {
        drop(last.take());
        let ckpt = checkpoint(i)?;
        let (daemon, secs) = Daemon::start(
            &DaemonSpec {
                certchain: &cfg.certchain,
                dataset: &ds.dir,
                spool,
                checkpoint: &ckpt,
                interval_ms: INTERVAL_MS,
                watchdog_cycles: WATCHDOG_CYCLES,
                scratch: &cfg.work,
            },
            &i.to_string(),
        )?;
        setup.push(secs);
        last = Some(daemon);
    }
    let daemon = last.ok_or("no daemon started")?;
    Ok((daemon, median(&setup)))
}

fn mkdir(path: &Path) -> Result<(), String> {
    std::fs::create_dir_all(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Land one rotation the way Zeek rotates: hard-link each staged file
/// into an inbox beside the spool, then rename it into the spool.
fn land(stage: &Path, inbox: &Path, spool: &Path, r: &Rotation) -> Result<(), String> {
    for name in [&r.x509, &r.ssl] {
        std::fs::hard_link(stage.join(name), inbox.join(name))
            .and_then(|()| std::fs::rename(inbox.join(name), spool.join(name)))
            .map_err(|e| format!("landing {name}: {e}"))?;
    }
    Ok(())
}

/// Sleep until `due` (no-op when it has passed); returns how late the
/// caller now runs, in milliseconds.
fn wait_until(due: Instant) -> f64 {
    if let Some(d) = due.checked_duration_since(Instant::now()) {
        std::thread::sleep(d);
    }
    ms(Instant::now().saturating_duration_since(due))
}

/// `serve_spool`: see the module doc. Reports publish latency (rotation
/// due → first `/status` listing both of its files).
pub fn serve_spool(cfg: &Config, ds: &Dataset) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let rotations_n = if cfg.smoke { 12 } else { ROTATIONS };
    let stage = cfg.work.join("stage");
    let inbox = cfg.work.join("inbox");
    let spool = cfg.work.join("spool");
    for d in [&inbox, &spool] {
        mkdir(d)?;
    }
    let rotations = write_rotations(ds, &stage, rotations_n)?;
    let expected = reference_tables(cfg, ds)?;

    let ckpt_of = |i: usize| Ok(cfg.work.join(format!("checkpoint-{i}")));
    let (daemon, setup_s) = start_daemons(cfg, ds, &spool, ckpt_of)?;

    let period = Duration::from_secs_f64(cfg.seconds / rotations.len() as f64);
    let mix_gap = Duration::from_secs_f64(1.0 / SPOOL_MIX_PER_S);
    let run = Duration::from_secs_f64(cfg.seconds);
    let t0 = Instant::now() + Duration::from_millis(20);
    let mut next_rot = 0usize;
    let mut next_mix = 0u32;
    let mut pending: Vec<usize> = Vec::new();
    let mut published: Vec<Option<f64>> = vec![None; rotations.len()];
    let mut last_poll = t0;
    let mut last_visible = t0;
    enum Event {
        Rotation,
        Mix,
        Poll,
    }
    loop {
        let rot_due = (next_rot < rotations.len()).then(|| t0 + period * next_rot as u32);
        let mix_due = Some(t0 + mix_gap * next_mix).filter(|d| *d < t0 + run);
        let poll_due = (!pending.is_empty()).then(|| last_poll + STATUS_POLL);
        let Some((due, event)) = [
            rot_due.map(|d| (d, Event::Rotation)),
            mix_due.map(|d| (d, Event::Mix)),
            poll_due.map(|d| (d, Event::Poll)),
        ]
        .into_iter()
        .flatten()
        .min_by_key(|(d, _)| *d) else {
            break;
        };
        if Instant::now() > t0 + run + PUBLISH_DEADLINE {
            break;
        }
        wait_until(due);
        match event {
            Event::Rotation => {
                out.check(land(&stage, &inbox, &spool, &rotations[next_rot]).is_ok());
                pending.push(next_rot);
                next_rot += 1;
            }
            Event::Mix => {
                let path = GET_MIX[next_mix as usize % GET_MIX.len()];
                out.check(matches!(get(daemon.addr, path), Ok(r) if r.status == 200));
                next_mix += 1;
            }
            Event::Poll => {
                last_poll = Instant::now();
                let resp = get(daemon.addr, "/status");
                let seen = Instant::now();
                let body = match resp {
                    Ok(r) if r.status == 200 => r.body,
                    _ => {
                        out.check(false);
                        continue;
                    }
                };
                pending.retain(|&k| {
                    let r = &rotations[k];
                    let visible = body.contains(&format!("\"{}\"", r.ssl))
                        && body.contains(&format!("\"{}\"", r.x509));
                    if visible {
                        let rot_due = t0 + period * k as u32;
                        published[k] = Some(ms(seen.saturating_duration_since(rot_due)));
                        last_visible = seen;
                    }
                    !visible
                });
            }
        }
    }
    let latencies: Vec<f64> = published.iter().flatten().copied().collect();
    for p in &published {
        out.check(p.is_some());
    }
    let report = get(daemon.addr, "/report");
    out.check(matches!(&report, Ok(r) if r.status == 200 && r.body == expected));
    let rss = daemon.peak_rss_mb()?;
    drop(daemon);

    out.metric("setup_s", setup_s, "s");
    out.metric("op_p50_ms", median(&latencies), "ms");
    out.metric("op_tail_ms", quantile(&latencies, 0.9), "ms");
    let span = last_visible.saturating_duration_since(t0).as_secs_f64();
    out.metric("work_per_s", ds.ssl_rows as f64 / span.max(1e-3), "1/s");
    out.metric("peak_mem_mb", rss, "MB");
    out.note("samples", latencies.len() as f64);
    Ok(out)
}

/// Build a checkpoint of the whole dataset with `certchain serve
/// --drain` over a spool of its rotations; checks the drain's report.
fn drain_checkpoint(
    cfg: &Config,
    ds: &Dataset,
    checkpoint: &Path,
    expected: &str,
    out: &mut Outcome,
) -> Result<(), String> {
    let spool = cfg.work.join("drain-spool");
    write_rotations(ds, &spool, 12)?;
    let drained = Command::new(&cfg.certchain)
        .arg("serve")
        .arg("--dir")
        .arg(&ds.dir)
        .arg("--spool")
        .arg(&spool)
        .arg("--checkpoint")
        .arg(checkpoint)
        .arg("--drain")
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .map_err(|e| format!("serve --drain: {e}"))?;
    if !drained.status.success() {
        return Err(format!("serve --drain failed: {}", drained.status));
    }
    out.check(String::from_utf8_lossy(&drained.stdout) == expected);
    Ok(())
}

/// What one open-loop GET-mix pass measured.
#[derive(Default)]
pub struct MixResult {
    /// Per-request latency from its due time, in ms.
    pub latencies: Vec<f64>,
    /// How late the generator started each request, in ms.
    pub late: Vec<f64>,
    /// Requests answered `200` within [`GOOD_LIMIT_MS`].
    pub good: u64,
    /// Requests not answered `200` (errors included).
    pub bad: u64,
    /// Slow-client requests sent, and those not answered `200`.
    pub dribbles: u64,
    pub dribbles_bad: u64,
}

/// Send the GET mix open-loop at `rate` per second for `seconds` from
/// one thread; with `slow_client`, a second thread keeps one connection
/// dribbling a request ([`DRIBBLE`] every [`DRIBBLE_PERIOD`]).
pub fn open_loop_mix(addr: SocketAddr, rate: f64, seconds: f64, slow_client: bool) -> MixResult {
    let run = Duration::from_secs_f64(seconds);
    let gap = Duration::from_secs_f64(1.0 / rate);
    let t0 = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|scope| {
        let dribbler = slow_client.then(|| {
            scope.spawn(move || {
                let (mut sent, mut bad) = (0u64, 0u64);
                for m in 0u32.. {
                    let due = t0 + DRIBBLE_PERIOD * m + DRIBBLE_PERIOD / 4;
                    if due + DRIBBLE > t0 + run {
                        break;
                    }
                    wait_until(due);
                    sent += 1;
                    if !matches!(dribble(addr, DRIBBLE), Ok(r) if r.status == 200) {
                        bad += 1;
                    }
                }
                (sent, bad)
            })
        });
        let mut res = MixResult::default();
        for j in 0u32.. {
            let due = t0 + gap * j;
            if due >= t0 + run {
                break;
            }
            res.late.push(wait_until(due));
            let resp = get(addr, GET_MIX[j as usize % GET_MIX.len()]);
            let latency = ms(Instant::now().saturating_duration_since(due));
            res.latencies.push(latency);
            match resp {
                Ok(r) if r.status == 200 => {
                    if latency <= GOOD_LIMIT_MS {
                        res.good += 1;
                    }
                }
                _ => res.bad += 1,
            }
        }
        if let Some(h) = dribbler {
            let (sent, bad) = h.join().unwrap_or((1, 1));
            res.dribbles = sent;
            res.dribbles_bad = bad;
        }
        res
    })
}

/// `http_slow_clients`: see the module doc. Reports request latency from
/// each request's due time and the rate of good responses.
pub fn http_slow_clients(cfg: &Config, ds: &Dataset) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let expected = reference_tables(cfg, ds)?;
    let checkpoint = cfg.work.join("checkpoint");
    drain_checkpoint(cfg, ds, &checkpoint, &expected, &mut out)?;
    let idle = cfg.work.join("idle-spool");
    mkdir(&idle)?;
    let (daemon, setup_s) = start_daemons(cfg, ds, &idle, |_| Ok(checkpoint.clone()))?;

    let mix = open_loop_mix(daemon.addr, HTTP_PER_S, cfg.seconds, true);
    out.tally(
        mix.latencies.len() as u64 + mix.dribbles,
        mix.bad + mix.dribbles_bad,
    );
    let report = get(daemon.addr, "/report");
    out.check(matches!(&report, Ok(r) if r.status == 200 && r.body == expected));
    let rss = daemon.peak_rss_mb()?;
    drop(daemon);

    out.metric("setup_s", setup_s, "s");
    out.metric("op_p50_ms", median(&mix.latencies), "ms");
    out.metric("op_tail_ms", quantile(&mix.latencies, 0.99), "ms");
    out.metric("work_per_s", mix.good as f64 / cfg.seconds, "1/s");
    out.metric("peak_mem_mb", rss, "MB");
    out.note("samples", mix.latencies.len() as f64);
    out.note(
        "good_frac",
        mix.good as f64 / mix.latencies.len().max(1) as f64,
    );
    out.note("dribble_ms", DRIBBLE.as_secs_f64() * 1e3);
    out.note("dribbles", mix.dribbles as f64);
    Ok(out)
}
