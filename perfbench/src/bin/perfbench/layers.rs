//! The traced pass (`--trace 1`): the program's public layer functions
//! called one at a time over the seeded dataset, each under a span the
//! benchmark records in memory (name, start, end, parent) and writes out
//! when the pass ends. The per-layer metrics are read off those spans and
//! off the program's own metrics registry counters, so the two agree.
//!
//! The pass is the same for every workload except for the HTTP probe,
//! which adds the slow client on `http_slow_clients`, and for the call
//! `bench.trace_overhead_pct` repeats: `analyze` over the TSV logs on
//! `tsv_batch` and `serve_spool` (which read TSV), over the store on
//! `http_slow_clients`.

use crate::daemon::{get, Daemon, DaemonSpec};
use crate::dataset::{part_start, pick_filters, rotation_name, Dataset};
use crate::serve::{open_loop_mix, HTTP_PER_S, INTERVAL_MS, ROTATIONS, WATCHDOG_CYCLES};
use crate::util::{dir_bytes, json_num, json_str, median, quantile};
use crate::{Config, Outcome, Workload};
use certchain_chainlab::{
    AnalysisSummary, CrossSignRegistry, Pipeline, PipelineOptions, PipelineState, RowFilter,
};
use certchain_cli::analyze::{analyze_opts, AnalyzeOptions};
use certchain_cli::convert::{convert_opts, ConvertOptions};
use certchain_cli::dataset::{
    colstore_dir, load_crosssign, load_ct_index, load_trust, DatasetFormat,
};
use certchain_colstore::{CategorySet, DatasetReader, MapMode, SegmentedColumn};
use certchain_obs::{MetricsSnapshot, Registry};
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The v2 segment codecs, in manifest order.
const CODECS: [&str; 5] = ["plain", "packed", "delta", "rle", "for"];

/// Paired bare/spanned calls behind `bench.trace_overhead_pct`.
const OVERHEAD_PAIRS: usize = 3;

struct SpanRec {
    name: String,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
}

/// In-memory span recorder. Spans nest: a span opened while another is
/// open is its child.
struct Tracer {
    t0: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span and return its id.
    fn open(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        self.spans.push(SpanRec {
            name: name.to_string(),
            start_us: self.now_us(),
            end_us: f64::NAN,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (and any span left open inside it); returns its
    /// duration in milliseconds.
    fn close(&mut self, id: usize) -> f64 {
        let now = self.now_us();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_us = now;
            if top == id {
                break;
            }
        }
        (now - self.spans[id].start_us) / 1e3
    }

    /// Run `f` under a span named `name`; returns its result and the
    /// span's duration in milliseconds.
    fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.open(name);
        let out = f();
        (out, self.close(id))
    }

    fn to_json(&self, cfg: &Config) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                format!(
                    "{{\"id\": {id}, \"name\": {}, \"start_us\": {}, \"end_us\": {}, \"parent\": {}}}",
                    json_str(&s.name),
                    json_num(s.start_us),
                    json_num(s.end_us),
                    s.parent.map_or("null".to_string(), |p| p.to_string())
                )
            })
            .collect();
        format!(
            "{{\"schema\": \"perfbench-trace/v1\", \"workload\": {}, \"seed\": {}, \"spans\": [\n{}\n]}}\n",
            json_str(cfg.workload.name()),
            cfg.seed,
            spans.join(",\n")
        )
    }
}

fn stage_ms(snap: &MetricsSnapshot, stage: &str) -> f64 {
    snap.stages.get(stage).map_or(0.0, |s| s.wall_ms)
}

fn counter(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}

fn summary(analysis: &certchain_chainlab::Analysis) -> String {
    AnalysisSummary::from_analysis(analysis).to_json()
}

/// Owned `Ok` records for a `fold_*_stream` call, copied before the call
/// so that the copy is not timed with it.
fn owned<T: Clone>(rows: &[T]) -> Vec<Result<T, Infallible>> {
    rows.iter().cloned().map(Ok).collect()
}

/// Bytes a checkpoint generation wrote itself: the files of the newest
/// `gen-*` directory that are not hard links carried from an older one.
fn newest_generation_bytes(root: &Path) -> u64 {
    use std::os::unix::fs::MetadataExt;
    let newest = std::fs::read_dir(root)
        .into_iter()
        .flatten()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .max();
    let Some(dir) = newest else { return 0 };
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .filter_map(Result::ok)
        .filter_map(|e| e.metadata().ok())
        .filter(|m| m.is_file() && m.nlink() == 1)
        .map(|m| m.len())
        .sum()
}

/// The columnar query cycle: unfiltered, then the rarest category, the
/// rarest SNI and the most common non-443 port of the seeded trace.
fn query_cycle(ds: &Dataset, store: &Path) -> Result<Vec<(&'static str, RowFilter)>, String> {
    let picks = pick_filters(ds, store)?;
    let mut categories = CategorySet::empty();
    categories.insert(picks.category);
    Ok(vec![
        ("all", RowFilter::default()),
        (
            "cat",
            RowFilter {
                categories: Some(categories),
                ..RowFilter::default()
            },
        ),
        (
            "sni",
            RowFilter {
                sni: Some(picks.sni),
                ..RowFilter::default()
            },
        ),
        (
            "port",
            RowFilter {
                port: Some(picks.port),
                ..RowFilter::default()
            },
        ),
    ])
}

/// Time every segment decode of `col`, adding milliseconds and payload
/// bytes per codec.
fn decode_column(
    col: &SegmentedColumn<'_>,
    ms: &mut BTreeMap<&'static str, f64>,
    bytes: &mut BTreeMap<&'static str, u64>,
) -> Result<(), String> {
    let mut scratch = Vec::new();
    for seg in 0..col.segments() {
        let meta = col.meta(seg);
        let start = Instant::now();
        col.decode_into(seg, &mut scratch)
            .map_err(|e| e.to_string())?;
        *ms.entry(meta.encoding.name()).or_default() += start.elapsed().as_secs_f64() * 1e3;
        *bytes.entry(meta.encoding.name()).or_default() += meta.bytes;
    }
    Ok(())
}

/// The traced pass; see the module doc.
pub fn run(cfg: &Config, ds: &Dataset) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut t = Tracer::new();
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let err = |e: certchain_cli::CliError| e.to_string();
    let pass = t.open("bench.traced_pass");

    // netsim.zeek: the TSV parse on its own, each record dropped as soon
    // as it is parsed (as the streaming analyze path does); the rows the
    // later folds take are collected in a separate, untimed pass.
    let (ssl_n, ssl_parse_ms) = t.time("netsim.zeek.ssl_parse", || ds.parse_ssl());
    let ssl_n = ssl_n?;
    let (x509_n, x509_parse_ms) = t.time("netsim.zeek.x509_parse", || ds.parse_x509());
    x509_n?;
    out.metric("netsim.zeek.ssl_parse_ms", ssl_parse_ms, "ms");
    out.metric("netsim.zeek.x509_parse_ms", x509_parse_ms, "ms");
    out.metric(
        "netsim.zeek.ssl_rows_per_s",
        ssl_n as f64 / (ssl_parse_ms / 1e3),
        "1/s",
    );
    let collect = t.open("bench.collect_rows");
    let ssl = ds.ssl_records()?;
    let x509 = ds.x509_records()?;
    t.close(collect);

    // cli.dataset: trust and CT material, loaded per analyze call.
    let (trust, load_trust_ms) = t.time("cli.dataset.load_trust", || load_trust(&ds.dir));
    let trust = trust.map_err(err)?;
    let (ct, load_ct_ms) = t.time("cli.dataset.load_ct", || load_ct_index(&ds.dir));
    let ct = ct.map_err(err)?;
    let (pairs, load_crosssign_ms) =
        t.time("cli.dataset.load_crosssign", || load_crosssign(&ds.dir));
    let crosssign = CrossSignRegistry::from_disclosures(&pairs.map_err(err)?);
    out.metric("cli.dataset.load_trust_ms", load_trust_ms, "ms");
    out.metric("cli.dataset.load_ct_ms", load_ct_ms, "ms");

    // chainlab over pre-parsed rows at threads=1, then at nproc.
    let pipeline = |threads: usize, filter: RowFilter, registry: Option<&Arc<Registry>>| {
        let p = Pipeline::with_options(
            &trust,
            &ct,
            crosssign.clone(),
            PipelineOptions {
                threads,
                filter,
                ..PipelineOptions::default()
            },
        );
        match registry {
            Some(r) => p.with_metrics(Arc::clone(r)),
            None => p,
        }
    };
    let registry = Arc::new(Registry::new());
    let p1 = pipeline(1, RowFilter::default(), Some(&registry));
    let mut state = PipelineState::new();
    let (x509_rows, ssl_rows) = (owned(&x509), owned(&ssl));
    let (_, enrich_ms) = t.time("chainlab.enrich", || {
        p1.fold_x509_stream(&mut state, x509_rows.into_iter())
    });
    let (_, ingest_t1_ms) = t.time("chainlab.ingest.t1", || {
        p1.fold_ssl_stream(&mut state, ssl_rows.into_iter())
    });
    let (analysis, finalize_state_ms) =
        t.time("chainlab.finalize_state", || p1.finalize_state(&state));
    let (expected, summary_json_ms) = t.time("chainlab.summary_json", || summary(&analysis));
    let snap = registry.snapshot();
    out.metric("chainlab.enrich_ms", enrich_ms, "ms");
    out.metric("chainlab.ingest_ms.t1", ingest_t1_ms, "ms");
    out.metric("chainlab.finalize_state_ms", finalize_state_ms, "ms");
    out.metric("chainlab.resolve_ms", stage_ms(&snap, "resolve"), "ms");
    out.metric(
        "chainlab.categorize_ms",
        stage_ms(&snap, "categorize"),
        "ms",
    );
    out.metric("chainlab.finalize_ms", stage_ms(&snap, "finalize"), "ms");
    out.metric("chainlab.summary_json_ms", summary_json_ms, "ms");

    let pn = pipeline(nproc, RowFilter::default(), None);
    let mut state_n = PipelineState::new();
    let (x509_rows, ssl_rows) = (owned(&x509), owned(&ssl));
    t.time("chainlab.enrich.tN", || {
        pn.fold_x509_stream(&mut state_n, x509_rows.into_iter())
    });
    let (_, ingest_tn_ms) = t.time("chainlab.ingest.tN", || {
        pn.fold_ssl_stream(&mut state_n, ssl_rows.into_iter())
    });
    out.check(summary(&pn.finalize_state(&state_n)) == expected);
    out.metric("chainlab.ingest_ms.tN", ingest_tn_ms, "ms");
    out.metric(
        "chainlab.ingest_scaling",
        ingest_t1_ms / ingest_tn_ms,
        "ratio",
    );

    // The same work as one `analyze` call at threads=1, for the
    // layer-sum cross-check.
    let t1_opts = AnalyzeOptions {
        threads: 1,
        json: true,
        format: Some(DatasetFormat::Tsv),
        ..AnalyzeOptions::default()
    };
    let (json, analyze_t1_ms) = t.time("bench.analyze.t1", || analyze_opts(&ds.dir, &t1_opts));
    out.check(json.map_err(err)?.trim_end() == expected.trim_end());
    out.metric("bench.analyze_t1_ms", analyze_t1_ms, "ms");
    out.metric(
        "bench.layer_sum_t1_ms",
        ssl_parse_ms
            + x509_parse_ms
            + load_trust_ms
            + load_ct_ms
            + load_crosssign_ms
            + enrich_ms
            + ingest_t1_ms
            + finalize_state_ms
            + summary_json_ms,
        "ms",
    );

    // colstore.write, colstore.read and the codecs.
    let convert = ConvertOptions {
        force: true,
        ..ConvertOptions::default()
    };
    let (written, write_ms) = t.time("colstore.write", || convert_opts(&ds.dir, &convert));
    written.map_err(err)?;
    let store = colstore_dir(&ds.dir);
    out.metric("colstore.write_ms", write_ms, "ms");
    out.metric("colstore.store_bytes", dir_bytes(&store) as f64, "bytes");
    let (reader, open_ms) = t.time("colstore.open", || {
        DatasetReader::open(&store, MapMode::Auto)
    });
    let reader = reader.map_err(|e| e.to_string())?;
    out.metric("colstore.open_ms", open_ms, "ms");
    let mut codec_ms = BTreeMap::new();
    let mut codec_bytes = BTreeMap::new();
    let decode = t.open("colstore.decode");
    let s = reader.ssl_segments().map_err(|e| e.to_string())?;
    let x = reader.x509_segments().map_err(|e| e.to_string())?;
    for col in [
        s.ts,
        s.uid_idx,
        s.orig_h,
        s.orig_p,
        s.resp_h,
        s.resp_p,
        s.version,
        s.sni,
        s.established,
        s.chain_idx,
        x.ts,
        x.fp,
        x.version,
        x.serial,
        x.subject,
        x.issuer,
        x.not_before,
        x.not_after,
        x.flags,
        x.path_len,
        x.san_idx,
    ] {
        decode_column(&col, &mut codec_ms, &mut codec_bytes)?;
    }
    t.close(decode);
    for codec in CODECS {
        out.metric(
            format!("colstore.decode_ms.{codec}"),
            codec_ms.get(codec).copied().unwrap_or(0.0),
            "ms",
        );
        out.metric(
            format!("colstore.decoded_bytes.{codec}"),
            codec_bytes.get(codec).copied().unwrap_or(0) as f64,
            "bytes",
        );
    }

    // Pushdown and the columnar fold, one query at a time.
    for (q, filter) in query_cycle(ds, &store)? {
        let registry = Arc::new(Registry::new());
        let p = pipeline(0, filter, Some(&registry));
        let (analysis, query_ms) = t.time(&format!("chainlab.analyze_colstore.{q}"), || {
            p.analyze_colstore(&reader)
        });
        let analysis = analysis.map_err(|e| e.to_string())?;
        if q == "all" {
            out.check(summary(&analysis) == expected);
        }
        let snap = registry.snapshot();
        let decoded_ssl = counter(&snap, "colstore.rows_read").saturating_sub(reader.x509_rows());
        let admitted = counter(&snap, "pipeline.ssl_records");
        out.metric(format!("chainlab.analyze_colstore_ms.{q}"), query_ms, "ms");
        out.metric(
            format!("chainlab.colstore_enrich_ms.{q}"),
            stage_ms(&snap, "enrich"),
            "ms",
        );
        out.metric(
            format!("chainlab.colstore_ingest_ms.{q}"),
            stage_ms(&snap, "ingest"),
            "ms",
        );
        for name in ["segments_read", "segments_skipped", "rows_read"] {
            let value = counter(&snap, &format!("colstore.{name}"));
            out.metric(format!("colstore.{name}.{q}"), value as f64, "count");
        }
        out.metric(
            format!("colstore.useful_row_frac.{q}"),
            admitted as f64 / decoded_ssl.max(1) as f64,
            "ratio",
        );
    }

    // The rotation replay: fold each rotation, commit a checkpoint and
    // re-finalize the whole state, as every serve cycle does.
    let parts = if cfg.smoke { 12 } else { ROTATIONS };
    let checkpoint = cfg.work.join("trace-checkpoint");
    let pn = pipeline(0, RowFilter::default(), None);
    let mut state = PipelineState::new();
    let (mut commits, mut finals, mut gen_bytes) = (Vec::new(), Vec::new(), 0);
    let replay = t.open("serve.rotation_replay");
    for k in 0..parts {
        let rows = |len: usize| part_start(k, len, parts)..part_start(k + 1, len, parts);
        let rotation = t.open("serve.rotation");
        let (x509_rows, ssl_rows) = (owned(&x509[rows(x509.len())]), owned(&ssl[rows(ssl.len())]));
        t.time("chainlab.fold_x509", || {
            pn.fold_x509_stream(&mut state, x509_rows.into_iter())
        });
        t.time("chainlab.fold_ssl", || {
            pn.fold_ssl_stream(&mut state, ssl_rows.into_iter())
        });
        state.note_folded(&rotation_name("x509", k));
        state.note_folded(&rotation_name("ssl", k));
        let census = state.category_census(&trust);
        state.note_category_census(census);
        let (generation, commit_ms) = t.time("colstore.checkpoint.commit", || {
            state.save_checkpoint(&checkpoint)
        });
        generation.map_err(|e| e.to_string())?;
        gen_bytes = newest_generation_bytes(&checkpoint);
        let (analysis, finalize_ms) =
            t.time("chainlab.finalize_state", || pn.finalize_state(&state));
        if k + 1 == parts {
            out.check(summary(&analysis) == expected);
        }
        commits.push(commit_ms);
        finals.push(finalize_ms);
        t.close(rotation);
    }
    t.close(replay);
    let first_last = |v: &[f64]| {
        (
            v.first().copied().unwrap_or(0.0),
            v.last().copied().unwrap_or(0.0),
        )
    };
    let (first, last) = first_last(&finals);
    out.metric("chainlab.finalize_state_ms.first", first, "ms");
    out.metric("chainlab.finalize_state_ms.last", last, "ms");
    let (first, last) = first_last(&commits);
    out.metric("colstore.checkpoint.commit_ms.first", first, "ms");
    out.metric("colstore.checkpoint.commit_ms.last", last, "ms");
    out.metric(
        "colstore.checkpoint.bytes_per_gen.last",
        gen_bytes as f64,
        "bytes",
    );
    let (loaded, load_ms) = t.time("colstore.checkpoint.load", || {
        PipelineState::load_latest(&checkpoint)
    });
    let loaded = loaded.map_err(|e| e.to_string())?;
    out.check(loaded.is_some_and(|s| s.ssl_records() == state.ssl_records()));
    out.metric("colstore.checkpoint.load_ms", load_ms, "ms");

    // obs.http: a daemon resumed from the replayed checkpoint, under the
    // GET mix (plus the slow client on `http_slow_clients`).
    let idle = cfg.work.join("trace-idle-spool");
    std::fs::create_dir_all(&idle).map_err(|e| e.to_string())?;
    let probe = t.open("obs.http.probe");
    let (daemon, _) = Daemon::start(
        &DaemonSpec {
            certchain: &cfg.certchain,
            dataset: &ds.dir,
            spool: &idle,
            checkpoint: &checkpoint,
            interval_ms: INTERVAL_MS,
            watchdog_cycles: WATCHDOG_CYCLES,
            scratch: &cfg.work,
        },
        "trace",
    )?;
    let slow = cfg.workload == Workload::HttpSlowClients;
    let mix = open_loop_mix(daemon.addr, HTTP_PER_S, cfg.seconds.min(3.0), slow);
    out.tally(
        mix.latencies.len() as u64 + mix.dribbles,
        mix.bad + mix.dribbles_bad,
    );
    let metrics = get(daemon.addr, "/metrics?format=json").map_err(|e| e.to_string())?;
    drop(daemon);
    t.close(probe);
    out.check(metrics.status == 200);
    let doc = certchain_obs::json::parse(&metrics.body).map_err(|e| e.to_string())?;
    let http = doc.get("timing").and_then(|v| v.get("http"));
    let duration = http.and_then(|h| h.get("duration_us"));
    let server_us = |q: &str| {
        duration
            .and_then(|d| d.get(q))
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0)
    };
    let non2xx: u64 = http
        .and_then(|h| h.get("responses"))
        .and_then(|r| r.as_obj())
        .map(|codes| {
            codes
                .iter()
                .filter(|(code, _)| !code.starts_with('2'))
                .filter_map(|(_, n)| n.as_u64())
                .sum()
        })
        .unwrap_or(0);
    let server_p99_ms = server_us("p99") / 1e3;
    out.metric("obs.http.server_p50_ms", server_us("p50") / 1e3, "ms");
    out.metric("obs.http.server_p99_ms", server_p99_ms, "ms");
    out.metric(
        "obs.http.wait_p99_ms",
        quantile(&mix.latencies, 0.99) - server_p99_ms,
        "ms",
    );
    out.metric("obs.http.non2xx", non2xx as f64, "count");
    out.metric(
        "bench.generator_late_p99_ms",
        quantile(&mix.late, 0.99),
        "ms",
    );

    // Span-recording overhead on the workload's own analyze call.
    let opts = AnalyzeOptions {
        format: Some(match cfg.workload {
            Workload::TsvBatch | Workload::ServeSpool => DatasetFormat::Tsv,
            Workload::HttpSlowClients => DatasetFormat::Columnar,
        }),
        json: true,
        ..AnalyzeOptions::default()
    };
    let (mut bare, mut spanned) = (Vec::new(), Vec::new());
    for _ in 0..OVERHEAD_PAIRS {
        let start = Instant::now();
        let a = analyze_opts(&ds.dir, &opts).map_err(err)?;
        bare.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        let (b, _) = t.time("bench.analyze.spanned", || analyze_opts(&ds.dir, &opts));
        spanned.push(start.elapsed().as_secs_f64());
        out.check(a == b.map_err(err)?);
    }
    out.metric(
        "bench.trace_overhead_pct",
        (median(&spanned) / median(&bare) - 1.0) * 100.0,
        "%",
    );
    t.close(pass);

    let out_dir = cfg.build_dir.join("perfbench-out");
    let _ = std::fs::create_dir_all(&out_dir);
    let _ = std::fs::write(
        out_dir.join(format!(
            "spans-{}-seed{}.json",
            cfg.workload.name(),
            cfg.seed
        )),
        t.to_json(cfg),
    );
    Ok(out)
}
