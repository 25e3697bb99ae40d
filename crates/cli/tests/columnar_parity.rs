//! TSV-vs-columnar parity: `certchain convert` followed by a columnar
//! `analyze` must reproduce the TSV analysis byte-for-byte — same JSON
//! summary, same report tables, at every thread count — and a retired
//! or unknown store version must fail loudly instead of silently falling
//! back.

use certchain_cli::dataset::DatasetFormat;
use certchain_cli::{analyze, convert, generate};
use certchain_obs::json::JsonValue;
use certchain_workload::CampusProfile;
use std::path::PathBuf;

/// One shared dataset, generated and converted once: every test here
/// reads it, none mutates it (the version test copies the store first).
fn dataset_dir() -> &'static PathBuf {
    static CELL: std::sync::OnceLock<PathBuf> = std::sync::OnceLock::new();
    CELL.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("certchain-colpar-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let profile = CampusProfile {
            seed: 99,
            chain_scale: 0.0005,
            conn_scale: 0.00005,
            public_chains: 120,
            public_conns_per_chain: 2,
        };
        generate::generate(&dir, profile).expect("generate succeeds");
        let summary = convert::convert(&dir).expect("convert succeeds");
        assert!(summary.contains("ssl rows"), "{summary}");
        dir
    })
}

fn analyze_with(format: DatasetFormat, threads: usize, json: bool) -> String {
    analyze::analyze_opts(
        dataset_dir(),
        &analyze::AnalyzeOptions {
            threads,
            json,
            format: Some(format),
            ..analyze::AnalyzeOptions::default()
        },
    )
    .expect("analyze succeeds")
}

/// The human report minus its loss-accounting line, which by design
/// describes the input representation (log lines vs store rows).
fn tables_only(report: &str) -> String {
    report
        .lines()
        .filter(|l| !l.contains("loss accounting:"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn json_summary_is_byte_identical_across_formats_and_threads() {
    let baseline = analyze_with(DatasetFormat::Tsv, 1, true);
    for threads in [1usize, 2, 8] {
        for format in [DatasetFormat::Tsv, DatasetFormat::Columnar] {
            let got = analyze_with(format, threads, true);
            assert_eq!(
                got, baseline,
                "JSON diverged for {format:?} at {threads} threads"
            );
        }
    }
}

#[test]
fn report_tables_are_byte_identical_across_formats() {
    let tsv = analyze_with(DatasetFormat::Tsv, 1, false);
    let col = analyze_with(DatasetFormat::Columnar, 8, false);
    assert_ne!(tsv, col, "loss lines describe different representations");
    assert_eq!(tables_only(&tsv), tables_only(&col));
    assert!(
        col.contains("colstore"),
        "columnar loss line names the store"
    );
}

#[test]
fn store_is_auto_detected_when_present() {
    // No explicit --format: the converted store must win over the TSVs.
    let auto = analyze::analyze_opts(dataset_dir(), &analyze::AnalyzeOptions::default()).unwrap();
    assert!(auto.contains("colstore"), "{auto}");
}

/// Copy the shared dataset (logs, trust material, CT corpus, and the
/// converted store) into a private directory a test may mutate.
fn copy_dataset(tag: &str) -> PathBuf {
    let src = dataset_dir();
    let dir = std::env::temp_dir().join(format!("certchain-colpar-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("colstore")).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        if entry.file_type().unwrap().is_file() {
            std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
        }
    }
    for entry in std::fs::read_dir(src.join("colstore")).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dir.join("colstore").join(entry.file_name())).unwrap();
    }
    for sub in ["trust/roots", "trust/ccadb", "ct"] {
        std::fs::create_dir_all(dir.join(sub)).unwrap();
        for entry in std::fs::read_dir(src.join(sub)).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), dir.join(sub).join(entry.file_name())).unwrap();
        }
    }
    dir
}

/// Every file of a flat store directory, by name.
fn store_bytes(store: &std::path::Path) -> std::collections::BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(store)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect()
}

#[test]
fn version_mismatch_fails_instead_of_falling_back() {
    use certchain_cli::compact;
    // The retired raw-column v1 and a future version fail alike.
    for version in [1u64, 99] {
        // Copy the dataset so the shared one keeps its valid store.
        let dir = copy_dataset(&format!("ver{version}"));
        let store = dir.join("colstore");
        let manifest = store.join("dataset.json");
        let text = std::fs::read_to_string(&manifest).unwrap();
        let bumped = text.replace("\"version\": 2", &format!("\"version\": {version}"));
        assert_ne!(text, bumped, "manifest carries the version field");
        std::fs::write(&manifest, bumped).unwrap();
        let before = store_bytes(&store);

        // Auto-detection sees the manifest, reads a foreign version, and
        // must error — analyzing the TSVs anyway would hide a real skew.
        let err = analyze::analyze_opts(&dir, &analyze::AnalyzeOptions::default()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("expected 2"), "{msg}");
        assert!(msg.contains(&format!("found {version}")), "{msg}");
        assert!(msg.contains("certchain convert"), "{msg}");

        // Neither an append nor a compaction touches such a store.
        let msg = match certchain_colstore::DatasetWriter::append_open(&store) {
            Ok(_) => panic!("append_open must refuse a v{version} store"),
            Err(e) => e.to_string(),
        };
        assert!(msg.contains("expected 2"), "{msg}");
        let msg = compact::compact(&dir).unwrap_err().to_string();
        assert!(msg.contains("expected 2"), "{msg}");
        assert!(msg.contains("certchain convert"), "{msg}");
        assert_eq!(store_bytes(&store), before, "v{version} store was modified");

        // An explicit TSV override still works on the same directory.
        let report = analyze::analyze_opts(
            &dir,
            &analyze::AnalyzeOptions {
                format: Some(DatasetFormat::Tsv),
                ..analyze::AnalyzeOptions::default()
            },
        )
        .unwrap();
        assert!(report.contains("Chain census"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn columnar_metrics_are_thread_invariant_and_counted() {
    let dir = dataset_dir();
    let snapshot_for = |threads: usize, tag: &str| {
        let path = std::env::temp_dir().join(format!(
            "certchain-colpar-metrics-{tag}-{}.json",
            std::process::id()
        ));
        analyze::analyze_opts(
            dir,
            &analyze::AnalyzeOptions {
                threads,
                format: Some(DatasetFormat::Columnar),
                metrics_json: Some(path.clone()),
                ..analyze::AnalyzeOptions::default()
            },
        )
        .unwrap();
        let snap = certchain_obs::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let _ = std::fs::remove_file(&path);
        snap
    };
    let one = snapshot_for(1, "t1");
    let eight = snapshot_for(8, "t8");
    // The deterministic section must not depend on the worker count.
    assert_eq!(
        one.get("deterministic").map(JsonValue::to_pretty),
        eight.get("deterministic").map(JsonValue::to_pretty),
        "deterministic metrics diverged across thread counts"
    );
    let metric = |section: &str, name: &str| {
        one.get("deterministic")
            .and_then(|d| d.get(section))
            .and_then(|c| c.get(name))
            .and_then(JsonValue::as_u64)
            .unwrap_or_else(|| panic!("{section} entry {name} missing"))
    };
    let reader = certchain_colstore::DatasetReader::open(
        &certchain_cli::dataset::colstore_dir(dir),
        certchain_colstore::MapMode::Auto,
    )
    .unwrap();
    assert_eq!(
        metric("counters", "colstore.rows_read"),
        reader.ssl_rows() + reader.x509_rows()
    );
    assert!(metric("gauges", "colstore.bytes_mapped") > 0);
    assert_eq!(
        metric("gauges", "colstore.bytes_mapped"),
        reader.bytes_mapped()
    );
    // The TSV parse-stage counters stay format-stable (present, zeroed).
    assert_eq!(metric("counters", "records_dropped"), 0);
}

#[test]
fn convert_refuses_to_overwrite_without_force() {
    let dir = copy_dataset("force");
    let err = convert::convert(&dir).unwrap_err();
    assert!(err.to_string().contains("--force"), "{err}");
    let summary = convert::convert_opts(
        &dir,
        &convert::ConvertOptions {
            force: true,
            ..convert::ConvertOptions::default()
        },
    )
    .unwrap();
    assert!(summary.contains("ssl rows"), "{summary}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn filtered_analysis_skips_segments_and_matches_tsv() {
    let dir = copy_dataset("filter");
    // Small row bands so the store has many segments to skip.
    convert::convert_opts(
        &dir,
        &convert::ConvertOptions {
            force: true,
            segment_rows: Some(32),
            ..convert::ConvertOptions::default()
        },
    )
    .unwrap();
    // Pick the rarest SNI in the store (lexicographically smallest on
    // ties) — a predicate most row bands cannot match.
    let store = certchain_cli::dataset::colstore_dir(&dir);
    let reader =
        certchain_colstore::DatasetReader::open(&store, certchain_colstore::MapMode::Auto).unwrap();
    let mut freq: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    for rec in reader.ssl_iter().unwrap() {
        if let Some(sni) = rec.unwrap().server_name {
            *freq.entry(sni).or_default() += 1;
        }
    }
    let (sni, _) = freq
        .iter()
        .min_by_key(|(name, n)| (**n, (*name).clone()))
        .expect("dataset has SNI-bearing rows");
    let sni = sni.clone();
    drop(reader);

    let metrics_path = dir.join("filter-metrics.json");
    let filtered = |format: DatasetFormat, threads: usize| {
        analyze::analyze_opts(
            &dir,
            &analyze::AnalyzeOptions {
                threads,
                json: true,
                format: Some(format),
                filter_sni: Some(sni.clone()),
                metrics_json: Some(metrics_path.clone()),
                ..analyze::AnalyzeOptions::default()
            },
        )
        .unwrap()
    };
    let baseline = filtered(DatasetFormat::Tsv, 1);
    let unfiltered = analyze_with(DatasetFormat::Tsv, 1, true);
    assert_ne!(baseline, unfiltered, "the filter must change the analysis");
    for threads in [1usize, 2, 8] {
        assert_eq!(
            filtered(DatasetFormat::Columnar, threads),
            baseline,
            "filtered columnar diverged at {threads} threads"
        );
    }
    // The last columnar run's metrics must show zone maps at work.
    let snap =
        certchain_obs::json::parse(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
    let counter = |name: &str| {
        snap.get("deterministic")
            .and_then(|d| d.get("counters"))
            .and_then(|c| c.get(name))
            .and_then(JsonValue::as_u64)
            .unwrap_or_else(|| panic!("counter {name} missing"))
    };
    assert!(counter("colstore.segments_read") > 0);
    assert!(
        counter("colstore.segments_skipped") > 0,
        "a rare-SNI filter must skip at least one segment"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compact_preserves_digests_byte_for_byte() {
    use certchain_cli::compact;
    let dir = copy_dataset("digests");
    let store = certchain_cli::dataset::colstore_dir(&dir);
    let manifest = certchain_colstore::Manifest::load(&store).unwrap();
    let before = manifest
        .category_digests
        .clone()
        .expect("convert with trust material digests the store");
    // Byte-for-byte: compare the digests' canonical JSON, not just the
    // parsed counts.
    let digest_json = |d: &[certchain_colstore::CategoryDigest]| {
        certchain_obs::json::JsonValue::Arr(d.iter().map(|d| d.to_json()).collect()).to_pretty()
    };
    let report_at = |threads: usize| {
        analyze::analyze_opts(
            &dir,
            &analyze::AnalyzeOptions {
                threads,
                json: true,
                format: Some(DatasetFormat::Columnar),
                ..analyze::AnalyzeOptions::default()
            },
        )
        .unwrap()
    };
    let before_report = report_at(1);
    let summary = compact::compact(&dir).unwrap();
    assert!(summary.contains("with current codecs"), "{summary}");
    let manifest = certchain_colstore::Manifest::load(&store).unwrap();
    let after = manifest
        .category_digests
        .expect("recompaction recomputes digests");
    assert_eq!(digest_json(&before), digest_json(&after));
    // The recompacted store analyzes byte-identically at every thread
    // count.
    for threads in [1usize, 2, 8] {
        assert_eq!(
            report_at(threads),
            before_report,
            "diverged at {threads} threads"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Shared body for the category-filter parity tests: analyze `dir` with
/// `--filter-category non_public_only` in TSV and columnar form at
/// threads 1/2/8, demand byte-identity, and return the last columnar
/// run's metrics snapshot.
fn category_parity(dir: &std::path::Path) -> JsonValue {
    let set = certchain_colstore::CategorySet::parse_list("non_public_only").unwrap();
    let metrics_path = dir.join("cat-metrics.json");
    let filtered = |format: DatasetFormat, threads: usize| {
        analyze::analyze_opts(
            dir,
            &analyze::AnalyzeOptions {
                threads,
                json: true,
                format: Some(format),
                filter_category: Some(set),
                metrics_json: Some(metrics_path.clone()),
                ..analyze::AnalyzeOptions::default()
            },
        )
        .unwrap()
    };
    let baseline = filtered(DatasetFormat::Tsv, 1);
    for threads in [1usize, 2, 8] {
        assert_eq!(
            filtered(DatasetFormat::Columnar, threads),
            baseline,
            "category-filtered columnar diverged at {threads} threads"
        );
    }
    certchain_obs::json::parse(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap()
}

fn counter_of(snap: &JsonValue, name: &str) -> u64 {
    snap.get("deterministic")
        .and_then(|d| d.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(JsonValue::as_u64)
        .unwrap_or_else(|| panic!("counter {name} missing"))
}

#[test]
fn category_filter_skips_segments_and_matches_tsv() {
    let dir = copy_dataset("cat");
    // Small row bands so the digests have many segments to veto.
    convert::convert_opts(
        &dir,
        &convert::ConvertOptions {
            force: true,
            segment_rows: Some(32),
            ..convert::ConvertOptions::default()
        },
    )
    .unwrap();
    let snap = category_parity(&dir);
    assert!(
        counter_of(&snap, "colstore.segments_skipped_category") > 0,
        "digests must let a rare-category filter skip segments"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn digestless_stores_analyze_correctly_and_never_skip() {
    // A digest-less store (written by a pre-digest build, simulated by
    // streaming the store through a writer with no provider): category
    // filtering must fall back to per-row tests, still match the TSV
    // oracle, and read every segment rather than guess.
    let dir = copy_dataset("cat-v2nodigest");
    let store = certchain_cli::dataset::colstore_dir(&dir);
    let rewrite = store.with_file_name("colstore.rewrite");
    {
        let reader =
            certchain_colstore::DatasetReader::open(&store, certchain_colstore::MapMode::Auto)
                .unwrap();
        let mut writer = certchain_colstore::DatasetWriter::create_with(
            &rewrite,
            certchain_colstore::WriterOptions { segment_rows: 32 },
        )
        .unwrap();
        for rec in reader.x509_iter().unwrap() {
            writer.append_x509(&rec.unwrap()).unwrap();
        }
        for rec in reader.ssl_iter().unwrap() {
            writer.append_ssl(&rec.unwrap()).unwrap();
        }
        writer.finish().unwrap();
    }
    std::fs::remove_dir_all(&store).unwrap();
    std::fs::rename(&rewrite, &store).unwrap();
    assert!(
        certchain_colstore::Manifest::load(&store)
            .unwrap()
            .category_digests
            .is_none(),
        "rewrite without a provider must be digest-less"
    );
    let snap = category_parity(&dir);
    assert_eq!(
        counter_of(&snap, "colstore.segments_skipped_category"),
        0,
        "a digest-less store must never category-skip a segment"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Analyze `dir` in `format` at `threads`, returning the `--json` report
/// and the metrics snapshot of the same run.
fn report_and_metrics(
    dir: &std::path::Path,
    format: DatasetFormat,
    threads: usize,
    filter_category: Option<certchain_colstore::CategorySet>,
) -> (String, JsonValue) {
    let metrics_path = dir.join(format!("metrics-{format:?}-{threads}.json"));
    let report = analyze::analyze_opts(
        dir,
        &analyze::AnalyzeOptions {
            threads,
            json: true,
            format: Some(format),
            filter_category,
            metrics_json: Some(metrics_path.clone()),
            ..analyze::AnalyzeOptions::default()
        },
    )
    .unwrap();
    let snap =
        certchain_obs::json::parse(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
    (report, snap)
}

/// The `pipeline.*` entries of a snapshot's deterministic section: the
/// part every input shape shares (`zeek.*` and `colstore.*` describe the
/// representation and differ by design).
fn pipeline_metrics(snap: &JsonValue) -> String {
    let deterministic = snap.get("deterministic").expect("deterministic section");
    let mut out = String::new();
    for section in ["counters", "gauges", "histograms"] {
        for (name, value) in deterministic
            .get(section)
            .and_then(JsonValue::as_obj)
            .unwrap_or_else(|| panic!("{section} missing"))
        {
            if name.starts_with("pipeline.") {
                out.push_str(&format!("{section} {name} {}\n", value.to_pretty()));
            }
        }
    }
    out
}

/// Rewrite a copied dataset's `x509.log` through `edit` (which sees the
/// data rows only) and re-convert its store.
fn rewrite_x509(dir: &std::path::Path, edit: impl FnOnce(Vec<String>) -> Vec<String>) {
    let path = dir.join("x509.log");
    let text = std::fs::read_to_string(&path).unwrap();
    let (header, rows): (Vec<&str>, Vec<&str>) = text.lines().partition(|l| l.starts_with('#'));
    let mut out: Vec<String> = header
        .iter()
        .filter(|l| !l.starts_with("#close"))
        .map(|l| l.to_string())
        .collect();
    out.extend(edit(rows.iter().map(|r| r.to_string()).collect()));
    std::fs::write(&path, out.join("\n") + "\n").unwrap();
    convert::convert_opts(
        dir,
        &convert::ConvertOptions {
            force: true,
            ..convert::ConvertOptions::default()
        },
    )
    .unwrap();
}

#[test]
fn relogged_unparseable_row_counts_the_same_on_every_format() {
    // A row re-logging an already-interned fingerprint is skipped before
    // it is parsed on every path, so its unparseable subject is never
    // seen and both formats agree on every pipeline metric.
    let dir = copy_dataset("unparseable");
    rewrite_x509(&dir, |mut rows| {
        let mut fields: Vec<String> = rows[0].split('\t').map(str::to_string).collect();
        fields[4] = "not-a-dn".to_string();
        rows.push(fields.join("\t"));
        rows
    });
    let (tsv_report, tsv) = report_and_metrics(&dir, DatasetFormat::Tsv, 1, None);
    let (col_report, col) = report_and_metrics(&dir, DatasetFormat::Columnar, 2, None);
    assert_eq!(tsv_report, col_report);
    assert_eq!(pipeline_metrics(&tsv), pipeline_metrics(&col));
    assert_eq!(counter_of(&tsv, "pipeline.x509_unparseable_rows"), 0);
    let reader = certchain_colstore::DatasetReader::open(
        &certchain_cli::dataset::colstore_dir(&dir),
        certchain_colstore::MapMode::Auto,
    )
    .unwrap();
    assert_eq!(counter_of(&tsv, "pipeline.x509_rows"), reader.x509_rows());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dangling_fingerprints_count_the_same_across_formats_and_threads() {
    // Drop every 50th certificate row: the chains that reference one of
    // those fingerprints fold like any other and are excluded, with
    // their records counted, at finalize, on every format.
    let dir = copy_dataset("dangling");
    rewrite_x509(&dir, |rows| {
        rows.into_iter()
            .enumerate()
            .filter(|(i, _)| (i + 1) % 50 != 0)
            .map(|(_, row)| row)
            .collect()
    });
    let incomplete = certchain_colstore::CategorySet::parse_list("incomplete").unwrap();
    let (baseline, snap) = report_and_metrics(&dir, DatasetFormat::Tsv, 1, None);
    let unresolvable = counter_of(&snap, "pipeline.unresolvable_records");
    assert!(unresolvable > 0, "dropped rows must leave dangling chains");
    let (filtered, _) = report_and_metrics(&dir, DatasetFormat::Tsv, 1, Some(incomplete));
    for filter in [None, Some(incomplete)] {
        let want = if filter.is_some() {
            &filtered
        } else {
            &baseline
        };
        for format in [DatasetFormat::Tsv, DatasetFormat::Columnar] {
            for threads in [1usize, 4] {
                let (report, snap) = report_and_metrics(&dir, format, threads, filter);
                assert_eq!(&report, want, "{format:?} at {threads} threads, {filter:?}");
                // Every unresolvable chain is `incomplete`, so the filter
                // keeps all of them.
                assert_eq!(
                    counter_of(&snap, "pipeline.unresolvable_records"),
                    unresolvable,
                    "{format:?} at {threads} threads, {filter:?}"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
