//! The benchmark's inputs, all derived from `--seed`: a synthetic campus
//! dataset on disk, the rotated spool files cut from it, and the filter
//! values the columnar queries use.

use crate::Config;
use certchain_cli::generate::{generate_opts, GenerateOptions};
use certchain_colstore::{Category, DatasetReader, MapMode, CATEGORY_COUNT};
use certchain_netsim::zeek::tsv::{SslLogWriter, X509LogWriter};
use certchain_netsim::{SslLogStream, SslRecord, X509LogStream, X509Record};
use certchain_workload::CampusProfile;
use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

/// A generated dataset directory (Zeek TSV logs plus trust and CT
/// material) and its size.
pub struct Dataset {
    pub dir: PathBuf,
    pub ssl_rows: u64,
    pub x509_rows: u64,
    /// Bytes of `ssl.log` + `x509.log`.
    pub tsv_bytes: u64,
}

impl Dataset {
    /// Generate the seeded dataset as Zeek TSV under the run's scratch
    /// directory: the default campus profile, or the quick one in smoke
    /// mode.
    pub fn generate(cfg: &Config) -> Result<Dataset, String> {
        let mut profile = if cfg.smoke {
            CampusProfile::quick()
        } else {
            CampusProfile::default()
        };
        profile.seed = cfg.seed;
        let dir = cfg.work.join("dataset");
        generate_opts(&dir, profile, &GenerateOptions::default())
            .map_err(|e| format!("generating the dataset: {e}"))?;
        let count = |name: &str| -> Result<(u64, u64), String> {
            let text = std::fs::read(dir.join(name)).map_err(|e| format!("{name}: {e}"))?;
            let rows = text
                .split(|b| *b == b'\n')
                .filter(|l| !l.is_empty() && l[0] != b'#')
                .count() as u64;
            Ok((rows, text.len() as u64))
        };
        let (ssl_rows, ssl_bytes) = count("ssl.log")?;
        let (x509_rows, x509_bytes) = count("x509.log")?;
        Ok(Dataset {
            dir,
            ssl_rows,
            x509_rows,
            tsv_bytes: ssl_bytes + x509_bytes,
        })
    }

    fn open(&self, name: &str) -> Result<BufReader<std::fs::File>, String> {
        std::fs::File::open(self.dir.join(name))
            .map(BufReader::new)
            .map_err(|e| format!("{name}: {e}"))
    }

    /// Parse every `ssl.log` row strictly, dropping each as it comes;
    /// returns the row count.
    pub fn parse_ssl(&self) -> Result<u64, String> {
        SslLogStream::new(self.open("ssl.log")?).try_fold(0, |n, r| {
            r.map(|_| n + 1).map_err(|e| format!("ssl.log: {e}"))
        })
    }

    /// [`Dataset::parse_ssl`] for `x509.log`.
    pub fn parse_x509(&self) -> Result<u64, String> {
        X509LogStream::new(self.open("x509.log")?).try_fold(0, |n, r| {
            r.map(|_| n + 1).map_err(|e| format!("x509.log: {e}"))
        })
    }

    /// Every `ssl.log` row, parsed strictly.
    pub fn ssl_records(&self) -> Result<Vec<SslRecord>, String> {
        SslLogStream::new(self.open("ssl.log")?)
            .collect::<Result<_, _>>()
            .map_err(|e| format!("ssl.log: {e}"))
    }

    /// Every `x509.log` row, parsed strictly.
    pub fn x509_records(&self) -> Result<Vec<X509Record>, String> {
        X509LogStream::new(self.open("x509.log")?)
            .collect::<Result<_, _>>()
            .map_err(|e| format!("x509.log: {e}"))
    }
}

/// The rotated name of rotation `i` of `kind` (`ssl` / `x509`): one
/// campus hour per rotation, counted in consecutive hours and days from
/// 2024-09-01 00:00.
pub fn rotation_name(kind: &str, i: usize) -> String {
    format!("{kind}.2024-09-{:02}-{:02}.log", 1 + i / 24, i % 24)
}

/// The first row of part `k` when `rows` rows are cut into `parts`
/// contiguous parts whose sizes differ by at most one.
pub fn part_start(k: usize, rows: usize, parts: usize) -> usize {
    k * rows / parts
}

/// One rotation: its two file names.
pub struct Rotation {
    pub ssl: String,
    pub x509: String,
}

/// Cut the dataset's logs into `parts` rotations of contiguous rows and
/// write each as a rotated `ssl`/`x509` pair under `out` with netsim's
/// TSV writers. Read back in rotation order, the pairs hold exactly the
/// dataset's rows, and every pair carries at least one row of each log.
pub fn write_rotations(ds: &Dataset, out: &Path, parts: usize) -> Result<Vec<Rotation>, String> {
    assert!(
        (1..=24 * 28).contains(&parts),
        "rotations must stay in September"
    );
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let create = |name: &str| {
        std::fs::File::create(out.join(name))
            .map(BufWriter::new)
            .map_err(|e| format!("{name}: {e}"))
    };
    let io = |e: std::io::Error| format!("writing a rotation: {e}");

    let rows = ds.ssl_rows as usize;
    if rows < parts {
        return Err(format!(
            "ssl.log has {rows} rows, too few for {parts} rotations"
        ));
    }
    let mut next = 0;
    let rotations: Vec<Rotation> = (0..parts)
        .map(|i| Rotation {
            ssl: rotation_name("ssl", i),
            x509: rotation_name("x509", i),
        })
        .collect();
    let mut writer: Option<SslLogWriter<BufWriter<std::fs::File>>> = None;
    for (row, rec) in SslLogStream::new(ds.open("ssl.log")?).enumerate() {
        let rec = rec.map_err(|e| format!("ssl.log: {e}"))?;
        if next < parts && row == part_start(next, rows, parts) {
            if let Some(w) = writer.take() {
                w.finish().and_then(|mut f| f.flush()).map_err(io)?;
            }
            writer = Some(SslLogWriter::new(create(&rotations[next].ssl)?, rec.ts).map_err(io)?);
            next += 1;
        }
        if let Some(w) = writer.as_mut() {
            w.record(&rec).map_err(io)?;
        }
    }
    if let Some(w) = writer.take() {
        w.finish().and_then(|mut f| f.flush()).map_err(io)?;
    }

    let rows = ds.x509_rows as usize;
    if rows < parts {
        return Err(format!(
            "x509.log has {rows} rows, too few for {parts} rotations"
        ));
    }
    let mut next = 0;
    let mut writer: Option<X509LogWriter<BufWriter<std::fs::File>>> = None;
    for (row, rec) in X509LogStream::new(ds.open("x509.log")?).enumerate() {
        let rec = rec.map_err(|e| format!("x509.log: {e}"))?;
        if next < parts && row == part_start(next, rows, parts) {
            if let Some(w) = writer.take() {
                w.finish().and_then(|mut f| f.flush()).map_err(io)?;
            }
            writer = Some(X509LogWriter::new(create(&rotations[next].x509)?, rec.ts).map_err(io)?);
            next += 1;
        }
        if let Some(w) = writer.as_mut() {
            w.record(&rec).map_err(io)?;
        }
    }
    if let Some(w) = writer.take() {
        w.finish().and_then(|mut f| f.flush()).map_err(io)?;
    }

    Ok(rotations)
}

/// The filter values of the columnar query cycle.
pub struct Picks {
    /// The rarest structural category with at least one connection.
    pub category: Category,
    /// The rarest SNI (ties: lexicographically first).
    pub sni: String,
    /// The most common responder port other than 443 (ties: lowest).
    pub port: u16,
}

/// Pick the query filters from the seeded trace: SNI and port from the
/// ssl rows, the category from the converted store's per-segment
/// category digests.
pub fn pick_filters(ds: &Dataset, store: &Path) -> Result<Picks, String> {
    let mut snis: BTreeMap<String, u64> = BTreeMap::new();
    let mut ports: BTreeMap<u16, u64> = BTreeMap::new();
    for rec in SslLogStream::new(ds.open("ssl.log")?) {
        let rec = rec.map_err(|e| format!("ssl.log: {e}"))?;
        if let Some(sni) = rec.server_name {
            *snis.entry(sni).or_default() += 1;
        }
        if rec.resp_p != 443 {
            *ports.entry(rec.resp_p).or_default() += 1;
        }
    }
    let sni = snis
        .iter()
        .min_by_key(|(name, n)| (**n, name.as_str()))
        .map(|(name, _)| name.clone())
        .ok_or("the trace has no SNI")?;
    let port = ports
        .iter()
        .max_by_key(|(port, n)| (**n, std::cmp::Reverse(**port)))
        .map(|(port, _)| *port)
        .ok_or("the trace has no port other than 443")?;

    let reader = DatasetReader::open(store, MapMode::Auto).map_err(|e| e.to_string())?;
    let digests = reader
        .category_digests()
        .ok_or("the converted store carries no category digests")?;
    let mut totals = [0u64; CATEGORY_COUNT];
    for d in digests {
        for (t, n) in totals.iter_mut().zip(d.counts) {
            *t += n;
        }
    }
    let category = Category::all()
        .into_iter()
        .filter(|c| totals[c.index()] > 0)
        .min_by_key(|c| (totals[c.index()], c.index()))
        .ok_or("the store's category digests are empty")?;
    Ok(Picks {
        category,
        sni,
        port,
    })
}
