//! The columnar analyze path: fold straight off a mapped
//! [`DatasetReader`], no parse stage, workers sharded by segment ranges.
//!
//! The store is one more input shape for the same fold target as the
//! TSV path: both segment tables fold into one [`PipelineState`], and
//! [`Pipeline::finalize_state`] renders it. Enrich interns each x509
//! row through the state's intern, with a per-fingerprint-code "already
//! interned" bitmap in front so duplicate rows (the common case: every
//! reappearance of a certificate logs a row) cost one vector load and
//! are never decoded into strings or parsed.
//!
//! The TSV streaming path pays for a text parse of every row, serialized
//! under the ingest source lock (see [`super::ingest`]). Columnar input
//! removes that cost: fields decode with offset arithmetic off the mapped
//! columns. Workers claim contiguous *segment* ranges, ask the resolved
//! `ColFilter` whether each segment can be skipped (by its category
//! digest or its zone maps) under the active [`super::RowFilter`]
//! (filter predicates are resolved to dictionary codes once, so the
//! per-row test is two integer compares), decode only the five columns
//! the fold touches into reused scratch buffers, and key their per-chain
//! accumulators by fingerprint-*code* sequences. Each worker rekeys its
//! map to fingerprints and SNI strings once per distinct chain and hands
//! it to `PipelineState::absorb`, exactly like a TSV ingest worker.
//! One chain's connections can land in several workers; every on-disk
//! row folds at weight 1.0, so the merge is bit-identical to the
//! one-worker fold. Skip decisions are per-segment properties of the
//! data, so they are identical for every thread count, which keeps the
//! `colstore.segments_*` metrics deterministic.

use super::ingest::{ChainAccum, IngestCounts, Partial};
use super::{resolve_threads, Analysis, Pipeline, PipelineState, RowFilter};
use crate::filtercat::{chain_category, CertCat};
use crate::model::ChainKey;
use crate::usage::UsageStats;
use certchain_colstore::{
    CategoryDigest, CategorySet, ColError, ColResult, DatasetReader, SslSegments, X509Segments,
    NONE_IDX,
};
use certchain_trust::TrustDb;
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::net::Ipv4Addr;
use std::ops::Range;

impl Pipeline<'_> {
    /// Run the full analysis over an open columnar store: segment-at-a-
    /// time decode, digest and zone-map skipping, and the code-keyed
    /// vectorized fold into a [`PipelineState`]. For a store converted
    /// from (or generated alongside) a TSV dataset, the result is
    /// byte-identical to [`Pipeline::analyze_stream`] over the Zeek
    /// readers, for every thread count.
    ///
    /// The first corrupt-data error aborts the analysis and is returned
    /// as-is (truncation is already caught by [`DatasetReader::open`]).
    pub fn analyze_colstore(&self, reader: &DatasetReader) -> Result<Analysis, ColError> {
        let threads = resolve_threads(self.options.threads);
        self.obs.set("colstore.bytes_mapped", reader.bytes_mapped());
        let mut state = PipelineState::new();
        let x509 = reader.x509_segments()?;
        let x509_tally = {
            let _span = self.obs.stage("enrich");
            enrich_segments(&mut state, &x509)?
        };
        let ssl = reader.ssl_segments()?;
        let ssl_tally = {
            let _span = self.obs.stage("ingest");
            let filter =
                ColFilter::resolve(reader, &ssl, &self.options.filter, &state, self.trust)?;
            ingest_segments(self, &mut state, &ssl, &filter, threads)?
        };
        // Scan accounting. Skip decisions are per-segment data
        // properties, so every value here is thread-count-invariant;
        // `rows_read` counts rows actually decoded (== the table totals
        // when no filter is active, since nothing is skipped then).
        let tally = x509_tally.plus(ssl_tally);
        self.obs.add("colstore.rows_read", tally.rows);
        self.obs.add("colstore.segments_read", tally.read);
        self.obs.add("colstore.segments_skipped", tally.skipped);
        self.obs
            .add("colstore.segments_skipped_category", tally.skipped_category);
        self.obs.add("colstore.bytes_decoded", tally.bytes);
        Ok(self.finalize_state(&state))
    }
}

/// A [`RowFilter`] resolved against one store — its dictionary, so the
/// per-row test compares integers, never strings, and its category
/// digests, so the per-segment test needs nothing else.
struct ColFilter<'a> {
    port: Option<u16>,
    /// `None` — no SNI predicate. `Some(None)` — the predicate string is
    /// not in the store's dictionary, so no row can match. `Some(Some(c))`
    /// — match rows whose SNI dictionary code is exactly `c`.
    sni: Option<Option<u32>>,
    /// The structural-category predicate and the [`CertCat`] of every
    /// fingerprint code, which the per-row test reads. Per segment the
    /// predicate is tested through `digests` when the store carries them.
    categories: Option<(CategorySet, Vec<CertCat>)>,
    /// The manifest's per-ssl-segment category digests (`None` for a
    /// digest-less store, whose segments are never category-skipped).
    digests: Option<&'a [CategoryDigest]>,
}

/// What [`ColFilter::scan`] decides for one ssl segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SegScan {
    /// Some row may pass: decode the segment and test each row.
    Read,
    /// A zone map proves no row passes the port or SNI predicate.
    SkipZone,
    /// The segment's category digest proves no row passes the category
    /// predicate.
    SkipCategory,
}

impl<'a> ColFilter<'a> {
    /// Resolve `filter` against the store. A category predicate reads
    /// the certificate table, so `state` must hold the whole x509 side.
    fn resolve(
        reader: &'a DatasetReader,
        ssl: &SslSegments<'_>,
        filter: &RowFilter,
        state: &PipelineState,
        trust: &TrustDb,
    ) -> ColResult<ColFilter<'a>> {
        let sni = match &filter.sni {
            Some(s) => Some(reader.dict_lookup(s)?),
            None => None,
        };
        let categories = match filter.categories {
            Some(set) => {
                let mut cats = Vec::with_capacity(ssl.fp_count());
                for code in 0..ssl.fp_count() as u32 {
                    cats.push(
                        state
                            .cert(&ssl.fp(code)?)
                            .map_or(CertCat::Unresolved, |cert| CertCat::of(cert, trust)),
                    );
                }
                Some((set, cats))
            }
            None => None,
        };
        Ok(ColFilter {
            port: filter.port,
            sni,
            categories,
            digests: reader.category_digests(),
        })
    }

    /// The per-row test, on raw column values.
    fn admits(&self, resp_p: u16, sni_code: u32) -> bool {
        if let Some(p) = self.port {
            if resp_p != p {
                return false;
            }
        }
        match self.sni {
            None => true,
            Some(None) => false,
            Some(Some(code)) => sni_code == code,
        }
    }

    /// The per-row category test, on the row's in-range fingerprint
    /// codes. An empty chain folds to `none`, matching the oracle's view
    /// of a chainless record.
    fn admits_chain(&self, codes: &[u32]) -> bool {
        match &self.categories {
            None => true,
            Some((set, cats)) => {
                set.contains(chain_category(codes.iter().map(|&c| cats[c as usize])))
            }
        }
    }

    /// The one per-segment decision: read an ssl segment, or skip it by
    /// its category digest (checked first) or its zone maps. Conservative
    /// in exactly one direction: `Read` may be wrong (rows are then
    /// tested individually), a skip never is.
    ///
    /// A digest skip is sound because the digest was computed by the same
    /// [`chain_category`] fold over the same complete certificate table
    /// at write time, and rejected rows are invisible to every counter —
    /// skipping the segment is exactly equivalent to testing each of its
    /// rows.
    fn scan(&self, ssl: &SslSegments<'_>, seg: usize) -> SegScan {
        if let (Some((set, _)), Some(digests)) = (&self.categories, self.digests) {
            if digests.get(seg).is_some_and(|d| !d.intersects(*set)) {
                return SegScan::SkipCategory;
            }
        }
        if let Some(p) = self.port {
            if !ssl.resp_p.meta(seg).zone.contains(u64::from(p)) {
                return SegScan::SkipZone;
            }
        }
        let sni_may_match = match self.sni {
            None => true,
            Some(None) => false,
            Some(Some(code)) => ssl.sni.meta(seg).zone.may_contain_code(code),
        };
        if sni_may_match {
            SegScan::Read
        } else {
            SegScan::SkipZone
        }
    }
}

/// Deterministic scan accounting for one segmented analysis.
#[derive(Debug, Default, Clone, Copy)]
struct SegTally {
    /// Segments whose columns were decoded.
    read: u64,
    /// Segments skipped entirely (zone maps or category digests);
    /// `read + skipped` always equals the segment total scanned.
    skipped: u64,
    /// The subset of `skipped` vetoed by a category digest.
    skipped_category: u64,
    /// Rows in the decoded segments.
    rows: u64,
    /// Encoded payload bytes decoded.
    bytes: u64,
}

impl SegTally {
    fn plus(self, other: SegTally) -> SegTally {
        SegTally {
            read: self.read + other.read,
            skipped: self.skipped + other.skipped,
            skipped_category: self.skipped_category + other.skipped_category,
            rows: self.rows + other.rows,
            bytes: self.bytes + other.bytes,
        }
    }
}

/// Enrich off the x509 segments into `state`: decode a segment's
/// columns once, count every row into the state, and fold each row whose
/// fingerprint *code* is not yet interned through the state's intern.
/// An interned code is tracked in a plain bitmap, so duplicate rows cost
/// one vector load and are never parsed — the skip rule of every x509
/// fold. A row that fails to parse is *not* marked interned, so a later
/// duplicate retries it, as in the TSV fold.
fn enrich_segments(state: &mut PipelineState, cols: &X509Segments<'_>) -> ColResult<SegTally> {
    let mut tally = SegTally::default();
    let mut interned = vec![false; cols.fps.len() / 32];
    let (mut ts, mut fp, mut version) = (Vec::new(), Vec::new(), Vec::new());
    let (mut serial, mut subject, mut issuer) = (Vec::new(), Vec::new(), Vec::new());
    let (mut not_before, mut not_after) = (Vec::new(), Vec::new());
    let (mut flags, mut path_len, mut san_idx) = (Vec::new(), Vec::new(), Vec::new());
    for seg in 0..cols.segment_count() {
        let columns = [
            (&cols.ts, &mut ts),
            (&cols.fp, &mut fp),
            (&cols.version, &mut version),
            (&cols.serial, &mut serial),
            (&cols.subject, &mut subject),
            (&cols.issuer, &mut issuer),
            (&cols.not_before, &mut not_before),
            (&cols.not_after, &mut not_after),
            (&cols.flags, &mut flags),
            (&cols.path_len, &mut path_len),
            (&cols.san_idx, &mut san_idx),
        ];
        for (col, buf) in columns {
            col.decode_into(seg, buf)?;
            tally.bytes += col.meta(seg).bytes;
        }
        let (row_start, rows) = cols.ts.row_range(seg);
        tally.read += 1;
        tally.rows += rows;
        let san_base = cols.san_start(seg);
        for i in 0..rows as usize {
            let row = row_start + i as u64;
            let code = fp[i] as u32;
            let slot = interned.get_mut(code as usize).ok_or_else(|| {
                ColError::Corrupt(format!(
                    "x509.fp row {row}: fingerprint index {code} out of range"
                ))
            })?;
            if *slot {
                state.x509_rows += 1;
                continue;
            }
            let san_from = if i == 0 { san_base } else { san_idx[i - 1] };
            let san_codes = var_codes(cols.san_dat, san_from, san_idx[i], "x509.san", row)?;
            let mut san_dns = Vec::with_capacity(san_codes.len() / 4);
            for entry in san_codes.chunks_exact(4) {
                let c = u32::from_le_bytes(entry.try_into().expect("4-byte slice"));
                san_dns.push(cols.dict.get(c)?.to_string());
            }
            let fl = flags[i] as u8;
            let rec = certchain_netsim::X509Record {
                ts: certchain_asn1::Asn1Time::from_unix(ts[i]),
                fingerprint: cols.fp(code)?,
                cert_version: version[i],
                serial: cols.dict.get(serial[i] as u32)?.to_string(),
                subject: cols.dict.get(subject[i] as u32)?.to_string(),
                issuer: cols.dict.get(issuer[i] as u32)?.to_string(),
                not_before: certchain_asn1::Asn1Time::from_unix(not_before[i]),
                not_after: certchain_asn1::Asn1Time::from_unix(not_after[i]),
                basic_constraints_ca: (fl & certchain_colstore::write::FLAG_BC_PRESENT != 0)
                    .then_some(fl & certchain_colstore::write::FLAG_BC_CA != 0),
                path_len: (fl & certchain_colstore::write::FLAG_PATH_LEN != 0).then(|| path_len[i]),
                san_dns,
            };
            *slot = state.fold_x509_row(Cow::Owned(rec));
        }
    }
    Ok(tally)
}

/// Bounds-check a decoded var-length `start..end` offset pair and return
/// the slice; also enforces whole-number-of-u32-entries.
fn var_codes<'a>(dat: &'a [u8], start: u64, end: u64, what: &str, row: u64) -> ColResult<&'a [u8]> {
    if start > end || end > dat.len() as u64 {
        return Err(ColError::Corrupt(format!(
            "{what} row {row}: offsets {start}..{end} out of bounds (data length {})",
            dat.len()
        )));
    }
    let bytes = &dat[start as usize..end as usize];
    if bytes.len() % 4 != 0 {
        return Err(ColError::Corrupt(format!(
            "{what} row {row}: {} bytes is not a whole number of entries",
            bytes.len()
        )));
    }
    Ok(bytes)
}

/// Per-chain accumulator keyed by fingerprint-*code* sequence. Identical
/// aggregates to [`ChainAccum`], but nothing is resolved to strings or
/// 32-byte fingerprints during the fold — codes are rekeyed once per
/// distinct chain afterwards.
#[derive(Default)]
struct CodeAccum {
    usage: UsageStats,
    sni_codes: BTreeSet<u32>,
}

/// Fold the ssl segments in `segs` into one worker's [`Partial`].
/// [`ColFilter::scan`] vetoes whole segments first; surviving segments
/// decode only the five columns the fold touches, into scratch buffers
/// reused across segments.
fn fold_segments(
    ssl: &SslSegments<'_>,
    segs: Range<usize>,
    filter: &ColFilter<'_>,
) -> ColResult<(Partial, SegTally)> {
    let mut accums: HashMap<Vec<u32>, CodeAccum> = HashMap::new();
    let mut counts = IngestCounts::default();
    let mut tally = SegTally::default();
    let (mut resp_p, mut established) = (Vec::new(), Vec::new());
    let (mut sni, mut orig_h, mut chain_idx) = (Vec::new(), Vec::new(), Vec::new());
    let mut codes: Vec<u32> = Vec::new();
    let fp_count = ssl.fp_count();
    for seg in segs {
        let scan = filter.scan(ssl, seg);
        if scan != SegScan::Read {
            tally.skipped += 1;
            tally.skipped_category += u64::from(scan == SegScan::SkipCategory);
            continue;
        }
        let columns = [
            (&ssl.resp_p, &mut resp_p),
            (&ssl.established, &mut established),
            (&ssl.sni, &mut sni),
            (&ssl.orig_h, &mut orig_h),
            (&ssl.chain_idx, &mut chain_idx),
        ];
        for (col, buf) in columns {
            col.decode_into(seg, buf)?;
            tally.bytes += col.meta(seg).bytes;
        }
        let (row_start, rows) = ssl.ts.row_range(seg);
        tally.read += 1;
        tally.rows += rows;
        let chain_base = ssl.chain_start(seg);
        for i in 0..rows as usize {
            let sni_code = sni[i] as u32;
            if !filter.admits(resp_p[i] as u16, sni_code) {
                continue;
            }
            let row = row_start + i as u64;
            let from = if i == 0 { chain_base } else { chain_idx[i - 1] };
            let chain_bytes = var_codes(ssl.chain_dat, from, chain_idx[i], "ssl.chain", row)?;
            codes.clear();
            for entry in chain_bytes.chunks_exact(4) {
                let code = u32::from_le_bytes(entry.try_into().expect("4-byte slice"));
                if code as usize >= fp_count {
                    return Err(ColError::Corrupt(format!(
                        "ssl.chain row {row}: fingerprint index {code} out of range"
                    )));
                }
                codes.push(code);
            }
            // Same invisibility rule as the TSV fold: a category-rejected
            // row moves no counter, not even `records`.
            if !filter.admits_chain(&codes) {
                continue;
            }
            counts.records += 1;
            if codes.is_empty() {
                counts.no_chain += 1;
                continue;
            }
            if !accums.contains_key(codes.as_slice()) {
                accums.insert(codes.clone(), CodeAccum::default());
            }
            let entry = accums
                .get_mut(codes.as_slice())
                .expect("present or just inserted");
            entry.usage.add(
                established[i] != 0,
                sni_code != NONE_IDX,
                resp_p[i] as u16,
                Ipv4Addr::from(orig_h[i] as u32),
                1.0,
            );
            if sni_code != NONE_IDX {
                entry.sni_codes.insert(sni_code);
            }
        }
    }
    Ok(((rekey(ssl, accums)?, counts), tally))
}

/// Rekey a worker's code sequences to fingerprint chains and its SNI
/// codes to strings — once per distinct chain, the only string work in
/// the whole ingest.
fn rekey(
    ssl: &SslSegments<'_>,
    code_accums: HashMap<Vec<u32>, CodeAccum>,
) -> ColResult<HashMap<ChainKey, ChainAccum>> {
    let mut accums = HashMap::with_capacity(code_accums.len());
    // srclint: commutative -- map-to-map rekeying; the code->fingerprint mapping is injective, so each source entry lands in a distinct key and iteration order is invisible
    for (code_key, code_accum) in code_accums {
        let mut fps = Vec::with_capacity(code_key.len());
        for code in &code_key {
            fps.push(ssl.fp(*code)?);
        }
        let mut snis = BTreeSet::new();
        for code in &code_accum.sni_codes {
            snis.insert(ssl.dict.get(*code)?.to_string());
        }
        accums.insert(
            ChainKey(fps),
            ChainAccum {
                usage: code_accum.usage,
                snis,
            },
        );
    }
    Ok(accums)
}

/// Ingest the ssl table into `state`: contiguous segment ranges on
/// `threads` workers, each folded into a [`Partial`] and merged with
/// [`PipelineState::absorb`].
fn ingest_segments(
    pipe: &Pipeline<'_>,
    state: &mut PipelineState,
    ssl: &SslSegments<'_>,
    filter: &ColFilter<'_>,
    threads: usize,
) -> ColResult<SegTally> {
    let segs = ssl.segment_count();
    let per = segs.div_ceil(threads.max(1)).max(1);
    let results: Vec<ColResult<(Partial, SegTally)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..segs)
            .step_by(per)
            .map(|lo| scope.spawn(move || fold_segments(ssl, lo..(lo + per).min(segs), filter)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("segmented ingest worker panicked"))
            .collect()
    });
    let mut parts = Vec::with_capacity(results.len());
    let mut tally = SegTally::default();
    for result in results {
        let (part, t) = result?;
        tally = tally.plus(t);
        parts.push(part);
    }
    state.absorb(parts);
    pipe.obs.finish_progress(state.records);
    Ok(tally)
}
