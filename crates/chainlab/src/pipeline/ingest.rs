//! Stage 2 — ingest: fold the ssl.log record stream into per-chain
//! accumulators, chunk by chunk.
//!
//! The engine is generic over how records arrive: the batch path feeds it
//! `&SslRecord` borrows with per-record weights, the streaming path feeds
//! it owned records at weight 1.0. Workers pull [`CHUNK`]-record batches
//! from the shared source under a mutex, so the source (for Zeek input,
//! the TSV parse) stays serialized while the folds run in parallel. At
//! most one chunk per worker is in flight, so peak memory is O(distinct
//! chains), not O(connections).
//!
//! Each worker folds into its own accumulator map and the caller merges
//! the partials with [`super::PipelineState::absorb`]. One chain's
//! connections may land in several workers. That is exact at unit
//! weight: every f64 aggregate is then a small integer, so the merged
//! sums equal the one-worker fold bit for bit, whatever chunks each
//! worker happened to pull — the root of the byte-identical-across-
//! thread-counts guarantee. Fractional weights do not re-associate, so a
//! weighted batch folds on one worker (see [`Pipeline::analyze`]).
//!
//! The columnar store folds its ssl segments with its own code-keyed
//! workers ([`super::columnar`]) but hands `PipelineState::absorb` the
//! same `Partial`s.

use super::state::PipelineState;
use super::{Pipeline, SslItem};
use crate::filtercat::CategoryOracle;
use crate::model::ChainKey;
use crate::usage::UsageStats;
use certchain_colstore::CategorySet;
use certchain_netsim::SslRecord;
use std::collections::{BTreeSet, HashMap};
use std::sync::Mutex;

/// Records a worker pulls from the source at once. Large enough to
/// amortize the source lock, small enough that in-flight memory stays
/// negligible next to the per-chain accumulators.
pub(crate) const CHUNK: usize = 8192;

/// Per-chain connection accumulator.
#[derive(Default, Clone)]
pub(crate) struct ChainAccum {
    pub(crate) usage: UsageStats,
    pub(crate) snis: BTreeSet<String>,
}

impl ChainAccum {
    /// Merge another accumulator for the same chain. Every field is a
    /// commutative aggregate (integer-valued f64 sums at unit weight,
    /// set unions), so merging per-worker partials in any order
    /// reproduces the one-worker fold.
    pub(crate) fn merge(&mut self, other: ChainAccum) {
        self.usage.merge(&other.usage);
        self.snis.extend(other.snis);
    }
}

/// Record accounting produced by one accumulation run. Every field is a
/// commutative integer sum over the record stream, so the values are
/// identical for every thread count.
///
/// Resolvability against the certificate table is not counted here: a
/// chain referencing unknown fingerprints folds like any other and is
/// excluded, with its records counted, at finalize. That is what lets
/// rotated x509/ssl files arrive and fold in any interleaving.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IngestCounts {
    /// Total ssl.log records consumed (after the row filter).
    pub(crate) records: u64,
    /// Records with an empty certificate chain (TLS 1.3 connections).
    pub(crate) no_chain: u64,
}

/// One worker's share of a fold: its accumulator map and counts.
pub(crate) type Partial = (HashMap<ChainKey, ChainAccum>, IngestCounts);

/// Fold one resolvable record into its chain's accumulator.
fn fold(accums: &mut HashMap<ChainKey, ChainAccum>, rec: &SslRecord, weight: f64) {
    // Probe with the borrowed fingerprint slice first; a `ChainKey` is
    // only allocated the first time a chain is seen.
    if !accums.contains_key(rec.cert_chain_fps.as_slice()) {
        accums.insert(ChainKey(rec.cert_chain_fps.clone()), ChainAccum::default());
    }
    let entry = accums
        .get_mut(rec.cert_chain_fps.as_slice())
        .expect("present or just inserted");
    entry.usage.add(
        rec.established,
        rec.server_name.is_some(),
        rec.resp_p,
        rec.orig_h,
        weight,
    );
    if let Some(sni) = &rec.server_name {
        entry.snis.insert(sni.clone());
    }
}

/// Fold one pulled chunk into a worker's partial. The row filter (port,
/// SNI, then the chain's structural category) runs before any counter
/// moves: rejected records are invisible, which is what makes
/// whole-segment zone-map and category-digest skipping in the columnar
/// path equivalent to this per-record test.
fn fold_chunk<B: SslItem>(
    pipe: &Pipeline<'_>,
    chunk: Vec<(B, f64)>,
    categories: Option<(CategorySet, &CategoryOracle)>,
    (accums, counts): &mut Partial,
) {
    for (item, weight) in chunk {
        let rec = item.borrow();
        if !pipe
            .options
            .filter
            .admits(rec.resp_p, rec.server_name.as_deref())
        {
            continue;
        }
        if let Some((set, oracle)) = categories {
            if !set.contains(oracle.category(&rec.cert_chain_fps)) {
                continue;
            }
        }
        counts.records += 1;
        if rec.cert_chain_fps.is_empty() {
            counts.no_chain += 1;
            continue;
        }
        fold(accums, rec, weight);
    }
}

/// Fold the record stream on `threads` workers into per-worker partials
/// (no certificate resolution — see [`IngestCounts`]); callers merge them
/// into `state` with [`PipelineState::absorb`].
///
/// A category row filter is resolved against `state`'s certificate
/// table, so the x509 side must have fully folded first — a partial
/// table would call resolvable chains `incomplete`.
pub(crate) fn accumulate<B, I>(
    pipe: &Pipeline<'_>,
    state: &PipelineState,
    records: I,
    threads: usize,
) -> Vec<Partial>
where
    B: SslItem,
    I: Iterator<Item = (B, f64)> + Send,
{
    let trace = pipe.obs.trace_span("pipeline.ingest");
    let oracle = pipe
        .options
        .filter
        .categories
        .map(|set| (set, state.category_oracle(pipe.trust)));
    let categories = oracle.as_ref().map(|(set, oracle)| (*set, oracle));
    // The source plus the number of records pulled from it so far (the
    // progress count: records read, before the row filter).
    let source = Mutex::new((records.fuse(), 0u64));
    let worker = || {
        let mut part = Partial::default();
        loop {
            let (chunk, pulled) = {
                let mut guard = source.lock().expect("ingest source poisoned");
                let (records, pulled) = &mut *guard;
                let chunk: Vec<(B, f64)> = records.by_ref().take(CHUNK).collect();
                *pulled += chunk.len() as u64;
                (chunk, *pulled)
            };
            if chunk.is_empty() {
                return part;
            }
            pipe.obs.tick(pulled);
            fold_chunk(pipe, chunk, categories, &mut part);
        }
    };
    let parts: Vec<Partial> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.max(1)).map(|_| scope.spawn(worker)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("ingest worker panicked"))
            .collect()
    });
    let (_, pulled) = source.into_inner().expect("ingest source poisoned");
    pipe.obs.finish_progress(pulled);
    if let Some(t) = &trace {
        let records: u64 = parts.iter().map(|(_, counts)| counts.records).sum();
        t.attr("records", records.to_string());
        t.attr("workers", parts.len().to_string());
    }
    parts
}
