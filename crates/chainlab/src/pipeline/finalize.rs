//! Stages 3 and 5 — resolve and finalize: [`Pipeline::finalize_state`],
//! the one renderer every input shape ends in. It resolves a
//! [`PipelineState`]'s chains against the interned certificate table,
//! runs pass 1 and pass 2 over the sorted chains and assembles the
//! [`Analysis`].
//!
//! Everything after resolution operates on the `ChainKey`-sorted
//! `Prepared` vector, which is the single total order the determinism
//! guarantee hangs on: contiguous chunks concatenate back in order, so
//! the output sequence equals the sequential one for every thread count.

use super::categorize::{self, Prepared};
use super::ingest::ChainAccum;
use super::{resolve_threads, Analysis, ChainAnalysis, Pipeline, PipelineState};
use crate::classify::{classify, CertClass};
use crate::crosssign::CrossSignRegistry;
use crate::model::{CertRecord, ChainKey};
use certchain_x509::Fingerprint;
use std::collections::BTreeSet;
use std::sync::Arc;

impl Pipeline<'_> {
    /// Render an [`Analysis`] from `state` without consuming or mutating
    /// it: resolve chains against the interned certificate table (chains
    /// with missing fingerprints are excluded and their records counted
    /// as unresolvable), find the interception entities (pass 1), then
    /// categorize and analyze every chain (pass 2). Byte-identical for
    /// every thread count and every way the state was folded.
    pub fn finalize_state(&self, state: &PipelineState) -> Analysis {
        let threads = resolve_threads(self.options.threads);
        self.record_enrich(state.x509_rows, state.x509_unparseable, state.certs.len());
        let (mut prepared, unresolvable) = {
            let _span = self.obs.stage("resolve");
            let trace = self.obs.trace_span("pipeline.resolve");
            let resolved = prepare_state(self, state, threads);
            if let Some(t) = &trace {
                t.attr("chains", state.chains.len().to_string());
                t.attr("unresolvable", resolved.1.to_string());
            }
            resolved
        };

        // Ingest accounting: commutative integer sums plus the resolved
        // chain set's size and length distribution — all invariant across
        // thread counts by the same argument as the tables themselves.
        self.obs.add("pipeline.ssl_records", state.records);
        self.obs.add("pipeline.no_chain_records", state.no_chain);
        self.obs.add("pipeline.unresolvable_records", unresolvable);
        self.obs
            .set("pipeline.distinct_chains", prepared.len() as u64);
        if let Some(r) = &self.obs.metrics {
            let lengths = r.histogram("pipeline.chain_length");
            for p in &prepared {
                lengths.observe(p.key.0.len() as u64);
            }
        }

        // A single total order over chains: everything downstream —
        // pass-1 scans, pass-2 chunking, the output vector — derives from
        // it, which is what makes the result thread-count-invariant.
        prepared.sort_by(|a, b| a.key.cmp(&b.key));

        // Pass 1: identify interception entities via CT cross-referencing
        // over SNI-bearing observations. The paper confirmed candidates
        // "through manual investigation"; the automatic proxy here is
        // corroboration — an entity must be seen forging at least two
        // distinct domains.
        let interception_entities = {
            let _span = self.obs.stage("categorize");
            let _trace = self.obs.trace_span("pipeline.categorize");
            categorize::find_entities(self, &prepared, threads)
        };

        // Pass 2: categorize every chain and run structure analysis. The
        // effective registry is resolved once, outside the per-chain work.
        let _span = self.obs.stage("finalize");
        let trace = self.obs.trace_span("pipeline.finalize");
        if let Some(t) = &trace {
            t.attr("distinct_chains", prepared.len().to_string());
            t.attr("threads", threads.to_string());
        }
        let empty_registry = CrossSignRegistry::new();
        let registry = if self.options.honor_cross_signing {
            &self.crosssign
        } else {
            &empty_registry
        };
        let (chains, distinct) =
            analyze_chains(self, prepared, &interception_entities, registry, threads);
        let index = chains
            .iter()
            .enumerate()
            .map(|(i, chain)| (chain.key.clone(), i))
            .collect();
        let analysis = Analysis {
            chains,
            index,
            no_chain_records: state.no_chain,
            unresolvable_records: unresolvable,
            distinct_certificates: distinct.len(),
            interception_entities,
        };
        self.obs.set(
            "pipeline.distinct_certificates",
            analysis.distinct_certificates as u64,
        );
        self.obs.set(
            "pipeline.interception_entities",
            analysis.interception_entities.len() as u64,
        );
        analysis
    }
}

/// Resolve and classify the state's chains against its interned
/// certificate table, on `threads` workers over arbitrary (unsorted)
/// chunks — safe because per-chain preparation is pure and the caller
/// sorts. Returns the resolvable chains plus the unresolvable-record
/// tally (an integer sum, thread-count invariant).
fn prepare_state(
    pipe: &Pipeline<'_>,
    state: &PipelineState,
    threads: usize,
) -> (Vec<Prepared>, u64) {
    // srclint: commutative -- snapshot of a keyed map; workers chunk it arbitrarily and the caller sorts the merged output
    let entries: Vec<(&ChainKey, &ChainAccum)> = state.chains.iter().collect();
    let prepare_part = |part: &[(&ChainKey, &ChainAccum)]| {
        let mut prepared = Vec::with_capacity(part.len());
        let mut unresolvable = 0u64;
        for (key, accum) in part {
            let certs: Option<Vec<Arc<CertRecord>>> =
                key.0.iter().map(|fp| state.cert(fp).cloned()).collect();
            match certs {
                Some(certs) => {
                    let classes: Vec<CertClass> =
                        certs.iter().map(|c| classify(c, pipe.trust)).collect();
                    prepared.push(Prepared {
                        key: (*key).clone(),
                        certs,
                        classes,
                        snis: accum.snis.clone(),
                        usage: accum.usage.clone(),
                    });
                }
                None => unresolvable += accum.usage.records,
            }
        }
        (prepared, unresolvable)
    };
    if threads <= 1 || entries.len() < 2 {
        return prepare_part(&entries);
    }
    let chunk = entries.len().div_ceil(threads);
    let parts: Vec<(Vec<Prepared>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = entries
            .chunks(chunk)
            .map(|part| scope.spawn(|| prepare_part(part)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("prepare worker panicked"))
            .collect()
    });
    let mut prepared = Vec::with_capacity(entries.len());
    let mut unresolvable = 0u64;
    for (part, ur) in parts {
        prepared.extend(part);
        unresolvable += ur;
    }
    (prepared, unresolvable)
}

/// Pass 2: per-chain categorization and structure analysis, in parallel
/// over contiguous chunks of the sorted `prepared` vector.
fn analyze_chains(
    pipe: &Pipeline<'_>,
    prepared: Vec<Prepared>,
    entities: &BTreeSet<String>,
    registry: &CrossSignRegistry,
    threads: usize,
) -> (Vec<ChainAnalysis>, BTreeSet<Fingerprint>) {
    let total = prepared.len();
    let analyze_part = |part: Vec<Prepared>| {
        let mut chains = Vec::with_capacity(part.len());
        let mut distinct: BTreeSet<Fingerprint> = BTreeSet::new();
        for p in part {
            distinct.extend(p.key.0.iter().copied());
            chains.push(categorize::analyze_one(pipe, p, entities, registry));
        }
        (chains, distinct)
    };
    if threads <= 1 || total < 2 {
        return analyze_part(prepared);
    }
    let chunk_size = total.div_ceil(threads);
    let mut parts: Vec<Vec<Prepared>> = Vec::with_capacity(threads);
    let mut rest = prepared;
    while rest.len() > chunk_size {
        let tail = rest.split_off(chunk_size);
        parts.push(std::mem::replace(&mut rest, tail));
    }
    parts.push(rest);
    let results: Vec<(Vec<ChainAnalysis>, BTreeSet<Fingerprint>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = parts
            .into_iter()
            .map(|part| scope.spawn(|| analyze_part(part)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pass-2 worker panicked"))
            .collect()
    });
    let mut chains = Vec::with_capacity(total);
    let mut distinct = BTreeSet::new();
    for (part, part_distinct) in results {
        chains.extend(part);
        distinct.extend(part_distinct);
    }
    (chains, distinct)
}
