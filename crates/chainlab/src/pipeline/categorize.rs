//! Stage 4 — categorize: discover interception entities (pass 1), and
//! run the per-chain categorization + structure analysis body (pass 2).

use super::{ChainAnalysis, ChainCategoryLabel, Pipeline};
use crate::classify::CertClass;
use crate::crosssign::CrossSignRegistry;
use crate::dga::is_dga_chain;
use crate::hybrid::{self, HybridCategory};
use crate::interception::{detect, InterceptionVerdict};
use crate::matchpath;
use crate::model::{CertRecord, ChainKey};
use crate::usage::UsageStats;
use certchain_x509::DistinguishedName;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// A chain with resolved certificates and classes, before pass 2.
pub(crate) struct Prepared {
    pub(crate) key: ChainKey,
    pub(crate) certs: Vec<Arc<CertRecord>>,
    pub(crate) classes: Vec<CertClass>,
    pub(crate) snis: BTreeSet<String>,
    pub(crate) usage: UsageStats,
}

/// Entity key for an issuer DN: the organization when present, otherwise
/// the common name, otherwise the whole DN string. This is the unit at
/// which the paper's manual investigation grouped interception issuers.
pub fn issuer_entity(dn: &DistinguishedName) -> String {
    dn.get(&certchain_x509::dn::AttrType::Organization)
        .or_else(|| dn.common_name())
        .map(str::to_string)
        .unwrap_or_else(|| dn.to_rfc4514())
}

/// Pass-1 kernel: candidate entity → forged-domain set over `part`.
fn scan_entities<'p>(
    pipe: &Pipeline<'_>,
    part: &'p [Prepared],
) -> HashMap<String, BTreeSet<&'p str>> {
    let mut candidates: HashMap<String, BTreeSet<&'p str>> = HashMap::new();
    for p in part {
        for sni in &p.snis {
            if detect(&p.certs, Some(sni), pipe.trust, pipe.ct)
                == InterceptionVerdict::LikelyIntercepted
            {
                candidates
                    .entry(issuer_entity(&p.certs[0].issuer))
                    .or_default()
                    .insert(sni.as_str());
            }
        }
    }
    candidates
}

/// Pass 1 over the sorted chains: confirmed interception entities.
pub(crate) fn find_entities(
    pipe: &Pipeline<'_>,
    prepared: &[Prepared],
    threads: usize,
) -> BTreeSet<String> {
    let candidate_domains = if threads <= 1 || prepared.len() < 2 {
        scan_entities(pipe, prepared)
    } else {
        let chunk = prepared.len().div_ceil(threads);
        let maps: Vec<HashMap<String, BTreeSet<&str>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = prepared
                .chunks(chunk)
                .map(|part| scope.spawn(|| scan_entities(pipe, part)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("pass-1 worker panicked"))
                .collect()
        });
        // Entity → domain-set union is order-insensitive.
        let mut merged: HashMap<String, BTreeSet<&str>> = HashMap::new();
        for map in maps {
            for (entity, domains) in map {
                merged.entry(entity).or_default().extend(domains);
            }
        }
        merged
    };
    candidate_domains
        .into_iter()
        .filter_map(|(entity, domains)| {
            (domains.len() >= pipe.options.confirmation_min_domains).then_some(entity)
        })
        .collect()
}

/// The per-chain body of pass 2.
pub(crate) fn analyze_one(
    pipe: &Pipeline<'_>,
    p: Prepared,
    entities: &BTreeSet<String>,
    registry: &CrossSignRegistry,
) -> ChainAnalysis {
    let any_public = p.classes.contains(&CertClass::PublicDbIssued);
    let all_public = p.classes.iter().all(|&c| c == CertClass::PublicDbIssued);
    let entity_hit = p
        .certs
        .iter()
        .map(|c| issuer_entity(&c.issuer))
        .find(|e| entities.contains(e));
    let category = if entity_hit.is_some() {
        ChainCategoryLabel::Interception
    } else if all_public {
        ChainCategoryLabel::PublicOnly
    } else if any_public {
        ChainCategoryLabel::Hybrid
    } else {
        ChainCategoryLabel::NonPublicOnly
    };
    let path = matchpath::analyze(&p.certs, registry);
    let hybrid_category = (category == ChainCategoryLabel::Hybrid)
        .then(|| hybrid::categorize(&p.certs, &p.classes, &path));
    let pub_leaf_no_intermediate = category == ChainCategoryLabel::Hybrid
        && matches!(hybrid_category, Some(HybridCategory::NoPath(_)))
        && hybrid::has_public_leaf_without_intermediate(&p.certs, &p.classes);
    let leaf_ct_logged = match hybrid_category {
        Some(HybridCategory::CompleteNonPubToPub) => {
            Some(pipe.ct.contains_fingerprint(&p.certs[0].fingerprint))
        }
        _ => None,
    };
    let is_dga = category == ChainCategoryLabel::NonPublicOnly && is_dga_chain(&p.certs);
    ChainAnalysis {
        key: p.key,
        certs: p.certs,
        classes: p.classes,
        category,
        path,
        hybrid_category,
        pub_leaf_no_intermediate,
        is_dga,
        leaf_ct_logged,
        interception_entity: entity_hit,
        snis: p.snis,
        usage: p.usage,
    }
}
