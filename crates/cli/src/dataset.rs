//! On-disk dataset layout shared by `generate` and `analyze`.
//!
//! ```text
//! <dir>/
//!   ssl.log            Zeek-format TLS connection log
//!   x509.log           Zeek-format certificate log
//!   colstore/          columnar store (optional; preferred when present)
//!     dataset.json          versioned manifest
//!     *.dat, ssl.*, x509.*  one file per column
//!   trust/roots/*.pem       trusted root certificates (all programs)
//!   trust/ccadb/*.pem       CCADB-listed intermediates
//!   ct/*.pem                CT-logged certificates (crt.sh-style corpus)
//!   crosssign.tsv           subject<TAB>alternate-issuer disclosure pairs
//!   sample-chain.pem        one delivered chain, for `certchain validate`
//! ```
//!
//! A dataset carries its logs as Zeek TSV, as a columnar store, or both.
//! [`detect_format`] prefers the columnar store when a manifest is
//! present (it skips the parse stage entirely); `--format` overrides.

use crate::{io_ctx, CliError, CliResult};
use certchain_chainlab::{CrossSignRegistry, Pipeline, PipelineOptions};
use certchain_ctlog::DomainIndex;
use certchain_trust::TrustDb;
use certchain_x509::{pem, Certificate, DistinguishedName};
use std::path::Path;
use std::sync::Arc;

/// How a dataset's log tables are stored on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetFormat {
    /// Zeek TSV logs (`ssl.log` / `x509.log`).
    Tsv,
    /// Columnar store under `colstore/` (`certchain-colstore/v1`).
    Columnar,
}

impl DatasetFormat {
    /// Parse a `--format` argument.
    pub fn parse(s: &str) -> CliResult<DatasetFormat> {
        match s {
            "tsv" => Ok(DatasetFormat::Tsv),
            "columnar" => Ok(DatasetFormat::Columnar),
            other => Err(CliError::Invalid(format!(
                "unknown format {other:?} (expected tsv or columnar)"
            ))),
        }
    }
}

/// The columnar store directory of a dataset.
pub fn colstore_dir(dir: &Path) -> std::path::PathBuf {
    dir.join(certchain_colstore::STORE_DIR)
}

/// Detect which log representation to analyze: the columnar store when a
/// manifest is present (no parse stage), Zeek TSV otherwise. A manifest
/// that exists but fails the schema/version check is an error spelling
/// out expected vs found — a newer- or older-format store must never
/// silently fall back to re-parsing possibly stale TSV.
pub fn detect_format(dir: &Path) -> CliResult<DatasetFormat> {
    let store = colstore_dir(dir);
    if store.join(certchain_colstore::MANIFEST_FILE).is_file() {
        certchain_colstore::Manifest::load(&store)
            .map_err(|e| CliError::Invalid(format!("{}: {e}", store.display())))?;
        return Ok(DatasetFormat::Columnar);
    }
    Ok(DatasetFormat::Tsv)
}

/// Read every `*.pem` file under `dir` (non-recursive) into certificates.
pub fn read_pem_dir(dir: &Path) -> CliResult<Vec<Arc<Certificate>>> {
    let mut certs = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(io_ctx(format!("reading {}", dir.display())))?;
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().map(|e| e == "pem").unwrap_or(false))
        .collect();
    paths.sort();
    for path in paths {
        let text = std::fs::read_to_string(&path)
            .map_err(io_ctx(format!("reading {}", path.display())))?;
        let blocks = pem::decode_all("CERTIFICATE", &text)
            .map_err(|e| CliError::Invalid(format!("{}: {e}", path.display())))?;
        for der in blocks {
            let cert = Certificate::parse(&der)
                .map_err(|e| CliError::Invalid(format!("{}: {e}", path.display())))?;
            certs.push(cert.into_arc());
        }
    }
    Ok(certs)
}

/// Load the trust databases from `<dir>/trust/`.
pub fn load_trust(dir: &Path) -> CliResult<TrustDb> {
    let mut trust = TrustDb::new();
    let roots_dir = dir.join("trust/roots");
    for root in read_pem_dir(&roots_dir)? {
        trust.add_root_everywhere(root);
    }
    let ccadb_dir = dir.join("trust/ccadb");
    if ccadb_dir.is_dir() {
        // Intermediates may chain through each other; insert in passes so
        // order on disk does not matter.
        let mut pending = read_pem_dir(&ccadb_dir)?;
        loop {
            let before = pending.len();
            pending.retain(|cert| {
                trust
                    .try_add_ccadb_intermediate(Arc::clone(cert), false, true)
                    .is_err()
            });
            if pending.is_empty() || pending.len() == before {
                break;
            }
        }
        if !pending.is_empty() {
            return Err(CliError::Invalid(format!(
                "{} CCADB intermediate(s) do not chain to any loaded root",
                pending.len()
            )));
        }
    }
    Ok(trust)
}

/// Load the CT corpus from `<dir>/ct/` into a crt.sh-style index.
pub fn load_ct_index(dir: &Path) -> CliResult<DomainIndex> {
    let mut index = DomainIndex::new();
    let ct_dir = dir.join("ct");
    if ct_dir.is_dir() {
        for cert in read_pem_dir(&ct_dir)? {
            index.add(cert);
        }
    }
    Ok(index)
}

/// The reference material every analysis is configured from: the
/// trust databases, the CT index and the cross-sign registry.
pub struct Corpus {
    /// Trust databases from `<dir>/trust/`.
    pub trust: TrustDb,
    /// CT corpus from `<dir>/ct/`.
    pub ct: DomainIndex,
    /// Cross-signing disclosures from `<dir>/crosssign.tsv`.
    pub crosssign: CrossSignRegistry,
}

impl Corpus {
    /// Load a dataset's trust material, CT corpus and disclosures.
    pub fn load(dir: &Path) -> CliResult<Corpus> {
        Ok(Corpus {
            trust: load_trust(dir)?,
            ct: load_ct_index(dir)?,
            crosssign: CrossSignRegistry::from_disclosures(&load_crosssign(dir)?),
        })
    }

    /// A pipeline over this corpus.
    pub fn pipeline(&self, options: PipelineOptions) -> Pipeline<'_> {
        Pipeline::with_options(&self.trust, &self.ct, self.crosssign.clone(), options)
    }
}

/// Load cross-signing disclosures from `<dir>/crosssign.tsv`.
pub fn load_crosssign(dir: &Path) -> CliResult<Vec<(DistinguishedName, DistinguishedName)>> {
    let path = dir.join("crosssign.tsv");
    if !path.is_file() {
        return Ok(Vec::new());
    }
    let text =
        std::fs::read_to_string(&path).map_err(io_ctx(format!("reading {}", path.display())))?;
    let mut pairs = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (subject, issuer) = line.split_once('\t').ok_or_else(|| {
            CliError::Invalid(format!("crosssign.tsv line {}: missing tab", lineno + 1))
        })?;
        let parse = |s: &str| {
            DistinguishedName::parse_rfc4514(s).ok_or_else(|| {
                CliError::Invalid(format!("crosssign.tsv line {}: bad DN {s:?}", lineno + 1))
            })
        };
        pairs.push((parse(subject)?, parse(issuer)?));
    }
    Ok(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use certchain_asn1::Asn1Time;
    use certchain_cryptosim::KeyPair;
    use certchain_x509::{CertificateBuilder, Validity};

    fn tempdir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("certchain-cli-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_pem(path: &Path, cert: &Certificate) {
        std::fs::write(path, pem::encode("CERTIFICATE", cert.der())).unwrap();
    }

    #[test]
    fn pem_dir_round_trip() {
        let dir = tempdir("pemdir");
        let kp = KeyPair::derive(1, "cli:root");
        let dn = DistinguishedName::cn("CLI Root");
        let cert = CertificateBuilder::new()
            .issuer(dn.clone())
            .subject(dn)
            .validity(Validity::days_from(Asn1Time::from_unix(0), 10))
            .ca(None)
            .sign(&kp);
        write_pem(&dir.join("root.pem"), &cert);
        std::fs::write(dir.join("ignored.txt"), "not pem").unwrap();
        let certs = read_pem_dir(&dir).unwrap();
        assert_eq!(certs.len(), 1);
        assert_eq!(certs[0].fingerprint(), cert.fingerprint());
    }

    #[test]
    fn load_trust_resolves_chained_intermediates_in_any_order() {
        let dir = tempdir("trust");
        std::fs::create_dir_all(dir.join("trust/roots")).unwrap();
        std::fs::create_dir_all(dir.join("trust/ccadb")).unwrap();
        let root_kp = KeyPair::derive(2, "cli:root2");
        let root_dn = DistinguishedName::cn("CLI Root 2");
        let root = CertificateBuilder::new()
            .issuer(root_dn.clone())
            .subject(root_dn.clone())
            .validity(Validity::days_from(Asn1Time::from_unix(0), 100))
            .ca(None)
            .sign(&root_kp);
        let ica_kp = KeyPair::derive(2, "cli:ica");
        let ica_dn = DistinguishedName::cn("CLI ICA");
        let ica = CertificateBuilder::new()
            .issuer(root_dn)
            .subject(ica_dn.clone())
            .validity(Validity::days_from(Asn1Time::from_unix(0), 100))
            .public_key(ica_kp.public().clone())
            .ca(None)
            .sign(&root_kp);
        let sub_kp = KeyPair::derive(2, "cli:sub");
        let sub = CertificateBuilder::new()
            .issuer(ica_dn)
            .subject(DistinguishedName::cn("CLI Sub ICA"))
            .validity(Validity::days_from(Asn1Time::from_unix(0), 100))
            .public_key(sub_kp.public().clone())
            .ca(None)
            .sign(&ica_kp);
        write_pem(&dir.join("trust/roots/root.pem"), &root);
        // Deliberately name the deeper intermediate so it sorts FIRST.
        write_pem(&dir.join("trust/ccadb/a-sub.pem"), &sub);
        write_pem(&dir.join("trust/ccadb/b-ica.pem"), &ica);
        let trust = load_trust(&dir).unwrap();
        assert!(trust.is_listed_subject(&DistinguishedName::cn("CLI ICA")));
        assert!(trust.is_listed_subject(&DistinguishedName::cn("CLI Sub ICA")));
    }

    #[test]
    fn crosssign_tsv_parses() {
        let dir = tempdir("xsign");
        std::fs::write(
            dir.join("crosssign.tsv"),
            "# comment\nCN=ICA\tCN=Alt Root\n",
        )
        .unwrap();
        let pairs = load_crosssign(&dir).unwrap();
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].0.common_name(), Some("ICA"));
        // Missing file → empty.
        assert!(load_crosssign(&tempdir("xsign-empty")).unwrap().is_empty());
    }
}
