//! `sommelier-lint` — execution-free static analysis for Sommelier.
//!
//! The paper's pitch is *curation*: a repository operator should learn
//! about broken or suspicious artifacts before queries trip over them.
//! This crate is the curation gate. It runs a configurable set of
//! [`Pass`]es over a [`LintContext`] — the stored models, the persisted
//! indices, and (optionally) query ASTs — and aggregates structured
//! [`Diagnostic`]s into a [`LintReport`]. Nothing is executed: every
//! check is static, so linting an entire repository is cheap enough to
//! gate CI on.
//!
//! Three pass families ship by default:
//!
//! * **model graph** ([`passes::model`]) — dead layers, width
//!   bottlenecks that zero error propagation, suspicious activation
//!   orderings, family cost outliers, serde round-trip drift, all-zero
//!   weights (`SOM001`–`SOM007`);
//! * **repository & index invariants** ([`passes::index`]) — dangling
//!   keys, unsorted candidate lists, LSH buckets referencing missing
//!   resource vectors, transitive-bound triangle violations, stale
//!   snapshots, score/bound disagreement (`SOM020`–`SOM027`);
//! * **query plans** ([`passes::plan`]) — unsatisfiable `WITHIN`
//!   thresholds, statically empty resource budgets, shadowed
//!   predicates, references that prune to nothing (`SOM040`–`SOM044`);
//! * **snapshot stats header** ([`passes::stats`]) — missing,
//!   unknown-version, negative, or content-inconsistent metrics headers
//!   in persisted snapshots (`SOM050`–`SOM053`);
//! * **binary snapshot image** ([`passes::binary`]) — header/section
//!   CRC mismatches, slab-shape violations, and non-finite slab lanes
//!   in `.somb` binary snapshots (`SOM054`–`SOM056`);
//! * **publication epoch** ([`passes::epoch`]) — regressed or missing
//!   publication epochs and candidates referencing keys the snapshot
//!   never registered (`SOM060`–`SOM062`);
//! * **store hygiene** ([`passes::store`]) — quarantined artifacts,
//!   orphaned temp files from interrupted atomic writes, model files
//!   whose names are not canonical key encodings, unlistable store
//!   directories, and chunk-store hygiene: manifests referencing
//!   missing chunks, chunks no manifest references, delta manifests
//!   with missing or cyclic base chains, and chunks whose bytes no
//!   longer match their hash (`SOM070`–`SOM077`). The same pass
//!   reports what the context loader could not read (`SOM007`,
//!   `SOM027`), and `sommelier fsck` repairs from its findings.
//!
//! On top of the shallow families sits the *deep audit*: an
//! abstract-interpretation [`dataflow`] engine feeding the
//! [`passes::deep`] family (`SOM080`–`SOM093`) — shape-incompatible
//! edges, non-finite weights, unreachable subgraphs, saturated
//! activations, constant outputs, rank-collapsed matmuls, declared-cost
//! drift, and the repository ↔ index ↔ snapshot consistency join. The
//! [`audit::Auditor`] runs everything in parallel with per-model
//! results memoized by fingerprint, so re-auditing an unchanged
//! repository is nearly free.
//!
//! The CLI exposes all of this as `sommelier lint <dir>` (shallow,
//! sequential) and `sommelier audit <dir>` (everything, parallel,
//! incremental).

pub mod audit;
pub mod dataflow;
pub mod deny;
pub mod diagnostics;
pub mod passes;

pub use audit::{AuditOutcome, Auditor};
pub use deny::DenySpec;
pub use diagnostics::{codes, Diagnostic, LintReport, Severity};

use sommelier_graph::Model;
use sommelier_index::{persist, ResourceIndex, SemanticIndex};
use sommelier_query::Query;
use sommelier_repo::{
    decode_key, encode_key, is_chunk_name, Manifest, ModelRepository,
    OnDiskRepository, CHUNK_DIR, CHUNK_SUFFIX, MANIFEST_SUFFIX, MODEL_SUFFIX,
};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::SystemTime;

/// Everything a lint run can look at. All fields are optional-by-shape:
/// passes skip whatever is absent, so the same runner lints a bare
/// directory of models, a fully indexed repository, or a single query.
#[derive(Default)]
pub struct LintContext {
    /// Stored models as `(repository key, model)`.
    pub models: Vec<(String, Model)>,
    /// The semantic index, if a snapshot was available.
    pub semantic: Option<SemanticIndex>,
    /// The resource index, if a snapshot was available.
    pub resource: Option<ResourceIndex>,
    /// The snapshot's content-derived stats header, if present.
    pub snapshot_stats: Option<persist::SnapshotStats>,
    /// Raw bytes of a binary (`.somb`) snapshot image, when the
    /// repository's index is the binary format. The
    /// [`passes::binary::BinarySnapshotPass`] scans these directly, so
    /// CRC and slab findings survive even when the image is too damaged
    /// to decode into `semantic`/`resource`.
    pub binary_snapshot: Option<Vec<u8>>,
    /// Modification time of the index snapshot file.
    pub index_mtime: Option<SystemTime>,
    /// Modification times of stored model files, keyed like `models`.
    pub model_mtimes: Vec<(String, SystemTime)>,
    /// Raw file names of the store directory (for hygiene lints).
    pub store_files: Vec<String>,
    /// Raw file names inside the store's `chunks/` namespace.
    pub chunk_files: Vec<String>,
    /// Parsed chunk manifests as `(file name, manifest)` — the
    /// store-hygiene pass checks chunk references and delta base
    /// chains against these.
    pub manifests: Vec<(String, Manifest)>,
    /// Canonical chunk files (names inside `chunks/`) whose bytes no
    /// longer hash to their name, or cannot be read.
    pub corrupt_chunks: BTreeSet<String>,
    /// Stored models that failed to load.
    pub unreadable_models: Vec<UnreadableModel>,
    /// The index snapshot that failed to read, as `(file name, error)`.
    pub snapshot_error: Option<(String, String)>,
    /// Why the store directory could not be listed, if it could not.
    pub listing_error: Option<String>,
    /// Queries to lint statically (parsed ASTs).
    pub queries: Vec<Query>,
}

/// A stored model that failed to load.
#[derive(Clone, Debug)]
pub struct UnreadableModel {
    /// Its repository key.
    pub key: String,
    /// The flat model or manifest file when that file itself does not
    /// parse; `None` when it parses and a chunk or delta base it depends
    /// on is at fault.
    pub file: Option<String>,
    /// The load error.
    pub error: String,
}

impl LintContext {
    /// An empty context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Load a context from an on-disk repository directory: every
    /// readable stored model, the raw store and chunk listings, every
    /// parseable manifest, a hash verdict for every chunk, the index
    /// snapshot (if present), and file modification times. Unreadable
    /// artifacts are recorded instead of failing the load — a corrupt
    /// snapshot is precisely what the lint layer exists to report.
    pub fn from_repo_dir(dir: &Path) -> Result<LintContext, String> {
        if !dir.exists() {
            return Err(format!("repository '{}' does not exist", dir.display()));
        }
        let repo = OnDiskRepository::open(dir).map_err(|e| e.to_string())?;
        let mut ctx = LintContext::new();
        // Raw directory listing: store-hygiene fodder plus model-file
        // mtimes, decoded back to the repository keys they store.
        if let Ok(entries) = std::fs::read_dir(dir) {
            let mut mtimes = BTreeMap::new();
            for entry in entries.flatten() {
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                if entry.path().is_dir() {
                    continue; // the chunks/ namespace is listed below
                }
                ctx.store_files.push(name.to_string());
                // Both representations count as "the model file" for
                // freshness: a republished manifest must stale the
                // index exactly like a republished flat file.
                let Some(key) = passes::store::model_stem(name).and_then(decode_key) else {
                    continue;
                };
                if let Ok(mtime) = entry.metadata().and_then(|m| m.modified()) {
                    let slot = mtimes.entry(key).or_insert(mtime);
                    if mtime > *slot {
                        *slot = mtime;
                    }
                }
            }
            ctx.model_mtimes = mtimes.into_iter().collect();
        }
        ctx.store_files.sort();
        for name in &ctx.store_files {
            if !name.ends_with(MANIFEST_SUFFIX) {
                continue;
            }
            let parsed = std::fs::read(dir.join(name))
                .ok()
                .and_then(|bytes| String::from_utf8(bytes).ok())
                .and_then(|json| Manifest::from_json(&json).ok());
            if let Some(manifest) = parsed {
                ctx.manifests.push((name.clone(), manifest));
            }
        }
        if let Ok(entries) = std::fs::read_dir(dir.join(CHUNK_DIR)) {
            for entry in entries.flatten() {
                if let Some(name) = entry.file_name().to_str() {
                    ctx.chunk_files.push(name.to_string());
                }
            }
        }
        ctx.chunk_files.sort();
        let chunks = repo.chunk_store();
        ctx.corrupt_chunks = ctx
            .chunk_files
            .iter()
            .filter(|name| is_chunk_name(name))
            .filter(|name| chunks.get(name.trim_end_matches(CHUNK_SUFFIX)).is_err())
            .cloned()
            .collect();
        match repo.try_keys() {
            Ok(keys) => {
                for key in keys {
                    match repo.load(&key) {
                        Ok(model) => ctx.models.push((key, model)),
                        Err(e) => {
                            let file = ctx.file_at_fault(&key);
                            ctx.unreadable_models.push(UnreadableModel {
                                key,
                                file,
                                error: e.to_string(),
                            });
                        }
                    }
                }
            }
            // A listing failure blinds every store check: report it
            // loudly rather than linting an empty-looking repository.
            Err(e) => ctx.listing_error = Some(e.to_string()),
        }
        let index_path = persist::index_path(dir);
        if index_path.exists() {
            ctx.index_mtime = std::fs::metadata(&index_path)
                .and_then(|m| m.modified())
                .ok();
            // Keep the raw image around for the binary-format lints
            // (sniffed by magic, not extension, so a renamed `.somb`
            // still gets CRC-level findings).
            if let Ok(bytes) = std::fs::read(&index_path) {
                if sommelier_index::somb::is_binary(&bytes) {
                    ctx.binary_snapshot = Some(bytes);
                }
            }
            match persist::read_snapshot(&index_path) {
                Ok(snapshot) => {
                    ctx.snapshot_stats = snapshot.stats;
                    ctx.semantic = Some(snapshot.semantic);
                    ctx.resource = Some(snapshot.resource);
                }
                Err(e) => {
                    let file = index_path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
                    ctx.snapshot_error = Some((file.to_string(), e.to_string()));
                }
            }
        }
        Ok(ctx)
    }

    /// The file to blame when `key` fails to load: its flat model file
    /// when present (the flat file wins on load), else its manifest
    /// unless that manifest parsed — then a chunk or base is at fault.
    fn file_at_fault(&self, key: &str) -> Option<String> {
        let stem = encode_key(key);
        let flat = format!("{stem}{MODEL_SUFFIX}");
        let manifest = format!("{stem}{MANIFEST_SUFFIX}");
        if self.store_files.binary_search(&flat).is_ok() {
            Some(flat)
        } else if self.manifests.iter().any(|(file, _)| *file == manifest) {
            None
        } else {
            Some(manifest)
        }
    }

    /// Whether a repository key exists among the loaded models.
    pub fn has_model(&self, key: &str) -> bool {
        self.models.iter().any(|(k, _)| k == key)
    }
}

/// One static analysis. Passes are independent: each walks the context
/// and appends findings; they never mutate what they analyze.
pub trait Pass {
    /// Stable pass name (for reporting and selection).
    fn name(&self) -> &'static str;
    /// Run the analysis, appending findings to `out`.
    fn run(&self, ctx: &LintContext, out: &mut Vec<Diagnostic>);
}

/// Aggregates passes and produces a [`LintReport`].
#[derive(Default)]
pub struct LintRunner {
    passes: Vec<Box<dyn Pass>>,
}

impl LintRunner {
    /// An empty runner (register passes manually).
    pub fn new() -> Self {
        Self::default()
    }

    /// A runner with every built-in pass registered.
    pub fn with_default_passes() -> Self {
        let mut runner = LintRunner::new();
        runner.register(Box::new(passes::model::ModelGraphPass));
        runner.register(Box::new(passes::model::ModelCostPass));
        runner.register(Box::new(passes::model::ModelRoundTripPass));
        runner.register(Box::new(passes::index::IndexIntegrityPass));
        runner.register(Box::new(passes::index::TrianglePass));
        runner.register(Box::new(passes::index::FreshnessPass));
        runner.register(Box::new(passes::plan::QueryPlanPass));
        runner.register(Box::new(passes::stats::SnapshotStatsPass));
        runner.register(Box::new(passes::binary::BinarySnapshotPass));
        runner.register(Box::new(passes::epoch::SnapshotEpochPass));
        runner.register(Box::new(passes::store::StoreHygienePass));
        runner
    }

    /// A runner with every built-in pass *plus* the deep pass family —
    /// the sequential equivalent of one [`audit::Auditor`] run.
    pub fn with_deep_passes() -> Self {
        let mut runner = LintRunner::with_default_passes();
        runner.register(Box::new(passes::deep::DeepModelPass));
        runner.register(Box::new(passes::deep::CrossArtifactPass));
        runner
    }

    /// Add a pass.
    pub fn register(&mut self, pass: Box<dyn Pass>) {
        self.passes.push(pass);
    }

    /// Names of the registered passes, in execution order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Run every pass over the context.
    pub fn run(&self, ctx: &LintContext) -> LintReport {
        let mut diagnostics = Vec::new();
        for pass in &self.passes {
            pass.run(ctx, &mut diagnostics);
        }
        LintReport::from_diagnostics(diagnostics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_runner_registers_all_families() {
        let runner = LintRunner::with_default_passes();
        let names = runner.pass_names();
        assert!(names.contains(&"model-graph"));
        assert!(names.contains(&"index-integrity"));
        assert!(names.contains(&"query-plan"));
        assert!(names.contains(&"snapshot-stats"));
        assert!(names.contains(&"binary-snapshot"));
        assert!(names.contains(&"snapshot-epoch"));
        assert!(names.contains(&"store-hygiene"));
        assert_eq!(names.len(), 11);
        let deep = LintRunner::with_deep_passes();
        let names = deep.pass_names();
        assert!(names.contains(&"deep-dataflow"));
        assert!(names.contains(&"cross-artifact"));
        assert_eq!(names.len(), 13);
    }

    #[test]
    fn empty_context_lints_clean() {
        let report = LintRunner::with_default_passes().run(&LintContext::new());
        assert!(report.is_clean(), "{}", report.render_text());
    }

    #[test]
    fn load_failures_are_carried_into_the_report() {
        let mut ctx = LintContext::new();
        ctx.snapshot_error = Some((persist::INDEX_FILE.into(), "boom".into()));
        let report = LintRunner::with_default_passes().run(&ctx);
        assert_eq!(report.max_severity(), Some(Severity::Error));
    }
}
