//! `SOM07x` — store-hygiene lints over the raw repository directory,
//! and the one store check `sommelier fsck` repairs from.
//!
//! The durability layer leaves deliberate evidence on disk: unreadable
//! snapshots are renamed to `*.corrupt-<epoch>` instead of deleted, and
//! a crash mid-`write_atomic` can strand a fully private
//! `*.tmp-<pid>-<seq>` sibling. Neither is ever *read* by the engine
//! again, so without a reporting loop they accumulate silently. This
//! pass closes that loop:
//!
//! * **unreadable models** (`SOM007`, error), **unreadable snapshots**
//!   (`SOM027`, error) and **listing failures** (`SOM073`, error) —
//!   what [`crate::LintContext::from_repo_dir`] could not load;
//! * **quarantined artifacts** (`SOM070`, warn) — a corrupt snapshot or
//!   model was found and set aside; an operator should inspect and then
//!   prune it (`sommelier fsck --prune`);
//! * **orphaned temps** (`SOM071`, warn) — an interrupted atomic write
//!   left its temp sibling behind; harmless but worth deleting
//!   (`sommelier fsck --repair`);
//! * **non-canonical model file names** (`SOM072`, warn) — a model or
//!   manifest file whose stem is not a canonical
//!   [`sommelier_repo::encode_key`] spelling. The repository will never
//!   surface it as a key, so it is effectively invisible data;
//! * **dangling chunk references** (`SOM074`, error) — a manifest
//!   names a chunk the `chunks/` namespace does not hold intact, so the
//!   model it describes cannot be reconstructed;
//! * **orphaned chunks** (`SOM075`, warn) — a chunk (or a stray
//!   non-chunk file in the chunk namespace) that no manifest
//!   references: refcount zero, wasted bytes, prunable
//!   (`sommelier fsck --repair`);
//! * **broken delta bases** (`SOM076`, error) — a delta manifest whose
//!   base key is not stored, or whose base chain cycles;
//! * **corrupt chunks** (`SOM077`, error) — a chunk whose bytes no
//!   longer hash to its name. It counts as absent for `SOM074`.
//!
//! Each store defect yields one finding. [`StoreHygienePass::findings`]
//! pairs every finding with the file at fault, so `fsck` repairs by code
//! and file without re-checking anything. The pass works off names,
//! parsed manifests and chunk verdicts captured at context-load time, so
//! it stays execution-free like every other pass.

use crate::diagnostics::{codes, Diagnostic};
use crate::{LintContext, Pass};
use sommelier_fault::storage::{is_quarantine_name, is_temp_name};
use sommelier_repo::{
    decode_key, is_chunk_name, CHUNK_DIR, CHUNK_SUFFIX, MANIFEST_SUFFIX, MODEL_SUFFIX,
};
use std::collections::{BTreeMap, BTreeSet};

/// One store defect: the diagnostic lint reports, plus the file at fault
/// as a typed value, so `sommelier fsck` can repair it without parsing
/// message text.
#[derive(Clone, Debug)]
pub struct StoreFinding {
    /// The finding as lint reports it.
    pub diagnostic: Diagnostic,
    /// The file at fault, relative to the store directory
    /// (`chunks/<name>` inside the chunk namespace). `None` when no file
    /// of its own is at fault: a listing failure, or a model that parses
    /// but fails through a chunk or delta base another finding names.
    pub file: Option<String>,
}

impl StoreFinding {
    /// A finding about `file`, targeted at it in the diagnostic too.
    fn on(file: String, diagnostic: impl FnOnce(String) -> Diagnostic) -> Self {
        StoreFinding {
            diagnostic: diagnostic(format!("file '{file}'")),
            file: Some(file),
        }
    }
}

/// Reports unreadable, quarantined, orphaned, corrupt and mis-named
/// files in the store.
pub struct StoreHygienePass;

impl Pass for StoreHygienePass {
    fn name(&self) -> &'static str {
        "store-hygiene"
    }

    fn run(&self, ctx: &LintContext, out: &mut Vec<Diagnostic>) {
        out.extend(Self::findings(ctx).into_iter().map(|f| f.diagnostic));
    }
}

impl StoreHygienePass {
    /// Every store-scope finding (`SOM007`, `SOM027`, `SOM070`–`SOM077`)
    /// with the file it is about.
    pub fn findings(ctx: &LintContext) -> Vec<StoreFinding> {
        let mut out = Vec::new();
        Self::check_load(ctx, &mut out);
        Self::check_store_files(ctx, &mut out);
        Self::check_chunks(ctx, &mut out);
        Self::check_delta_bases(ctx, &mut out);
        out
    }

    /// `SOM007`/`SOM027`/`SOM073`: what the context loader could not
    /// read.
    fn check_load(ctx: &LintContext, out: &mut Vec<StoreFinding>) {
        if let Some(error) = &ctx.listing_error {
            out.push(StoreFinding {
                diagnostic: Diagnostic::error(
                    codes::STORE_LISTING_FAILED,
                    "store",
                    format!("repository directory could not be listed: {error}"),
                ),
                file: None,
            });
        }
        for model in &ctx.unreadable_models {
            let mut diagnostic = Diagnostic::error(
                codes::MODEL_UNREADABLE,
                format!("model '{}'", model.key),
                format!("stored model could not be loaded: {}", model.error),
            );
            if model.file.is_some() {
                diagnostic = diagnostic.with_help("quarantine the file: `sommelier fsck --repair`");
            }
            out.push(StoreFinding {
                diagnostic,
                file: model.file.clone(),
            });
        }
        if let Some((file, error)) = &ctx.snapshot_error {
            out.push(StoreFinding {
                diagnostic: Diagnostic::error(
                    codes::SNAPSHOT_UNREADABLE,
                    "index-snapshot",
                    format!("unreadable index snapshot {file}: {error}"),
                )
                .with_help("rebuild it from the repository: `sommelier fsck --repair`"),
                file: Some(file.clone()),
            });
        }
    }

    /// `SOM070`–`SOM072` over the store directory itself.
    fn check_store_files(ctx: &LintContext, out: &mut Vec<StoreFinding>) {
        for name in &ctx.store_files {
            let finding = if is_quarantine_name(name) {
                StoreFinding::on(name.clone(), |target| {
                    Diagnostic::warn(
                        codes::QUARANTINED_FILE,
                        target,
                        "quarantined file from a failed load is still on disk",
                    )
                    .with_help("inspect it, then remove it with `sommelier fsck --prune`")
                })
            } else if is_temp_name(name) {
                StoreFinding::on(name.clone(), |target| {
                    Diagnostic::warn(
                        codes::ORPHANED_TEMP,
                        target,
                        "orphaned temp file from an interrupted atomic write",
                    )
                    .with_help("safe to delete: `sommelier fsck --repair`")
                })
            } else if model_stem(name).is_some_and(|stem| decode_key(stem).is_none()) {
                StoreFinding::on(name.clone(), |target| {
                    Diagnostic::warn(
                        codes::NON_CANONICAL_MODEL_FILE,
                        target,
                        "model file name is not a canonical key encoding; \
                         the repository will never list it",
                    )
                    .with_help("republish the model through the repository API and delete the file")
                })
            } else {
                continue;
            };
            out.push(finding);
        }
    }

    /// `SOM070`/`SOM071`/`SOM074`/`SOM075`/`SOM077`: the chunk
    /// namespace, and manifest chunk references against it in both
    /// directions. A corrupt chunk counts as absent.
    fn check_chunks(ctx: &LintContext, out: &mut Vec<StoreFinding>) {
        let present: BTreeSet<&str> = ctx
            .chunk_files
            .iter()
            .filter(|n| is_chunk_name(n) && !ctx.corrupt_chunks.contains(*n))
            .filter_map(|n| n.strip_suffix(CHUNK_SUFFIX))
            .collect();
        let mut referenced: BTreeSet<&str> = BTreeSet::new();
        for (file, manifest) in &ctx.manifests {
            let mut missing: Vec<&str> = Vec::new();
            for hash in manifest.chunk_refs() {
                referenced.insert(hash);
                if !present.contains(hash) {
                    missing.push(hash);
                }
            }
            missing.sort();
            missing.dedup();
            if let Some(first) = missing.first() {
                out.push(StoreFinding::on(file.clone(), |target| {
                    Diagnostic::error(
                        codes::DANGLING_CHUNK,
                        target,
                        format!(
                            "dangling chunk reference(s): {} chunk(s) missing from chunks/ \
                             or corrupt (first: {first}); the model cannot be reconstructed",
                            missing.len(),
                        ),
                    )
                    .with_help(
                        "restore the chunks or quarantine the manifest: `sommelier fsck --repair`",
                    )
                }));
            }
        }
        for name in &ctx.chunk_files {
            let file = format!("{CHUNK_DIR}/{name}");
            let finding = if is_temp_name(name) {
                StoreFinding::on(file, |target| {
                    Diagnostic::warn(
                        codes::ORPHANED_TEMP,
                        target,
                        "orphaned temp file from an interrupted chunk write",
                    )
                    .with_help("safe to delete: `sommelier fsck --repair`")
                })
            } else if is_quarantine_name(name) {
                StoreFinding::on(file, |target| {
                    Diagnostic::warn(
                        codes::QUARANTINED_FILE,
                        target,
                        "quarantined chunk is still on disk",
                    )
                    .with_help("inspect it, then remove it with `sommelier fsck --prune`")
                })
            } else if !is_chunk_name(name) {
                StoreFinding::on(file, |target| {
                    Diagnostic::warn(
                        codes::ORPHANED_CHUNK,
                        target,
                        "stray file in chunk dir is not a content-addressed chunk",
                    )
                    .with_help("no manifest can reference it; delete it: `sommelier fsck --repair`")
                })
            } else if ctx.corrupt_chunks.contains(name) {
                StoreFinding::on(file, |target| {
                    Diagnostic::error(
                        codes::CORRUPT_CHUNK,
                        target,
                        "chunk content does not match its hash",
                    )
                    .with_help(
                        "quarantine it and the manifests over it: `sommelier fsck --repair`",
                    )
                })
            } else if !referenced.contains(name.trim_end_matches(CHUNK_SUFFIX)) {
                StoreFinding::on(file, |target| {
                    Diagnostic::warn(
                        codes::ORPHANED_CHUNK,
                        target,
                        "chunk is referenced by no manifest (refcount zero)",
                    )
                    .with_help("reclaim the bytes: `sommelier fsck --repair`")
                })
            } else {
                continue;
            };
            out.push(finding);
        }
    }

    /// `SOM076`: every delta manifest's base chain must resolve to a
    /// stored key and terminate.
    fn check_delta_bases(ctx: &LintContext, out: &mut Vec<StoreFinding>) {
        // Keys stored in either representation.
        let stored: BTreeSet<String> = ctx
            .store_files
            .iter()
            .filter_map(|n| model_stem(n).and_then(decode_key))
            .collect();
        // Keys with a flat file: the flat representation wins on load,
        // so a chain passing through one terminates there.
        let flat: BTreeSet<String> = ctx
            .store_files
            .iter()
            .filter_map(|n| n.strip_suffix(MODEL_SUFFIX).and_then(decode_key))
            .collect();
        // key -> base, for manifests that delta.
        let bases: BTreeMap<String, &str> = ctx
            .manifests
            .iter()
            .filter_map(|(file, m)| {
                let key = file.strip_suffix(MANIFEST_SUFFIX).and_then(decode_key)?;
                Some((key, m.base.as_deref()?))
            })
            .collect();
        for (file, manifest) in &ctx.manifests {
            let Some(base) = manifest.base.as_deref() else {
                continue;
            };
            if !stored.contains(base) {
                out.push(StoreFinding::on(file.clone(), |target| {
                    Diagnostic::error(
                        codes::BROKEN_DELTA_BASE,
                        target,
                        format!("delta manifest's base '{base}' is not stored"),
                    )
                    .with_help("restore the base model or republish this key as a full manifest")
                }));
                continue;
            }
            let Some(key) = file.strip_suffix(MANIFEST_SUFFIX).and_then(decode_key) else {
                continue;
            };
            let mut seen = BTreeSet::new();
            let mut cur = key;
            let cyclic = loop {
                if !seen.insert(cur.clone()) {
                    break true;
                }
                if flat.contains(&cur) {
                    break false; // the flat file wins: the chain ends here
                }
                match bases.get(&cur) {
                    Some(next) => cur = (*next).to_string(),
                    None => break false,
                }
            };
            if cyclic {
                out.push(StoreFinding::on(file.clone(), |target| {
                    Diagnostic::error(
                        codes::BROKEN_DELTA_BASE,
                        target,
                        "delta manifest's base chain cycles; the model cannot be reconstructed",
                    )
                    .with_help("republish one member of the cycle as a full manifest")
                }));
            }
        }
    }
}

/// The key-encoding stem of a flat model or manifest file name.
pub(crate) fn model_stem(name: &str) -> Option<&str> {
    name.strip_suffix(MODEL_SUFFIX)
        .or_else(|| name.strip_suffix(MANIFEST_SUFFIX))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Severity;

    fn run(ctx: &LintContext) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        StoreHygienePass.run(ctx, &mut out);
        out
    }

    fn ctx_with_files(names: &[&str]) -> LintContext {
        let mut ctx = LintContext::new();
        ctx.store_files = names.iter().map(|s| s.to_string()).collect();
        ctx
    }

    #[test]
    fn clean_store_is_silent() {
        let ctx = ctx_with_files(&[
            "alpha.model.json",
            "a%2Fb.model.json",
            "sommelier.index.json",
        ]);
        assert!(run(&ctx).is_empty());
    }

    #[test]
    fn quarantined_files_warn() {
        let ctx = ctx_with_files(&["sommelier.index.json.corrupt-1700000000"]);
        let out = run(&ctx);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].code, codes::QUARANTINED_FILE);
        assert_eq!(out[0].severity, Severity::Warn);
    }

    #[test]
    fn orphaned_temps_warn() {
        let ctx = ctx_with_files(&["alpha.model.json.tmp-123-7"]);
        let out = run(&ctx);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].code, codes::ORPHANED_TEMP);
    }

    fn manifest_for(base: Option<&str>, chunks: &[&str]) -> sommelier_repo::Manifest {
        use sommelier_graph::{ModelBuilder, TaskKind};
        use sommelier_tensor::{Prng, Shape};
        let mut rng = Prng::seed_from_u64(1);
        let model = ModelBuilder::new("m", TaskKind::Other, Shape::vector(2))
            .dense(2, &mut rng)
            .build()
            .unwrap();
        let (skeleton, _) = model.strip_params();
        sommelier_repo::Manifest {
            format_version: 1,
            base: base.map(String::from),
            skeleton,
            layers: vec![sommelier_repo::chunks::LayerDelta {
                layer: 1,
                replace: true,
                weight: Some(sommelier_repo::chunks::TensorRef {
                    rows: 2,
                    cols: 2,
                    chunks: chunks.iter().map(|s| s.to_string()).collect(),
                    sparse: None,
                }),
                bias: None,
            }],
        }
    }

    fn hex(fill: char) -> String {
        fill.to_string().repeat(32)
    }

    #[test]
    fn dangling_chunk_reference_errors() {
        let mut ctx = ctx_with_files(&["m.manifest.json"]);
        let present = hex('a');
        let missing = hex('b');
        ctx.chunk_files = vec![format!("{present}.chunk")];
        ctx.manifests = vec![(
            "m.manifest.json".into(),
            manifest_for(None, &[&present, &missing]),
        )];
        let out = run(&ctx);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].code, codes::DANGLING_CHUNK);
        assert_eq!(out[0].severity, Severity::Error);
        assert!(out[0].message.contains(&missing));
    }

    #[test]
    fn orphaned_and_stray_chunks_warn() {
        let mut ctx = ctx_with_files(&["m.manifest.json"]);
        let used = hex('a');
        let orphan = hex('c');
        ctx.chunk_files = vec![
            format!("{used}.chunk"),
            format!("{orphan}.chunk"),
            "notes.txt".into(),
            format!("{used}.chunk.tmp-1-1"),
        ];
        ctx.manifests = vec![("m.manifest.json".into(), manifest_for(None, &[&used]))];
        let out = run(&ctx);
        let orphans: Vec<_> = out
            .iter()
            .filter(|d| d.code == codes::ORPHANED_CHUNK)
            .collect();
        assert_eq!(orphans.len(), 2, "{out:?}"); // refcount-zero + stray
        assert!(orphans.iter().all(|d| d.severity == Severity::Warn));
        assert!(out.iter().any(|d| d.code == codes::ORPHANED_TEMP));
    }

    #[test]
    fn missing_and_cyclic_delta_bases_error() {
        // "a" deltas on a key nobody stores.
        let mut ctx = ctx_with_files(&["a.manifest.json"]);
        ctx.manifests = vec![("a.manifest.json".into(), manifest_for(Some("ghost"), &[]))];
        let out = run(&ctx);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].code, codes::BROKEN_DELTA_BASE);

        // a -> b -> a cycle, both stored as manifests.
        let mut ctx = ctx_with_files(&["a.manifest.json", "b.manifest.json"]);
        ctx.manifests = vec![
            ("a.manifest.json".into(), manifest_for(Some("b"), &[])),
            ("b.manifest.json".into(), manifest_for(Some("a"), &[])),
        ];
        let out = run(&ctx);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().all(|d| d.code == codes::BROKEN_DELTA_BASE));

        // A healthy delta (base stored flat) is silent.
        let mut ctx = ctx_with_files(&["base.model.json", "v1.manifest.json"]);
        ctx.manifests = vec![("v1.manifest.json".into(), manifest_for(Some("base"), &[]))];
        assert!(run(&ctx).is_empty());
    }

    #[test]
    fn corrupt_chunks_error_and_count_as_absent() {
        let mut ctx = ctx_with_files(&["m.manifest.json"]);
        let bad = hex('a');
        let unused = hex('c');
        ctx.chunk_files = vec![format!("{bad}.chunk"), format!("{unused}.chunk")];
        ctx.corrupt_chunks = ctx.chunk_files.iter().cloned().collect();
        ctx.manifests = vec![("m.manifest.json".into(), manifest_for(None, &[&bad]))];
        // One finding per defect: a corrupt chunk is never also an
        // orphan, and the manifest over it dangles.
        let mut found: Vec<(String, Option<String>)> = StoreHygienePass::findings(&ctx)
            .into_iter()
            .map(|f| (f.diagnostic.code, f.file))
            .collect();
        found.sort();
        assert_eq!(
            found,
            vec![
                (codes::DANGLING_CHUNK.into(), Some("m.manifest.json".into())),
                (codes::CORRUPT_CHUNK.into(), Some(format!("chunks/{bad}.chunk"))),
                (codes::CORRUPT_CHUNK.into(), Some(format!("chunks/{unused}.chunk"))),
            ]
        );
    }

    #[test]
    fn load_failures_name_the_file_at_fault() {
        let mut ctx = LintContext::new();
        ctx.unreadable_models = vec![
            crate::UnreadableModel {
                key: "torn".into(),
                file: Some("torn.model.json".into()),
                error: "eof".into(),
            },
            crate::UnreadableModel {
                key: "delta".into(),
                file: None,
                error: "chunk missing".into(),
            },
        ];
        ctx.snapshot_error = Some(("sommelier.index.json".into(), "eof".into()));
        ctx.listing_error = Some("denied".into());
        let found: Vec<(String, Option<String>)> = StoreHygienePass::findings(&ctx)
            .into_iter()
            .map(|f| (f.diagnostic.code, f.file))
            .collect();
        assert_eq!(
            found,
            vec![
                (codes::STORE_LISTING_FAILED.into(), None),
                (codes::MODEL_UNREADABLE.into(), Some("torn.model.json".into())),
                (codes::MODEL_UNREADABLE.into(), None),
                (codes::SNAPSHOT_UNREADABLE.into(), Some("sommelier.index.json".into())),
            ]
        );
        assert!(run(&ctx).iter().all(|d| d.severity == Severity::Error));
    }

    #[test]
    fn non_canonical_model_names_warn() {
        // `%2f` decodes but is not the canonical (uppercase) spelling,
        // and a raw '/' could never appear; both are invisible to keys().
        let ctx = ctx_with_files(&["a%2fb.model.json", "nul%0.model.json"]);
        let out = run(&ctx);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|d| d.code == codes::NON_CANONICAL_MODEL_FILE));
    }
}
