//! Seeded inputs: model zoos, on-disk stores, the synthetic serving
//! index and the query texts. Everything derives from the run's seed;
//! shapes and sizes do not, so two seeds give the same amount of work
//! over different weights, profiles, references and thresholds.

use crate::replay::{self, IndexState};
use crate::trace::Tracer;
use sommelier_graph::{serde_model, Fingerprint, Model, TaskKind};
use sommelier_index::lsh::LshConfig;
use sommelier_index::persist;
use sommelier_index::semantic::{CandidateKind, CandidateRecord};
use sommelier_index::{ResourceIndex, SemanticIndex};
use sommelier_query::{Sommelier, SommelierConfig};
use sommelier_repo::{ModelRepository, OnDiskRepository};
use sommelier_runtime::ResourceProfile;
use sommelier_tensor::{mix64, Prng};
use sommelier_zoo::families::{Family, FamilyScale};
use sommelier_zoo::finetune::finetune_family;
use sommelier_zoo::series::build_series;
use sommelier_zoo::teacher::{DatasetBias, Teacher};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File name of the index snapshot inside a store directory.
pub const SNAPSHOT: &str = "sommelier.index.somb";

/// Models in the synthetic serving index.
pub const SYNTHETIC_MODELS: usize = 5_000;
/// Candidate records per synthetic entry.
pub const SYNTHETIC_CANDIDATES: usize = 12;

/// The engine configuration every workload serves with: one engine
/// lane (the daemon's admission gate governs concurrency), the plan
/// cache on, and a cheap analysis probe so set-up stays short.
pub fn engine_config() -> SommelierConfig {
    let mut cfg = SommelierConfig {
        validation_rows: 64,
        jobs: 1,
        query_cache_cap: 512,
        ..SommelierConfig::default()
    };
    cfg.index.sample_size = 4;
    cfg.index.segments = false;
    cfg
}

/// A derived seed for one named stream of the run.
pub fn stream(seed: u64, name: &str) -> u64 {
    mix64(&[seed, sommelier_tensor::stable_hash64(name.as_bytes())])
}

/// How a model lands in the store.
#[derive(Clone, Debug)]
pub enum Layout {
    Flat,
    Chunked,
    Delta { base: String },
}

/// A store's models, in publish order, with their layouts.
pub struct StorePlan {
    pub models: Vec<(Model, Layout)>,
}

impl StorePlan {
    /// Total bytes of the models as flat JSON files.
    pub fn flat_bytes(&self) -> u64 {
        self.models
            .iter()
            .map(|(m, _)| serde_model::to_json(m).len() as u64)
            .sum()
    }
}

fn teacher_and_bias(seed: u64) -> (Teacher, DatasetBias) {
    let teacher = Teacher::for_task(TaskKind::ImageRecognition, stream(seed, "teacher"));
    let bias = DatasetBias::new(&teacher, "imagenet", 0.05);
    (teacher, bias)
}

/// A fine-tune family: a base plus `variants` sparse fine-tunes.
fn family(
    seed: u64,
    fam: Family,
    name: &str,
    variants: usize,
    teacher: &Teacher,
    bias: &DatasetBias,
) -> Vec<Model> {
    let mut rng = Prng::seed_from_u64(stream(seed, name));
    let base = fam.build_scaled(
        name.to_string(),
        teacher,
        bias,
        &FamilyScale::new(0.75, 3, 0.01),
        &mut rng,
    );
    finetune_family(&base, variants, 0.34, 0.05, 0.05, &mut rng)
}

/// A series of `n` models of one family, small to large.
fn series(seed: u64, fam: Family, name: &str, n: usize) -> Vec<Model> {
    let mut rng = Prng::seed_from_u64(stream(seed, name));
    build_series(
        name,
        fam,
        TaskKind::ImageRecognition,
        "imagenet",
        n,
        stream(seed, "teacher"),
        0.08,
        &mut rng,
    )
    .models
}

/// Lay a family out as a chunked base plus delta members.
fn as_delta(models: Vec<Model>) -> Vec<(Model, Layout)> {
    let base = models[0].name.clone();
    models
        .into_iter()
        .enumerate()
        .map(|(i, m)| {
            let layout = if i == 0 {
                Layout::Chunked
            } else {
                Layout::Delta { base: base.clone() }
            };
            (m, layout)
        })
        .collect()
}

fn flat(models: Vec<Model>) -> Vec<(Model, Layout)> {
    models.into_iter().map(|m| (m, Layout::Flat)).collect()
}

/// The small real zoo beside the synthetic serving index: one delta
/// family and a short flat series.
pub fn serve_store(seed: u64) -> StorePlan {
    let (teacher, bias) = teacher_and_bias(seed);
    let mut models = as_delta(family(
        seed,
        Family::Resnetish,
        "servefam",
        1,
        &teacher,
        &bias,
    ));
    models.extend(flat(series(seed, Family::Mobilenetish, "servenet", 2)));
    StorePlan { models }
}

/// The ingest store before publishing starts, and the fine-tunes the
/// publisher adds one by one.
pub fn ingest_store(seed: u64, members: usize) -> (StorePlan, Vec<Model>) {
    let (teacher, bias) = teacher_and_bias(seed);
    let mut models = flat(series(seed, Family::Mobilenetish, "ingestnet", 3));
    let mut pending = Vec::new();
    for (i, fam) in [Family::Resnetish, Family::Efficientnetish]
        .into_iter()
        .enumerate()
    {
        let per_base = members.div_ceil(2);
        let fam_models = family(
            seed,
            fam,
            &format!("ingestfam{i}"),
            per_base,
            &teacher,
            &bias,
        );
        let mut it = fam_models.into_iter();
        // One base is chunked, as after `sommelier dedup`; the members
        // the publisher adds are flat, as `sommelier add` writes them.
        let layout = if i == 0 {
            Layout::Chunked
        } else {
            Layout::Flat
        };
        models.push((it.next().expect("family has a base"), layout));
        pending.extend(it);
    }
    // Interleave the two families so consecutive publishes alternate.
    let (a, b) = pending.split_at(members.div_ceil(2));
    let mut order: Vec<Model> = Vec::with_capacity(members);
    for i in 0..a.len().max(b.len()) {
        order.extend(a.get(i).cloned());
        order.extend(b.get(i).cloned());
    }
    order.truncate(members);
    (StorePlan { models }, order)
}

/// The cold-open store: flat series plus delta-manifest families.
pub fn cold_store(seed: u64) -> StorePlan {
    let (teacher, bias) = teacher_and_bias(seed);
    let mut models = flat(series(seed, Family::Mobilenetish, "coldnet", 4));
    models.extend(flat(series(seed, Family::Vggish, "coldvgg", 3)));
    for (i, fam) in [
        Family::Resnetish,
        Family::Efficientnetish,
        Family::Inceptionish,
    ]
    .into_iter()
    .enumerate()
    {
        models.extend(as_delta(family(
            seed,
            fam,
            &format!("coldfam{i}"),
            3,
            &teacher,
            &bias,
        )));
    }
    StorePlan { models }
}

/// Publish a plan's models into `repo` with their layouts.
pub fn publish_plan(tracer: &Tracer, repo: &OnDiskRepository, plan: &StorePlan) {
    for (model, layout) in &plan.models {
        tracer.span("repo.publish", 0, || {
            match layout {
                Layout::Flat => repo.publish(&model.name, model, false),
                Layout::Chunked => repo.publish_chunked(&model.name, model, false),
                Layout::Delta { base } => repo.publish_delta(&model.name, model, base, false),
            }
            .expect("fixture publish succeeds on a fresh store")
        });
    }
}

/// The controlled-shape synthetic index (as in the snapshot and serve
/// gates): `SYNTHETIC_MODELS` keys with `SYNTHETIC_CANDIDATES`
/// candidates each and a resource profile per key. Values come from
/// the seed; the shape does not. Generated before set-up is timed.
#[derive(Clone)]
pub struct Synthetic {
    profiles: Vec<(String, ResourceProfile)>,
    entries: Vec<(Fingerprint, String, Vec<CandidateRecord>)>,
}

impl Synthetic {
    pub fn generate(seed: u64) -> Self {
        let mut rng = Prng::seed_from_u64(stream(seed, "synthetic"));
        let keys: Vec<String> = (0..SYNTHETIC_MODELS).map(synthetic_key).collect();
        let profiles = keys
            .iter()
            .map(|key| {
                let profile = ResourceProfile {
                    memory_mb: 32.0 + rng.uniform() * 4064.0,
                    gflops: 0.5 + rng.uniform() * 40.0,
                    latency_ms: 1.0 + rng.uniform() * 90.0,
                };
                (key.clone(), profile)
            })
            .collect();
        let n = keys.len();
        let entries = keys
            .iter()
            .enumerate()
            .map(|(i, key)| {
                let fp = Fingerprint(
                    (i as u64)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(1),
                );
                let mut candidates: Vec<CandidateRecord> = (1..=SYNTHETIC_CANDIDATES)
                    .map(|j| {
                        let other = keys[(i + 1 + rng.index(n - 1)) % n].clone();
                        let diff = rng.uniform() * 0.8;
                        let kind = if j % 3 == 0 {
                            CandidateKind::Transitive {
                                via: keys[(i + j) % n].clone(),
                            }
                        } else {
                            CandidateKind::Whole
                        };
                        CandidateRecord {
                            key: other,
                            diff_bound: diff,
                            score: 1.0 - diff,
                            kind,
                        }
                    })
                    .collect();
                candidates.sort_by(|a, b| b.score.total_cmp(&a.score));
                (fp, key.clone(), candidates)
            })
            .collect();
        Synthetic { profiles, entries }
    }

    /// The synthetic index with the entries of the really indexed zoo
    /// merged in. (Applying real models onto a synthetic index would
    /// re-derive analysis samples for every synthetic key, so the zoo
    /// is indexed on its own and merged here.)
    pub fn merge(
        self,
        cfg: &SommelierConfig,
        semantic: &SemanticIndex,
        resource: &ResourceIndex,
    ) -> (SemanticIndex, ResourceIndex) {
        let mut merged = ResourceIndex::new(LshConfig::default(), cfg.seed);
        for (key, profile) in &self.profiles {
            merged.insert(key, *profile);
        }
        for (key, profile, removed) in resource.entries_audit() {
            if !removed {
                merged.insert(key, *profile);
            }
        }
        let mut entries = self.entries;
        let mut keys: Vec<String> = self.profiles.into_iter().map(|(k, _)| k).collect();
        for (fp, key, candidates) in semantic.entries_audit() {
            entries.push((fp, key.to_string(), candidates.to_vec()));
            keys.push(key.to_string());
        }
        let semantic = SemanticIndex::from_parts(cfg.index, cfg.seed, entries, keys);
        (semantic, merged)
    }
}

pub fn synthetic_key(i: usize) -> String {
    format!("hub/family-{:02}/model-{:05}", i % 37, i)
}

/// Build a store the way `sommelier add`/`dedup` + `index` do: publish
/// the plan's models with their layouts, index them with
/// `Sommelier::index_existing`, merge the synthetic serving index when
/// one is given, and save the `.somb` snapshot. Returns the snapshot
/// path and the built engine (without the synthetic entries).
pub fn build_store(
    repo: &Arc<OnDiskRepository>,
    dir: &Path,
    plan: &StorePlan,
    synthetic: Option<Synthetic>,
) -> (PathBuf, Sommelier) {
    let off = Tracer::new(false);
    publish_plan(&off, repo, plan);
    let mut engine = Sommelier::connect(
        Arc::clone(repo) as Arc<dyn ModelRepository>,
        engine_config(),
    );
    engine
        .index_existing()
        .expect("fixture models index on a fresh store");
    let snapshot = dir.join(SNAPSHOT);
    match synthetic {
        Some(synthetic) => {
            let (semantic, resource) = synthetic.merge(
                &engine_config(),
                engine.semantic_index(),
                engine.resource_index(),
            );
            persist::save_binary(&semantic, &resource, engine.epoch(), &snapshot)
                .expect("snapshot saves into the work directory");
        }
        None => engine
            .save_indices(&snapshot)
            .expect("snapshot saves into the work directory"),
    }
    (snapshot, engine)
}

/// The traced run's build: the same store, indexed through the layers
/// `Sommelier::apply` calls (see `replay::index_batch`) so each layer
/// gets its spans. Returns the index state for later replays.
pub fn build_store_replayed(
    tracer: &Arc<Tracer>,
    repo: &OnDiskRepository,
    dir: &Path,
    plan: StorePlan,
    synthetic: Option<Synthetic>,
) -> (Store, IndexState) {
    let cfg = engine_config();
    let mut state = IndexState::new(Arc::clone(tracer), &cfg);
    let models: Vec<Model> = plan.models.iter().map(|(m, _)| m.clone()).collect();
    tracer.span("engine.apply", 0, || {
        publish_plan(tracer, repo, &plan);
        replay::index_batch(&mut state, repo, &models, 0);
    });
    if let Some(synthetic) = synthetic {
        let (semantic, resource) = synthetic.merge(&cfg, &state.semantic, &state.resource);
        state.semantic = semantic;
        state.resource = resource;
    }
    let snapshot = dir.join(SNAPSHOT);
    state.save(&snapshot);
    (
        Store {
            dir: dir.to_path_buf(),
            snapshot,
            plan,
        },
        state,
    )
}

/// A built store: its directory, its snapshot and what went into it.
pub struct Store {
    pub dir: PathBuf,
    pub snapshot: PathBuf,
    pub plan: StorePlan,
}

/// A zipf-like draw over `n` ranks (rank 0 most popular).
pub fn zipf_index(rng: &mut Prng, weights: &[f64]) -> usize {
    let total = weights.last().copied().unwrap_or(1.0);
    let x = rng.uniform() * total;
    weights.partition_point(|w| *w < x).min(weights.len() - 1)
}

/// Cumulative zipf weights (exponent 1) over `n` ranks.
pub fn zipf_weights(n: usize) -> Vec<f64> {
    let mut acc = 0.0;
    (1..=n)
        .map(|r| {
            acc += 1.0 / r as f64;
            acc
        })
        .collect()
}

/// The popular texts of the hot mix: a few dozen queries over
/// synthetic references, each repeated many times. Every synthetic
/// candidate scores at least 0.2 and nothing is resource-bounded, so
/// each answer holds exactly three models whatever the seed.
pub fn hot_texts(seed: u64, n: usize) -> Vec<String> {
    let mut rng = Prng::seed_from_u64(stream(seed, "hot"));
    (0..n)
        .map(|_| {
            let reference = synthetic_key(rng.index(SYNTHETIC_MODELS));
            let within = 0.1 + rng.index(10) as f64 * 0.01;
            format!("SELECT models 3 CORR {reference} WITHIN {within:.2} ORDER BY similarity")
        })
        .collect()
}

/// The `i`-th text of the scan mix: every text is distinct (the
/// threshold carries `i`), and the reference, the constrained
/// dimensions, the ordering and the limit vary.
pub fn scan_text(rng: &mut Prng, i: u64) -> String {
    let reference = synthetic_key(rng.index(SYNTHETIC_MODELS));
    let limit = 1 + rng.index(8);
    let within = 0.15 + (i % 400_000) as f64 * 1e-6 + rng.index(5) as f64 * 0.05;
    let dims = ["memory", "flops", "latency"];
    let first = rng.index(3);
    let mut on = format!("{} <= {}%", dims[first], 150 + rng.index(800));
    if rng.flip(0.5) {
        let second = (first + 1 + rng.index(2)) % 3;
        on.push_str(&format!(
            " AND {} <= {}%",
            dims[second],
            150 + rng.index(800)
        ));
    }
    let order = ["similarity", "memory", "flops", "latency"][rng.index(4)];
    format!("SELECT models {limit} CORR {reference} ON {on} WITHIN {within:.6} ORDER BY {order}")
}

/// Query texts over a store's real keys (the ingest reader's mix and
/// the cold-open first answers).
pub fn store_text(reference: &str, within: f64) -> String {
    format!("SELECT models 5 CORR {reference} WITHIN {within:.2} ORDER BY similarity")
}

/// Which keys of a plan are stored as manifests.
pub fn chunked_keys(plan: &StorePlan) -> replay::Layouts {
    plan.models
        .iter()
        .map(|(m, l)| (m.name.clone(), !matches!(l, Layout::Flat)))
        .collect()
}

/// Model keys of a plan.
pub fn keys(plan: &StorePlan) -> Vec<String> {
    plan.models.iter().map(|(m, _)| m.name.clone()).collect()
}

/// Load every key of a store back, checking it reads.
pub fn check_loadable(repo: &OnDiskRepository, plan: &StorePlan) -> bool {
    plan.models.iter().all(|(m, _)| {
        repo.load(&m.name)
            .map(|back| Fingerprint::of_model(&back) == Fingerprint::of_model(m))
            .unwrap_or(false)
    })
}
