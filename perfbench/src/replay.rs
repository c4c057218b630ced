//! Replays of the program's operations through the public functions of
//! each layer, with a span around every layer call.
//!
//! `index_batch`/`apply` follow `Sommelier::apply`, `open` follows
//! `Sommelier::connect_or_recover`, and `QueryReplay::request` follows
//! the daemon's request path (frame parse, admission, plan-cache probe,
//! parse, plan, execute, reply encode). With a disabled tracer the same
//! code runs without recording, which is how tracing overhead is taken.

use crate::storage::TracingStorage;
use crate::trace::Tracer;
use serde::Value;
use sommelier_equiv::PairwiseCache;
use sommelier_graph::{Fingerprint, Model};
use sommelier_index::persist::{self, IndexSnapshot};
use sommelier_index::{CandidateKind, PairAnalyzer, ResourceIndex, SemanticIndex};
use sommelier_parallel::ThreadPool;
use sommelier_query::engine::EquivAnalyzer;
use sommelier_query::{
    normalize_query, parse, plan, PlanCache, QueryResult, RefSpec, SommelierConfig, SommelierReader,
};
use sommelier_repo::{
    chunks, encode_key, Manifest, ModelRepository, OnDiskRepository, MANIFEST_SUFFIX,
};
use sommelier_runtime::{ExecSetting, ResourceProfile};
use sommelier_serving::daemon::admission::{AdmissionGate, Decision};
use sommelier_serving::daemon::protocol::{ok_frame, parse_request, Op};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Work counts the layers report beside their spans.
#[derive(Default)]
pub struct Counts {
    pub analyses: AtomicU64,
    pub useful_analyses: AtomicU64,
    pub resolver_loads: AtomicU64,
    pub models_indexed: AtomicU64,
    pub requests: AtomicU64,
    pub misses: AtomicU64,
    pub candidates: AtomicU64,
    pub admitted: AtomicU64,
    pub results: AtomicU64,
    pub reply_bytes: AtomicU64,
    pub opens: AtomicU64,
    pub open_loads: AtomicU64,
    pub open_bytes_read: AtomicU64,
}

pub fn add(c: &AtomicU64, by: u64) {
    c.fetch_add(by, Ordering::Relaxed);
}

pub fn get(c: &AtomicU64) -> u64 {
    c.load(Ordering::Relaxed)
}

/// The production analyzer behind a span per pairwise analysis.
struct TimedAnalyzer {
    inner: EquivAnalyzer,
    tracer: Arc<Tracer>,
    counts: Arc<Counts>,
}

impl TimedAnalyzer {
    fn timed(&self, f: impl FnOnce() -> Option<f64>) -> Option<f64> {
        let out = self.tracer.span("equiv.pair", 0, f);
        add(&self.counts.analyses, 1);
        if out.is_some() {
            add(&self.counts.useful_analyses, 1);
        }
        out
    }
}

impl PairAnalyzer for TimedAnalyzer {
    fn whole_diff(&self, reference: &Model, candidate: &Model) -> Option<f64> {
        self.timed(|| self.inner.whole_diff(reference, candidate))
    }

    fn segment_diff(&self, host: &Model, donor: &Model) -> Option<f64> {
        self.timed(|| self.inner.segment_diff(host, donor))
    }

    fn cached_whole_diff(&self, a: Fingerprint, b: Fingerprint) -> Option<Option<f64>> {
        self.inner.cached_whole_diff(a, b)
    }

    fn cached_segment_diff(&self, a: Fingerprint, b: Fingerprint) -> Option<Option<f64>> {
        self.inner.cached_segment_diff(a, b)
    }
}

/// The builder side of an engine, held by the benchmark: both indices,
/// the analyzer (with its pairwise cache) and the publication epoch.
pub struct IndexState {
    pub tracer: Arc<Tracer>,
    pub counts: Arc<Counts>,
    pub semantic: SemanticIndex,
    pub resource: ResourceIndex,
    pub cache: Arc<PairwiseCache>,
    analyzer: TimedAnalyzer,
    pool: ThreadPool,
    setting: ExecSetting,
    pub epoch: u64,
}

impl IndexState {
    /// Fresh indices configured like `Sommelier::connect`.
    pub fn new(tracer: Arc<Tracer>, cfg: &SommelierConfig) -> Self {
        let semantic = SemanticIndex::new(cfg.index, cfg.seed);
        let resource = ResourceIndex::new(cfg.lsh, cfg.seed);
        let cache = Arc::new(PairwiseCache::new(cfg.cache_cap));
        let counts = Arc::new(Counts::default());
        IndexState {
            analyzer: TimedAnalyzer {
                inner: EquivAnalyzer::new(
                    cfg.equiv,
                    cfg.segment_epsilon,
                    cfg.validation_rows,
                    cfg.seed,
                )
                .with_cache(Arc::clone(&cache)),
                tracer: Arc::clone(&tracer),
                counts: Arc::clone(&counts),
            },
            tracer,
            counts,
            semantic,
            resource,
            cache,
            pool: ThreadPool::new(cfg.jobs.max(1)),
            setting: cfg.exec_setting.clone(),
            epoch: 0,
        }
    }

    /// Persist the indices as a `.somb` snapshot at the current epoch.
    pub fn save(&self, path: &Path) {
        persist::save_binary(&self.semantic, &self.resource, self.epoch, path)
            .expect("snapshot saves into the work directory");
    }
}

/// Index already-published models: profile them, apply them to the
/// semantic index in one analysis fan-out, insert their profiles.
pub fn index_batch(state: &mut IndexState, repo: &OnDiskRepository, models: &[Model], req: u64) {
    let tracer = &state.tracer;
    let profiles: Vec<ResourceProfile> = models
        .iter()
        .map(|m| {
            tracer.span("profile.under", req, || {
                ResourceProfile::under(m, &state.setting)
            })
        })
        .collect();
    let counts = &state.counts;
    let resolve = |key: &str| {
        add(&counts.resolver_loads, 1);
        tracer.span("repo.load", req, || repo.load(key).ok())
    };
    let (semantic, pool, analyzer) = (&mut state.semantic, &state.pool, &state.analyzer);
    tracer.span("semantic.apply_batch", req, || {
        semantic.apply_batch_with(pool, &[], models, &resolve, analyzer)
    });
    let resource = &mut state.resource;
    tracer.span("resource.insert", req, || {
        for (m, p) in models.iter().zip(&profiles) {
            resource.insert(&m.name, *p);
        }
    });
    add(&counts.models_indexed, models.len() as u64);
    state.epoch += 1;
}

/// One `sommelier add` + reload as the layers see it: publish the flat
/// model, then index it.
pub fn apply(state: &mut IndexState, repo: &OnDiskRepository, model: &Model, req: u64) {
    let tracer = Arc::clone(&state.tracer);
    tracer.span("engine.apply", req, || {
        tracer.span("repo.publish", req, || {
            repo.publish(&model.name, model, false)
                .expect("publisher keys are fresh")
        });
        index_batch(state, repo, std::slice::from_ref(model), req);
    });
}

/// How each key of a store is laid out, so the open replay can name
/// its load spans without extra filesystem calls.
pub type Layouts = HashMap<String, bool>;

/// Replay of an open: the repository, the snapshot read and one load
/// per indexed key, as `Sommelier::connect_or_recover` does them.
pub fn open(
    tracer: &Tracer,
    counts: &Counts,
    storage: &Arc<TracingStorage>,
    dir: &Path,
    snapshot: &Path,
    chunked: &Layouts,
    req: u64,
) -> (OnDiskRepository, IndexSnapshot) {
    let before = storage.snapshot();
    let out = tracer.span("open", req, || {
        let repo = tracer.span("repo.open", req, || {
            OnDiskRepository::open_with(
                dir,
                Arc::clone(storage) as Arc<dyn sommelier_fault::Storage>,
            )
            .expect("store opens")
        });
        let (snap, _) = tracer.span("persist.read_snapshot", req, || {
            persist::read_snapshot_sniffed_with(storage.as_ref(), snapshot).expect("snapshot reads")
        });
        for key in snap.semantic.keys() {
            match chunked.get(key) {
                Some(&is_chunked) => {
                    materialize(tracer, &repo, storage, dir, key, is_chunked, req);
                }
                None => {
                    tracer.span("repo.load_missing", req, || repo.load(key).ok());
                }
            }
            add(&counts.open_loads, 1);
        }
        (repo, snap)
    });
    add(&counts.opens, 1);
    add(
        &counts.open_bytes_read,
        storage.snapshot().since(&before).bytes_read,
    );
    out
}

/// Replay of a materialize: flat keys load directly; manifest keys are
/// read, their base loaded, and the chunks reconstructed.
pub fn materialize(
    tracer: &Tracer,
    repo: &OnDiskRepository,
    storage: &TracingStorage,
    dir: &Path,
    key: &str,
    chunked: bool,
    req: u64,
) -> Option<Model> {
    if !chunked {
        return tracer.span("repo.load_flat", req, || repo.load(key).ok());
    }
    use sommelier_fault::Storage;
    tracer.span("repo.load_manifest", req, || {
        let path = dir.join(format!("{}{MANIFEST_SUFFIX}", encode_key(key)));
        let bytes = storage.read(&path).ok()?;
        let manifest = Manifest::from_json(std::str::from_utf8(&bytes).ok()?).ok()?;
        let base = match &manifest.base {
            Some(b) => Some(repo.load(b).ok()?),
            None => None,
        };
        let store = repo.chunk_store();
        tracer.span("chunks.reconstruct", req, || {
            chunks::reconstruct(&manifest, base.as_ref(), &store).ok()
        })
    })
}

/// A query result as the daemon puts it on the wire.
pub fn result_value(r: &QueryResult) -> Value {
    let kind = match &r.kind {
        CandidateKind::Whole => Value::Str("whole".to_string()),
        CandidateKind::Transitive { via } => Value::Map(vec![
            ("transitive".to_string(), Value::Bool(true)),
            ("via".to_string(), Value::Str(via.clone())),
        ]),
        CandidateKind::Synthesized { donor } => Value::Map(vec![
            ("synthesized".to_string(), Value::Bool(true)),
            ("donor".to_string(), Value::Str(donor.clone())),
        ]),
    };
    Value::Map(vec![
        ("key".to_string(), Value::Str(r.key.clone())),
        ("score".to_string(), Value::Float(r.score)),
        ("diff_bound".to_string(), Value::Float(r.diff_bound)),
        ("memory_mb".to_string(), Value::Float(r.profile.memory_mb)),
        ("gflops".to_string(), Value::Float(r.profile.gflops)),
        ("latency_ms".to_string(), Value::Float(r.profile.latency_ms)),
        ("kind".to_string(), kind),
    ])
}

/// A `query` request frame as a client sends it.
pub fn query_frame(id: u64, text: &str) -> String {
    let v = Value::Map(vec![
        ("id".to_string(), Value::UInt(id)),
        ("op".to_string(), Value::Str("query".to_string())),
        ("text".to_string(), Value::Str(text.to_string())),
    ]);
    serde_json::to_string(&v).expect("value trees serialize")
}

/// The daemon's request path for `query` frames, replayed in process
/// against a real engine's pinned snapshot.
pub struct QueryReplay {
    reader: SommelierReader,
    gate: AdmissionGate,
    cache: PlanCache,
    pool: ThreadPool,
}

impl QueryReplay {
    pub fn new(reader: SommelierReader, cfg: &SommelierConfig, workers: usize) -> Self {
        QueryReplay {
            reader,
            gate: AdmissionGate::new(workers, 16),
            cache: PlanCache::new(cfg.query_cache_cap),
            pool: ThreadPool::new(cfg.jobs.max(1)),
        }
    }

    pub fn cache_stats(&self) -> sommelier_query::PlanCacheStats {
        self.cache.stats()
    }

    /// Serve one request frame; `None` when any stage fails.
    pub fn request(
        &self,
        tracer: &Tracer,
        counts: &Counts,
        id: u64,
        frame: &str,
    ) -> Option<Vec<QueryResult>> {
        tracer.span("request", id, || {
            let request = tracer
                .span("daemon.parse_request", id, || parse_request(frame))
                .ok()?;
            let Op::Query { text } = request.op else {
                return None;
            };
            let permit = match tracer.span("daemon.admit", id, || self.gate.admit()) {
                Decision::Admitted(p) => p,
                _ => return None,
            };
            let snap = self.reader.snapshot();
            let (hit, normalized) = tracer.span("plancache.probe", id, || {
                let normalized = normalize_query(&text);
                (self.cache.get(snap.epoch, &normalized), normalized)
            });
            let results = match hit {
                Some((_, results)) => results,
                None => {
                    add(&counts.misses, 1);
                    let ast = tracer
                        .span("parser.parse", id, || parse(&normalized))
                        .ok()?;
                    let RefSpec::Named(reference) = &ast.reference else {
                        return None;
                    };
                    let profile = *snap.resource.profile_of(reference)?;
                    let planned = tracer.span("plan.plan", id, || plan(&ast, reference, &profile));
                    let candidates = tracer.span("semantic.lookup", id, || {
                        snap.semantic
                            .lookup_key(&planned.reference_key, planned.min_score)
                            .iter()
                            .filter(|c| c.key != planned.reference_key)
                            .count()
                    });
                    add(&counts.candidates, candidates as u64);
                    if candidates > 0 && planned.limit > 0 && planned.min_score <= 1.0 {
                        let admitted = tracer.span("resource.query_with", id, || {
                            snap.resource
                                .query_with(&self.pool, &planned.constraint)
                                .len()
                        });
                        add(&counts.admitted, admitted as u64);
                    }
                    let results = tracer
                        .span("engine.execute", id, || self.reader.query_ast(&ast))
                        .ok()?;
                    add(&counts.results, results.len() as u64);
                    self.cache
                        .insert(snap.epoch, &normalized, planned, results.clone());
                    results
                }
            };
            tracer.span("daemon.complete", id, || permit.complete());
            let frame = tracer.span("daemon.encode_reply", id, || {
                ok_frame(
                    id,
                    vec![
                        ("epoch".to_string(), Value::UInt(snap.epoch)),
                        ("latency_ms".to_string(), Value::Float(0.0)),
                        (
                            "results".to_string(),
                            Value::Seq(results.iter().map(result_value).collect()),
                        ),
                    ],
                )
            });
            add(&counts.requests, 1);
            add(&counts.reply_bytes, frame.len() as u64 + 1);
            Some(results)
        })
    }
}
