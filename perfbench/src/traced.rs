//! The traced run: the workload's set-up and operations replayed
//! through each layer's public functions with spans, followed by a
//! short untraced replay (tracing overhead) and a short wire phase
//! against the real daemon (transport share and generator lag).

use crate::fixture::{self, Store};
use crate::replay::{self, get, Counts, IndexState, QueryReplay};
use crate::report::Outcome;
use crate::stats::{self, ms, P99};
use crate::storage::{CountSnapshot, TracingStorage};
use crate::trace::{self, Span, Tracer};
use crate::wire;
use crate::workloads::{self, Mix, Texts, WorkDir};
use sommelier_graph::Fingerprint;
use sommelier_query::{Sommelier, SommelierReader};
use sommelier_repo::{ModelRepository, OnDiskRepository};
use sommelier_serving::daemon::client::Client;
use sommelier_serving::{Daemon, DaemonConfig};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shares of `--seconds` spent in each part of the traced run.
const REPLAY_SHARE: f64 = 0.5;
const UNTRACED_SHARE: f64 = 0.15;
const WIRE_SHARE: f64 = 0.25;

/// Replayed requests kept per run, so the span buffer stays bounded.
const MAX_REQUESTS: u64 = 10_000;

/// Stages of the daemon's real request path, as replayed.
const REQUEST_STAGES: [&str; 7] = [
    "daemon.parse_request",
    "daemon.admit",
    "plancache.probe",
    "parser.parse",
    "engine.execute",
    "daemon.complete",
    "daemon.encode_reply",
];

/// Per-name totals over the spans whose index lies in `range`.
fn stats_in(
    spans: &[Span],
    selfs: &[u64],
    range: std::ops::Range<usize>,
) -> BTreeMap<&'static str, trace::NameStats> {
    let mut out: BTreeMap<&'static str, trace::NameStats> = BTreeMap::new();
    for i in range {
        let e = out.entry(spans[i].name).or_default();
        e.count += 1;
        e.total_ns += spans[i].dur_ns();
        e.self_ns += selfs[i];
    }
    out
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// The publish-side state captured at a phase boundary.
#[derive(Clone, Copy, Default)]
struct PublishMark {
    analyses: u64,
    useful: u64,
    resolver_loads: u64,
    cache_hits: u64,
    cache_misses: u64,
    io: CountSnapshot,
}

impl PublishMark {
    fn take(state: &IndexState, storage: &TracingStorage) -> Self {
        let cache = state.cache.stats();
        PublishMark {
            analyses: get(&state.counts.analyses),
            useful: get(&state.counts.useful_analyses),
            resolver_loads: get(&state.counts.resolver_loads),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            io: storage.snapshot(),
        }
    }

    fn since(&self, earlier: &PublishMark) -> PublishMark {
        PublishMark {
            analyses: self.analyses - earlier.analyses,
            useful: self.useful - earlier.useful,
            resolver_loads: self.resolver_loads - earlier.resolver_loads,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            io: self.io.since(&earlier.io),
        }
    }
}

/// What the wire phase measured against the real daemon.
#[derive(Default)]
struct Wire {
    rtt_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    accepted: u64,
    shed: u64,
    attempted: u64,
    failed: u64,
}

fn counter(reply: &serde::Value, name: &str) -> u64 {
    match reply.get_field("counters").and_then(|c| c.get_field(name)) {
        Some(serde::Value::UInt(n)) => *n,
        _ => 0,
    }
}

/// Serve `engine` and send `texts` open-loop at `rate` for `window`,
/// then a burst of batch frames; the engine's gate reports the shed share.
fn wire_phase(engine: Sommelier, rate: f64, window: Duration, texts: &[Arc<str>]) -> Wire {
    let mut out = Wire::default();
    let Ok(handle) = Daemon::serve(
        engine,
        DaemonConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: workloads::nproc(),
            queue_depth: 16,
            tenants: None,
        },
    ) else {
        out.attempted = 1;
        out.failed = 1;
        return out;
    };
    let addr = handle.addr();
    if let Ok(mut client) = Client::connect(addr) {
        for t in texts.iter().take(64) {
            let _ = client.query(t);
        }
        let open = wire::open_loop(&mut client, rate, window, |i| {
            Arc::clone(&texts[i as usize % texts.len()])
        });
        out.rtt_ms = open.timings.iter().map(|t| ms(t.done - t.sent)).collect();
        out.lag_ms = open.timings.iter().map(|t| ms(t.lateness())).collect();
        out.attempted += open.attempted;
        out.failed += open.failed;
        let burst = wire::closed_batches(
            addr,
            workloads::nproc(),
            workloads::BATCH,
            window / 4,
            |c, f| {
                (0..workloads::BATCH)
                    .map(|q| {
                        Arc::clone(
                            &texts[(c * 7 + f as usize * workloads::BATCH + q) % texts.len()],
                        )
                    })
                    .collect()
            },
        );
        out.attempted += burst.attempted;
        out.failed += burst.failed + burst.mixed;
        if let Ok(m) = client.metrics() {
            out.accepted = counter(&m.body, "serve.accepted");
            out.shed = counter(&m.body, "serve.shed");
        }
    } else {
        out.attempted += 1;
        out.failed += 1;
    }
    workloads::stop(handle);
    out
}

fn open_engine(store: &Store) -> Sommelier {
    let repo = Arc::new(OnDiskRepository::open(&store.dir).expect("store opens"));
    Sommelier::connect_or_recover(
        repo as Arc<dyn ModelRepository>,
        fixture::engine_config(),
        &store.snapshot,
    )
    .expect("snapshot loads")
    .0
}

/// Replay `texts` through the request path; returns per-request wall
/// times in microseconds and the number of failed requests.
fn replay_requests(
    q: &QueryReplay,
    tracer: &Tracer,
    counts: &Counts,
    texts: &mut dyn FnMut(u64) -> Arc<str>,
    first_id: u64,
    budget: Duration,
    max: u64,
) -> (Vec<f64>, u64) {
    let begin = Instant::now();
    let (mut times, mut failed) = (Vec::new(), 0);
    let mut i = 0;
    while i < max && begin.elapsed() < budget {
        let id = first_id + i;
        let frame = replay::query_frame(id, &texts(i));
        let t0 = Instant::now();
        if q.request(tracer, counts, id, &frame).is_none() {
            failed += 1;
        }
        times.push(t0.elapsed().as_secs_f64() * 1e6);
        i += 1;
    }
    (times, failed)
}

/// Run the traced replay of `workload` and report its per-layer metrics.
pub fn run(workload: &str, seed: u64, seconds: f64) -> Outcome {
    let out = Outcome::default();
    let tracer = Arc::new(Tracer::new(true));
    let quiet = Tracer::new(false);
    let storage = Arc::new(TracingStorage::new(Arc::clone(&tracer)));
    let work = WorkDir::new(&format!("{workload}-trace"));
    let dir = work.sub("store");
    let repo = OnDiskRepository::open_with(
        &dir,
        Arc::clone(&storage) as Arc<dyn sommelier_fault::Storage>,
    )
    .expect("store directory opens");
    let cfg = fixture::engine_config();

    // Set-up, traced: every store publishes and indexes its zoo.
    let members = workloads::ingest_members(seconds);
    let (plan, pending, synthetic) = match workload {
        "serve_hot" | "serve_scan" => (
            fixture::serve_store(seed),
            Vec::new(),
            Some(fixture::Synthetic::generate(seed)),
        ),
        "ingest" => {
            let (plan, pending) = fixture::ingest_store(seed, members);
            (plan, pending, None)
        }
        _ => (fixture::cold_store(seed), Vec::new(), None),
    };
    let setup_publishes = plan.models.len() as u64;
    let (store, mut state) = fixture::build_store_replayed(&tracer, &repo, &dir, plan, synthetic);
    let setup_end = tracer.spans().len();
    let mark_setup = PublishMark::take(&state, &storage);
    let snapshot_bytes = std::fs::metadata(&store.snapshot).map_or(0, |m| m.len());
    let chunked = fixture::chunked_keys(&store.plan);
    let counts = Counts::default();

    let mut engine = open_engine(&store);
    let reader: SommelierReader = engine.reader();
    let replay_budget = Duration::from_secs_f64(seconds * REPLAY_SHARE);
    let untraced_budget = Duration::from_secs_f64(seconds * UNTRACED_SHARE);
    let wire_window = Duration::from_secs_f64(seconds * WIRE_SHARE);

    let mut timed_publishes = 0u64;
    let mut reload_ms = Vec::new();
    let (mut overhead_traced, mut overhead_plain) = (Vec::new(), Vec::new());
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let mut cache_stats = (0u64, 0u64);

    // Every workload opens its store once through the replay.
    replay::open(
        &tracer,
        &counts,
        &storage,
        &dir,
        &store.snapshot,
        &chunked,
        0,
    );

    match workload {
        "serve_hot" | "serve_scan" => {
            let mix = if workload == "serve_hot" {
                Mix::Hot
            } else {
                Mix::Scan
            };
            // No warm-up: the replay sees the hot texts' first misses.
            let q = QueryReplay::new(reader.clone(), &cfg, workloads::nproc());
            let mut texts = Texts::new(mix, seed, "open");
            let mut seq = Vec::new();
            let (times, f) = replay_requests(
                &q,
                &tracer,
                &counts,
                &mut |_| {
                    let t = texts.next_text();
                    seq.push(Arc::clone(&t));
                    t
                },
                1_000_000,
                replay_budget,
                MAX_REQUESTS,
            );
            let stats = q.cache_stats();
            cache_stats = (stats.hits, stats.misses);
            attempted += times.len() as u64;
            failed += f;
            overhead_traced = times;
            // The same sequence untraced, from an equally cold cache.
            let plain = QueryReplay::new(reader.clone(), &cfg, workloads::nproc());
            let n = seq.len() as u64;
            let (times, f) = replay_requests(
                &plain,
                &quiet,
                &Counts::default(),
                &mut |i| Arc::clone(&seq[i as usize]),
                0,
                untraced_budget,
                n,
            );
            overhead_plain = times;
            attempted += overhead_plain.len() as u64;
            failed += f;
            let mut wire = Texts::new(mix, seed, "wire");
            let (wire_rate, wire_texts): (f64, Vec<Arc<str>>) = match mix {
                Mix::Hot => (workloads::HOT_RATE, wire.hot().to_vec()),
                Mix::Scan => {
                    let n = (workloads::SCAN_RATE * wire_window.as_secs_f64()) as usize + 64;
                    (
                        workloads::SCAN_RATE,
                        (0..n).map(|_| wire.next_text()).collect(),
                    )
                }
            };
            finish(
                out,
                &tracer,
                &storage,
                &counts,
                Finish {
                    workload,
                    setup_end,
                    setup_publishes,
                    timed_publishes,
                    mark_setup,
                    mark_end: PublishMark::take(&state, &storage),
                    timed_io: CountSnapshot::default(),
                    snapshot_bytes,
                    cache_stats,
                    reload_ms,
                    overhead: (overhead_traced, overhead_plain),
                    wire: wire_phase(engine, wire_rate, wire_window, &wire_texts),
                    attempted,
                    failed,
                },
            )
        }
        "ingest" => {
            let texts = workloads::ingest_texts(seed, &store);
            let weights = fixture::zipf_weights(texts.len());
            let mut rng =
                sommelier_tensor::Prng::seed_from_u64(fixture::stream(seed, "ingest-reader"));
            let q = QueryReplay::new(reader.clone(), &cfg, workloads::nproc());
            let reads_per_publish =
                (workloads::INGEST_READ_RATE * workloads::PUBLISH_EVERY.as_secs_f64()) as u64;
            let begin = Instant::now();
            let mut timed_io = CountSnapshot::default();
            let mut seq = Vec::new();
            let before = q.cache_stats();
            let mut id = 1_000_000u64;
            for model in &pending {
                if begin.elapsed() >= replay_budget {
                    break;
                }
                let io0 = storage.snapshot();
                replay::apply(&mut state, &repo, model, id);
                timed_io = add_io(timed_io, storage.snapshot().since(&io0));
                timed_publishes += 1;
                attempted += 1;
                // The live engine picks the new file up as `reload` does.
                let t0 = Instant::now();
                let reindexed = tracer.span("engine.reload", id, || engine.index_existing());
                reload_ms.push(ms(t0.elapsed()));
                if reindexed.map_or(true, |n| n != 1) {
                    failed += 1;
                }
                let visible = q.request(
                    &tracer,
                    &counts,
                    id,
                    &replay::query_frame(id, &fixture::store_text(&model.name, 0.0)),
                );
                failed += u64::from(visible.is_none());
                id += 1;
                let (times, f) = replay_requests(
                    &q,
                    &tracer,
                    &counts,
                    &mut |_| {
                        let t = Arc::clone(&texts[fixture::zipf_index(&mut rng, &weights)]);
                        seq.push(Arc::clone(&t));
                        t
                    },
                    id,
                    replay_budget,
                    reads_per_publish,
                );
                id += reads_per_publish;
                attempted += times.len() as u64;
                failed += f;
                overhead_traced.extend(times);
            }
            let after = q.cache_stats();
            cache_stats = (after.hits - before.hits, after.misses - before.misses);
            let plain = QueryReplay::new(reader.clone(), &cfg, workloads::nproc());
            let n = seq.len() as u64;
            let (times, f) = replay_requests(
                &plain,
                &quiet,
                &Counts::default(),
                &mut |i| Arc::clone(&seq[i as usize]),
                0,
                untraced_budget,
                n,
            );
            overhead_plain = times;
            attempted += overhead_plain.len() as u64;
            failed += f;
            let mark_end = PublishMark::take(&state, &storage);
            finish(
                out,
                &tracer,
                &storage,
                &counts,
                Finish {
                    workload,
                    setup_end,
                    setup_publishes,
                    timed_publishes,
                    mark_setup,
                    mark_end,
                    timed_io,
                    snapshot_bytes,
                    cache_stats,
                    reload_ms,
                    overhead: (overhead_traced, overhead_plain),
                    wire: wire_phase(engine, workloads::INGEST_READ_RATE, wire_window, &texts),
                    attempted,
                    failed,
                },
            )
        }
        _ => {
            let first = workloads::cold_text(seed, &store);
            let followups = workloads::cold_followups(seed, &store);
            let fingerprints: HashMap<String, Fingerprint> = store
                .plan
                .models
                .iter()
                .map(|(m, _)| (m.name.clone(), Fingerprint::of_model(m)))
                .collect();
            let begin = Instant::now();
            let mut id = 1_000_000u64;
            let mut bad = 0u64;
            // Traced and untraced opens alternate, so both see the same
            // page cache and machine state.
            let quiet_storage = Arc::new(TracingStorage::new(Arc::new(Tracer::new(false))));
            while begin.elapsed() < replay_budget + untraced_budget {
                let t0 = Instant::now();
                replay::open(
                    &quiet,
                    &Counts::default(),
                    &quiet_storage,
                    &dir,
                    &store.snapshot,
                    &chunked,
                    0,
                );
                overhead_plain.push(t0.elapsed().as_secs_f64() * 1e6);
                let t0 = Instant::now();
                let (opened, _) = replay::open(
                    &tracer,
                    &counts,
                    &storage,
                    &dir,
                    &store.snapshot,
                    &chunked,
                    id,
                );
                overhead_traced.push(t0.elapsed().as_secs_f64() * 1e6);
                // A fresh request path per open: the plan cache is cold.
                let q = QueryReplay::new(reader.clone(), &cfg, workloads::nproc());
                let results = q.request(&tracer, &counts, id, &replay::query_frame(id, &first));
                attempted += 1;
                match results {
                    Some(results) => {
                        for r in &results {
                            let m = replay::materialize(
                                &tracer,
                                &opened,
                                &storage,
                                &dir,
                                &r.key,
                                chunked.get(&r.key) == Some(&true),
                                id,
                            );
                            let good = m.is_some_and(|m| {
                                fingerprints.get(&r.key) == Some(&Fingerprint::of_model(&m))
                            });
                            bad += u64::from(!good);
                        }
                    }
                    None => failed += 1,
                }
                id += 1;
                for text in &followups {
                    attempted += 1;
                    failed += u64::from(
                        q.request(&tracer, &counts, id, &replay::query_frame(id, text))
                            .is_none(),
                    );
                    id += 1;
                }
            }
            failed += bad;
            let mark_end = PublishMark::take(&state, &storage);
            finish(
                out,
                &tracer,
                &storage,
                &counts,
                Finish {
                    workload,
                    setup_end,
                    setup_publishes,
                    timed_publishes,
                    mark_setup,
                    mark_end,
                    timed_io: CountSnapshot::default(),
                    snapshot_bytes,
                    cache_stats,
                    reload_ms,
                    overhead: (overhead_traced, overhead_plain),
                    wire: wire_phase(engine, workloads::COLD_RATE / 4.0, wire_window, &followups),
                    attempted,
                    failed,
                },
            )
        }
    }
}

fn add_io(a: CountSnapshot, b: CountSnapshot) -> CountSnapshot {
    CountSnapshot {
        reads: a.reads + b.reads,
        bytes_read: a.bytes_read + b.bytes_read,
        writes: a.writes + b.writes,
        bytes_written: a.bytes_written + b.bytes_written,
        fsyncs: a.fsyncs + b.fsyncs,
        fsync_ns: a.fsync_ns + b.fsync_ns,
        renames: a.renames + b.renames,
        links: a.links + b.links,
        removes: a.removes + b.removes,
        exists: a.exists + b.exists,
        lists: a.lists + b.lists,
        chunk_puts: a.chunk_puts + b.chunk_puts,
        chunk_dups: a.chunk_dups + b.chunk_dups,
    }
}

struct Finish<'a> {
    workload: &'a str,
    setup_end: usize,
    setup_publishes: u64,
    timed_publishes: u64,
    mark_setup: PublishMark,
    mark_end: PublishMark,
    timed_io: CountSnapshot,
    snapshot_bytes: u64,
    cache_stats: (u64, u64),
    reload_ms: Vec<f64>,
    overhead: (Vec<f64>, Vec<f64>),
    wire: Wire,
    attempted: u64,
    failed: u64,
}

fn finish(
    mut out: Outcome,
    tracer: &Tracer,
    storage: &TracingStorage,
    counts: &Counts,
    f: Finish<'_>,
) -> Outcome {
    let spans = tracer.spans();
    let selfs = trace::self_times(&spans);
    let all = stats_in(&spans, &selfs, 0..spans.len());
    let s = |name: &str| all.get(name).copied().unwrap_or_default();

    // Publish-side figures come from the timed publishes when the
    // workload has them, else from the set-up's publishes.
    let (pub_range, publishes, mark, io) = if f.timed_publishes > 0 {
        (
            f.setup_end..spans.len(),
            f.timed_publishes,
            f.mark_end.since(&f.mark_setup),
            f.timed_io,
        )
    } else {
        (
            0..f.setup_end,
            f.setup_publishes,
            f.mark_setup,
            f.mark_setup.io,
        )
    };
    let ps = stats_in(&spans, &selfs, pub_range);
    let p = |name: &str| ps.get(name).copied().unwrap_or_default();
    let per_pub = |ns: u64| ns as f64 / publishes.max(1) as f64 / 1e6;

    // Stage sum of each replayed request, for the untraced remainder.
    let mut stage_ns: HashMap<u64, u64> = HashMap::new();
    for sp in &spans {
        if REQUEST_STAGES.contains(&sp.name) {
            *stage_ns.entry(sp.req).or_default() += sp.dur_ns();
        }
    }
    let stage_us: Vec<f64> = stage_ns.values().map(|ns| *ns as f64 / 1e3).collect();
    let rtt_p50_us = stats::median(&f.wire.rtt_ms) * 1e3;
    let requests = get(&counts.requests);
    let exec = s("engine.execute");
    let score_rank_ns = exec.total_ns as i64
        - s("semantic.lookup").total_ns as i64
        - s("resource.query_with").total_ns as i64
        - s("plan.plan").total_ns as i64;
    let apply = p("engine.apply");
    let residual_ns = apply.total_ns as i64
        - p("profile.under").total_ns as i64
        - p("semantic.apply_batch").total_ns as i64
        - p("repo.publish").total_ns as i64;
    let mut lag = f.wire.lag_ms.clone();
    lag.sort_by(f64::total_cmp);
    let all_io = storage.snapshot();
    // Both passes replay the same operations in the same order; compare
    // the prefix both reached.
    let k = f.overhead.0.len().min(f.overhead.1.len());
    let overhead = stats::median(&f.overhead.0[..k]) / stats::median(&f.overhead.1[..k]) - 1.0;

    let m = &mut out;
    m.metric(
        "daemon.parse_request_us",
        s("daemon.parse_request").mean_us(),
        "us",
    );
    m.metric(
        "daemon.encode_reply_us",
        s("daemon.encode_reply").mean_us(),
        "us",
    );
    m.metric(
        "daemon.reply_bytes",
        ratio(get(&counts.reply_bytes), requests),
        "bytes",
    );
    m.metric(
        "daemon.admit_us",
        (s("daemon.admit").total_ns + s("daemon.complete").total_ns) as f64
            / requests.max(1) as f64
            / 1e3,
        "us",
    );
    m.metric(
        "daemon.shed_share",
        ratio(f.wire.shed, f.wire.accepted + f.wire.shed),
        "ratio",
    );
    m.metric(
        "daemon.unattributed_us",
        rtt_p50_us - stats::median(&stage_us),
        "us",
    );
    m.metric(
        "plancache.hit_ratio",
        ratio(f.cache_stats.0, f.cache_stats.0 + f.cache_stats.1),
        "ratio",
    );
    m.metric("plancache.probe_us", s("plancache.probe").mean_us(), "us");
    m.metric("parser.parse_us", s("parser.parse").mean_us(), "us");
    m.metric("plan.plan_us", s("plan.plan").mean_us(), "us");
    m.metric("engine.execute_us", exec.mean_us(), "us");
    m.metric(
        "engine.score_rank_us",
        score_rank_ns as f64 / exec.count.max(1) as f64 / 1e3,
        "us",
    );
    m.metric("engine.apply_ms", per_pub(apply.total_ns), "ms");
    m.metric(
        "engine.publish_residual_ms",
        residual_ns as f64 / publishes.max(1) as f64 / 1e6,
        "ms",
    );
    m.metric("semantic.lookup_us", s("semantic.lookup").mean_us(), "us");
    m.metric(
        "semantic.candidates_per_query",
        ratio(get(&counts.candidates), get(&counts.misses)),
        "count",
    );
    m.metric(
        "semantic.apply_batch_ms",
        per_pub(p("semantic.apply_batch").total_ns),
        "ms",
    );
    m.metric(
        "resource.query_with_us",
        s("resource.query_with").mean_us(),
        "us",
    );
    m.metric(
        "resource.admitted_per_query",
        ratio(get(&counts.admitted), s("resource.query_with").count),
        "count",
    );
    m.metric(
        "resource.useful_ratio",
        ratio(get(&counts.results), get(&counts.admitted)),
        "ratio",
    );
    m.metric(
        "persist.read_snapshot_ms",
        s("persist.read_snapshot").mean_ms(),
        "ms",
    );
    m.metric("persist.snapshot_bytes", f.snapshot_bytes as f64, "bytes");
    m.metric(
        "equiv.pairs_per_publish",
        ratio(mark.analyses, publishes),
        "count",
    );
    m.metric("equiv.pair_ms", p("equiv.pair").mean_ms(), "ms");
    m.metric(
        "equiv.useful_ratio",
        ratio(mark.useful, mark.analyses),
        "ratio",
    );
    m.metric(
        "paircache.hit_ratio",
        ratio(mark.cache_hits, mark.cache_hits + mark.cache_misses),
        "ratio",
    );
    m.metric("profile.under_ms", p("profile.under").mean_ms(), "ms");
    m.metric("repo.publish_ms", p("repo.publish").mean_ms(), "ms");
    m.metric(
        "repo.loads_per_publish",
        ratio(mark.resolver_loads, publishes),
        "count",
    );
    m.metric("repo.load_flat_ms", s("repo.load_flat").mean_ms(), "ms");
    m.metric(
        "repo.load_manifest_ms",
        s("repo.load_manifest").mean_ms(),
        "ms",
    );
    m.metric(
        "repo.loads_per_open",
        ratio(get(&counts.open_loads), get(&counts.opens)),
        "count",
    );
    m.metric("chunks.get_us", s("chunks.get").mean_us(), "us");
    m.metric(
        "chunks.reconstruct_ms",
        s("chunks.reconstruct").mean_ms(),
        "ms",
    );
    m.metric(
        "chunks.dedup_hit_ratio",
        ratio(all_io.chunk_dups, all_io.chunk_puts),
        "ratio",
    );
    m.metric(
        "storage.fsyncs_per_publish",
        ratio(io.fsyncs, publishes),
        "count",
    );
    m.metric(
        "storage.fsync_ms",
        ratio(io.fsync_ns, io.fsyncs) / 1e6,
        "ms",
    );
    m.metric(
        "storage.bytes_written_per_publish",
        ratio(io.bytes_written, publishes),
        "bytes",
    );
    m.metric(
        "storage.bytes_read_per_open",
        ratio(get(&counts.open_bytes_read), get(&counts.opens)),
        "bytes",
    );
    m.metric(
        "loadgen.lag_p99_ms",
        stats::nearest_rank(&lag, P99).unwrap_or(0.0),
        "ms",
    );
    m.metric(
        "trace.coverage",
        trace::coverage(&spans, &["open", "engine.apply"]).unwrap_or(0.0),
        "ratio",
    );
    m.metric("trace.overhead_share", overhead, "ratio");

    let lines = vec![
        format!("spans recorded: {} (written to .bench_records/spans-{}.jsonl)", spans.len(), f.workload),
        format!("replayed requests: {requests}; publishes measured: {publishes}; opens: {}", get(&counts.opens)),
        format!(
            "untraced daemon round trip p50 {:.4} ms (n={}); replayed stage sum p50 {:.4} ms (n={})",
            rtt_p50_us / 1e3,
            f.wire.rtt_ms.len(),
            stats::median(&stage_us) / 1e3,
            stage_us.len()
        ),
        format!(
            "real reload (Sommelier::index_existing) p50 {:.4} ms (n={})",
            stats::median(&f.reload_ms),
            f.reload_ms.len()
        ),
        format!(
            "traced replay p50 {:.2} us vs untraced {:.2} us (n={} / {})",
            stats::median(&f.overhead.0),
            stats::median(&f.overhead.1),
            f.overhead.0.len(),
            f.overhead.1.len()
        ),
    ];
    out.lines.extend(lines);
    let self_shares: Vec<String> = all
        .iter()
        .filter(|(_, st)| st.count > 0)
        .map(|(name, st)| {
            format!(
                "span {name}: n={} mean {:.2} us self {:.2} us",
                st.count,
                st.mean_us(),
                st.self_ns as f64 / st.count as f64 / 1e3
            )
        })
        .collect();
    out.lines.extend(self_shares);
    out.attempted = f.attempted + f.wire.attempted;
    out.failed = f.failed + f.wire.failed;
    out.check(
        "every replayed operation and wire request succeeded",
        out.failed == 0,
    );
    let cov = trace::coverage(&spans, &["open", "engine.apply"]).unwrap_or(0.0);
    out.check("trace.coverage >= 0.9 for in-process parents", cov >= 0.9);
    if std::fs::create_dir_all(".bench_records").is_ok() {
        let path =
            std::path::PathBuf::from(".bench_records").join(format!("spans-{}.jsonl", f.workload));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("perfbench: cannot write spans: {e}");
        }
    }
    out
}
