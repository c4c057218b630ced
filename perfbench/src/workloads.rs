//! The four workloads, untraced: each builds its inputs from the seed,
//! drives the real program for the measured window and checks every
//! answer afterwards, outside the window.

use crate::fixture::{self, Store, StorePlan};
use crate::report::Outcome;
use crate::stats::{self, ms, Schedule, Timing};
use crate::wire::{self, Answer};
use sommelier_graph::Fingerprint;
use sommelier_query::{parse, Sommelier, SommelierReader};
use sommelier_repo::{ModelRepository, OnDiskRepository};
use sommelier_serving::daemon::client::Client;
use sommelier_serving::{Daemon, DaemonConfig, DaemonHandle};
use sommelier_tensor::Prng;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median. The cold-open store
/// takes longest to build, so it is built fewer times.
pub const SETUP_REPEATS: usize = 15;
pub const COLD_SETUP_REPEATS: usize = 7;
/// Popular texts of the hot mix.
pub const HOT_TEXTS: usize = 48;
/// Texts per `query_batch` frame.
pub const BATCH: usize = 32;
/// Open-loop rates, queries per second.
pub const HOT_RATE: f64 = 3000.0;
pub const SCAN_RATE: f64 = 150.0;
pub const INGEST_READ_RATE: f64 = 300.0;
/// Time between two publishes of the ingest publisher.
pub const PUBLISH_EVERY: Duration = Duration::from_millis(500);
/// Queries sent to each freshly opened daemon after its first answer.
pub const COLD_QUERIES: u64 = 16;
pub const COLD_RATE: f64 = 2000.0;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A per-run work directory inside the checkout, removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn new(workload: &str) -> Self {
        let dir = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("work directory is creatable");
        WorkDir(dir)
    }

    pub fn sub(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
        std::fs::remove_dir(".bench_work").ok();
    }
}

/// Build a store from `plan` `repeats` times from scratch, keeping the
/// last; returns it, the engine that built it and the set-up times in
/// seconds. Only the program's work is timed: publishing, indexing,
/// merging the synthetic entries and saving the snapshot. The inputs
/// are generated before the first repeat.
pub fn repeated_setup(
    work: &WorkDir,
    repeats: usize,
    plan: StorePlan,
    synthetic: Option<fixture::Synthetic>,
) -> (Store, Sommelier, Vec<f64>) {
    let mut times = Vec::new();
    let mut kept: Option<(PathBuf, PathBuf, Sommelier)> = None;
    for i in 0..repeats {
        let dir = work.sub(&format!("store{i}"));
        if let Some((old, _, _)) = kept.take() {
            std::fs::remove_dir_all(old).ok();
        }
        let synthetic = synthetic.clone();
        let t0 = Instant::now();
        let repo = Arc::new(OnDiskRepository::open(&dir).expect("store directory opens"));
        let (snapshot, engine) = fixture::build_store(&repo, &dir, &plan, synthetic);
        times.push(t0.elapsed().as_secs_f64());
        kept = Some((dir, snapshot, engine));
    }
    let (dir, snapshot, engine) = kept.expect("at least one set-up");
    (
        Store {
            dir,
            snapshot,
            plan,
        },
        engine,
        times,
    )
}

/// Open a store the way `sommelier serve` does and start the daemon.
pub fn open_and_serve(store: &Store) -> Result<(DaemonHandle, SommelierReader), String> {
    let repo = Arc::new(OnDiskRepository::open(&store.dir).map_err(|e| e.to_string())?);
    let (engine, recovery) = Sommelier::connect_or_recover(
        repo as Arc<dyn ModelRepository>,
        fixture::engine_config(),
        &store.snapshot,
    )
    .map_err(|e| e.to_string())?;
    if recovery.rebuilt() {
        return Err(format!("snapshot did not load: {recovery:?}"));
    }
    let reader = engine.reader();
    let handle = Daemon::serve(
        engine,
        DaemonConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: nproc(),
            queue_depth: 16,
            tenants: None,
        },
    )?;
    Ok((handle, reader))
}

pub fn stop(handle: DaemonHandle) {
    handle.shutdown();
    handle.wait();
}

/// Answers that differ from an in-process, cache-bypassing execution of
/// the same text at the same epoch (or were served at another epoch).
pub fn wrong_answers(reader: &SommelierReader, answers: &[Answer]) -> u64 {
    let epoch = reader.snapshot().epoch;
    let mut expected: HashMap<&str, Option<u64>> = HashMap::new();
    let mut wrong = 0;
    for a in answers {
        let want = *expected.entry(&*a.text).or_insert_with(|| {
            let ast = parse(&a.text).ok()?;
            reader
                .query_ast(&ast)
                .ok()
                .map(|r| wire::digest_results(&r))
        });
        if a.epoch != epoch || want != Some(a.digest) {
            wrong += 1;
        }
    }
    wrong
}

fn latencies_ms(timings: &[Timing]) -> Vec<f64> {
    timings.iter().map(|t| ms(t.latency())).collect()
}

fn lateness_ms(timings: &[Timing]) -> Vec<f64> {
    timings.iter().map(|t| ms(t.lateness())).collect()
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mix {
    Hot,
    Scan,
}

/// The text stream of a serving mix.
pub struct Texts {
    mix: Mix,
    hot: Vec<Arc<str>>,
    weights: Vec<f64>,
    rng: Prng,
    next: u64,
}

impl Texts {
    pub fn new(mix: Mix, seed: u64, stream: &str) -> Self {
        Texts {
            mix,
            hot: fixture::hot_texts(seed, HOT_TEXTS)
                .into_iter()
                .map(Arc::from)
                .collect(),
            weights: fixture::zipf_weights(HOT_TEXTS),
            rng: Prng::seed_from_u64(fixture::stream(seed, stream)),
            next: 0,
        }
    }

    pub fn next_text(&mut self) -> Arc<str> {
        self.next += 1;
        match self.mix {
            Mix::Hot => Arc::clone(&self.hot[fixture::zipf_index(&mut self.rng, &self.weights)]),
            Mix::Scan => Arc::from(fixture::scan_text(&mut self.rng, self.next)),
        }
    }

    pub fn hot(&self) -> &[Arc<str>] {
        &self.hot
    }
}

pub fn serve_setup(seed: u64, work: &WorkDir) -> (Store, Vec<f64>) {
    let synthetic = fixture::Synthetic::generate(seed);
    let (store, _, times) = repeated_setup(
        work,
        SETUP_REPEATS,
        fixture::serve_store(seed),
        Some(synthetic),
    );
    (store, times)
}

/// `serve_hot` / `serve_scan`: an open-loop single connection at a
/// fixed rate, then `nproc` connections pipelining batch frames.
pub fn serve(mix: Mix, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let work = WorkDir::new(if mix == Mix::Hot {
        "serve_hot"
    } else {
        "serve_scan"
    });
    let (store, setup) = serve_setup(seed, &work);
    out.setup(&setup);
    let (handle, reader) = match open_and_serve(&store) {
        Ok(v) => v,
        Err(e) => return out.fail_setup(&e),
    };
    let addr = handle.addr();
    let mut client = Client::connect(addr).expect("daemon accepts");

    // Warm-up outside the window: the popular texts enter the plan
    // cache and the connection threads are running.
    let mut warm = Texts::new(mix, seed, "warmup");
    for t in warm.hot().to_vec() {
        let _ = client.query(&t);
    }
    for _ in 0..200 {
        let _ = client.query(&warm.next_text());
    }
    let cache_before = reader.plan_cache_stats();

    let rate = if mix == Mix::Hot { HOT_RATE } else { SCAN_RATE };
    let open_window = Duration::from_secs_f64(seconds * 0.6);
    let mut texts = Texts::new(mix, seed, "open");
    let open = wire::open_loop(&mut client, rate, open_window, |_| texts.next_text());
    let cache_mid = reader.plan_cache_stats();

    let batch_window = Duration::from_secs_f64(seconds * 0.4);
    let conns = nproc();
    let streams: Vec<std::sync::Mutex<Texts>> = (0..conns)
        .map(|c| std::sync::Mutex::new(Texts::new(mix, seed, &format!("batch{c}"))))
        .collect();
    let batches = wire::closed_batches(addr, conns, BATCH, batch_window, |c, _| {
        let mut t = streams[c].lock().expect("text stream lock");
        (0..BATCH).map(|_| t.next_text()).collect()
    });
    drop(client);
    stop(handle);

    // Checks, outside the window.
    let wrong = wrong_answers(&reader, &open.answers)
        + wrong_answers(&reader, &batches.answers.answers())
        + batches.answers.conflicts;
    out.attempted = open.attempted + batches.attempted;
    out.failed = open.failed + batches.failed + wrong + batches.mixed;
    out.check(
        "every answer equals the in-process answer at its epoch",
        wrong == 0,
    );
    out.check("no batch reply mixes epochs", batches.mixed == 0);
    out.check(
        "no request failed or was refused",
        open.failed + batches.failed == 0,
    );
    let hits = cache_mid.hits - cache_before.hits;
    let probes = hits + cache_mid.misses - cache_before.misses;
    let hit_ratio = hits as f64 / probes.max(1) as f64;
    if mix == Mix::Hot {
        out.check(
            "plan-cache hit ratio >= 0.95 after warm-up",
            hit_ratio >= 0.95,
        );
    }

    let lat = latencies_ms(&open.timings);
    out.timing("query", "query_ms (round trip)", &lat, 500, false);
    out.timing(
        "op",
        "query_batch frame round trip",
        &batches.frame_ms,
        100,
        true,
    );
    out.info(
        "batch_qps",
        batches.queries as f64 / batches.elapsed_s,
        "queries/s",
        batches.frame_ms.len(),
    );
    out.info("plancache.hit_ratio", hit_ratio, "ratio", probes as usize);
    out.lag(&lateness_ms(&open.timings));
    out.sample("query_ms", lat);
    out.sample("batch_frame_ms", batches.frame_ms);
    out
}

/// The ingest store as built during set-up, plus the pending fine-tunes.
pub fn ingest_setup(
    seed: u64,
    seconds: f64,
    work: &WorkDir,
) -> (Store, Vec<sommelier_graph::Model>, Vec<f64>) {
    let (plan, pending) = fixture::ingest_store(seed, ingest_members(seconds));
    let (store, _, times) = repeated_setup(work, SETUP_REPEATS, plan, None);
    (store, pending, times)
}

pub fn ingest_members(seconds: f64) -> usize {
    (seconds / PUBLISH_EVERY.as_secs_f64()).ceil() as usize + 1
}

/// The reader's texts over the store's initial keys.
pub fn ingest_texts(seed: u64, store: &Store) -> Vec<Arc<str>> {
    let keys = fixture::keys(&store.plan);
    let mut rng = Prng::seed_from_u64(fixture::stream(seed, "ingest-texts"));
    (0..12)
        .map(|_| {
            Arc::from(fixture::store_text(
                &keys[rng.index(keys.len())],
                0.2 + rng.index(6) as f64 * 0.1,
            ))
        })
        .collect()
}

/// `ingest`: a scheduled publisher beside a fixed-rate reader.
pub fn ingest(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let work = WorkDir::new("ingest");
    let (store, pending, setup) = ingest_setup(seed, seconds, &work);
    out.setup(&setup);
    let (handle, _reader) = match open_and_serve(&store) {
        Ok(v) => v,
        Err(e) => return out.fail_setup(&e),
    };
    let addr = handle.addr();
    let texts = ingest_texts(seed, &store);
    let weights = fixture::zipf_weights(texts.len());
    let publisher_repo = OnDiskRepository::open(&store.dir).expect("store reopens");
    let window = Duration::from_secs_f64(seconds);

    let (read, publish) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut client = Client::connect(addr).expect("daemon accepts");
            let mut rng = Prng::seed_from_u64(fixture::stream(seed, "ingest-reader"));
            wire::open_loop(&mut client, INGEST_READ_RATE, window, |_| {
                Arc::clone(&texts[fixture::zipf_index(&mut rng, &weights)])
            })
        });
        let mut control = Client::connect(addr).expect("daemon accepts");
        let schedule = Schedule::new(Instant::now(), 1.0 / PUBLISH_EVERY.as_secs_f64());
        let mut visible_ms = Vec::new();
        let (mut attempted, mut failed) = (0u64, 0u64);
        for (i, model) in pending.iter().enumerate() {
            if schedule.due(i as u64) >= window {
                break;
            }
            schedule.wait_for(i as u64);
            attempted += 1;
            let t0 = Instant::now();
            let published = publisher_repo.publish(&model.name, model, false).is_ok()
                && control.reload().is_ok_and(|r| r.ok);
            let probe = fixture::store_text(&model.name, 0.0);
            let mut visible = false;
            while published && t0.elapsed() < Duration::from_secs(10) {
                if control.query(&probe).is_ok_and(|r| r.ok) {
                    visible = true;
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            if visible {
                visible_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            } else {
                failed += 1;
            }
        }
        (
            reader.join().expect("reader thread panicked"),
            (visible_ms, attempted, failed),
        )
    });
    let (visible_ms, pub_attempted, pub_failed) = publish;
    stop(handle);

    let mut last = 0u64;
    let monotone = read.answers.iter().all(|a| {
        let ok = a.epoch >= last;
        last = a.epoch;
        ok
    });
    out.attempted = read.attempted + pub_attempted;
    out.failed = read.failed + pub_failed + u64::from(!monotone);
    out.check("every published key became visible", pub_failed == 0);
    out.check("epochs are monotone on the reader connection", monotone);
    out.check("no reader request failed or was refused", read.failed == 0);
    out.check(
        "the publisher kept its schedule",
        visible_ms.len() + 1 >= ingest_members(seconds) - 1,
    );

    let lat = latencies_ms(&read.timings);
    out.timing("query", "query_ms (reader round trip)", &lat, 500, false);
    out.timing("op", "publish_to_visible_ms", &visible_ms, 5, true);
    out.lag(&lateness_ms(&read.timings));
    out.sample("query_ms", lat);
    out.sample("publish_to_visible_ms", visible_ms);
    out
}

pub fn cold_setup(seed: u64, work: &WorkDir) -> (Store, Sommelier, Vec<f64>) {
    repeated_setup(work, COLD_SETUP_REPEATS, fixture::cold_store(seed), None)
}

/// The first-answer text of a cold open: a reference drawn by the seed.
pub fn cold_text(seed: u64, store: &Store) -> String {
    let keys = fixture::keys(&store.plan);
    let mut rng = Prng::seed_from_u64(fixture::stream(seed, "cold-ref"));
    fixture::store_text(&keys[rng.index(keys.len())], 0.0)
}

/// Texts of the queries that follow each first answer.
pub fn cold_followups(seed: u64, store: &Store) -> Vec<Arc<str>> {
    let keys = fixture::keys(&store.plan);
    let mut rng = Prng::seed_from_u64(fixture::stream(seed, "cold-followups"));
    (0..COLD_QUERIES)
        .map(|_| {
            Arc::from(fixture::store_text(
                &keys[rng.index(keys.len())],
                0.1 + rng.index(8) as f64 * 0.1,
            ))
        })
        .collect()
}

/// `cold_open`: open the store to its first answer, materialize the
/// answer's models, send a few more queries, close; again and again.
pub fn cold_open(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let work = WorkDir::new("cold_open");
    let (store, built, setup) = cold_setup(seed, &work);
    out.setup(&setup);
    let first: Arc<str> = Arc::from(cold_text(seed, &store));
    let followups = cold_followups(seed, &store);
    let fingerprints: HashMap<String, Fingerprint> = store
        .plan
        .models
        .iter()
        .map(|(m, _)| (m.name.clone(), Fingerprint::of_model(m)))
        .collect();

    // The reference answer comes from the engine that built the store.
    let expected = built.query(&first).ok().map(|r| wire::digest_results(&r));
    drop(built);
    let repo = OnDiskRepository::open(&store.dir).expect("store opens");
    let flat = store.plan.flat_bytes() as f64;
    let stored = repo.model_bytes().expect("store sizes read") as f64;

    let window = Duration::from_secs_f64(seconds);
    let begin = Instant::now();
    let (mut open_ms, mut mat_ms, mut query_ms, mut lag_ms) = (vec![], vec![], vec![], vec![]);
    let (mut attempted, mut failed, mut wrong, mut bad_models) = (0u64, 0u64, 0u64, 0u64);
    while begin.elapsed() < window {
        attempted += 1;
        let t0 = Instant::now();
        let Ok((handle, _)) = open_and_serve(&store) else {
            failed += 1;
            continue;
        };
        let reply =
            Client::connect(handle.addr()).and_then(|mut c| c.query(&first).map(|r| (c, r)));
        let t1 = Instant::now();
        let Ok((mut client, reply)) = reply else {
            failed += 1;
            stop(handle);
            continue;
        };
        let answer = wire::answer_of(&first, &reply);
        if answer.as_ref().map(|a| a.digest) != expected || expected.is_none() {
            wrong += 1;
        }
        let keys = reply
            .body
            .get_field("results")
            .map(wire::result_keys)
            .unwrap_or_default();
        for key in &keys {
            let model = handle.with_engine(|e| e.materialize(key));
            let good =
                model.is_ok_and(|m| fingerprints.get(key) == Some(&Fingerprint::of_model(&m)));
            bad_models += u64::from(!good);
        }
        let t2 = Instant::now();
        open_ms.push(ms(t1 - t0));
        if !keys.is_empty() {
            mat_ms.push(ms(t2 - t1) / keys.len() as f64);
        }
        let mut i = 0;
        let more = wire::open_loop(
            &mut client,
            COLD_RATE,
            Duration::from_secs_f64(COLD_QUERIES as f64 / COLD_RATE),
            |_| {
                i += 1;
                Arc::clone(&followups[(i - 1) % followups.len()])
            },
        );
        attempted += more.attempted;
        failed += more.failed;
        query_ms.extend(latencies_ms(&more.timings));
        lag_ms.extend(lateness_ms(&more.timings));
        drop(client);
        stop(handle);
    }
    out.attempted = attempted;
    out.failed = failed + wrong + bad_models;
    out.check(
        "every first answer equals the pre-built engine's answer",
        wrong == 0 && expected.is_some(),
    );
    out.check(
        "every materialized model has its published fingerprint",
        bad_models == 0,
    );
    out.check("every open and query succeeded", failed == 0);
    out.check(
        "every store key loads back",
        fixture::check_loadable(&repo, &store.plan),
    );

    out.timing(
        "query",
        "query_ms (round trip after open)",
        &query_ms,
        500,
        false,
    );
    out.timing("op", "open_to_first_answer_ms", &open_ms, 5, true);
    out.info(
        "materialize_ms",
        stats::median(&mat_ms),
        "ms/model",
        mat_ms.len(),
    );
    out.info("stored_bytes_per_user_byte", stored / flat, "ratio", 1);
    out.lag(&lag_ms);
    out.sample("open_to_first_answer_ms", open_ms);
    out.sample("materialize_ms", mat_ms);
    out.sample("query_ms", query_ms);
    out
}
