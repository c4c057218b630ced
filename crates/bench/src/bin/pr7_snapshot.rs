//! PR 7 performance gate: the binary (`.somb`) snapshot format.
//!
//! Two halves, two acceptance bars:
//!
//! 1. **Cold-open latency.** A large synthetic snapshot (≥5k models,
//!    built through the `from_parts` constructors so the index shape is
//!    controlled exactly) is persisted in both formats and reopened
//!    from scratch repeatedly. The gate is binary cold-open ≥ 10×
//!    faster than JSON: the `.somb` path validates an O(1) CRC header
//!    and block-copies sections where the JSON path parses the world.
//!
//! 2. **Query latency by format.** A real fleet is indexed once and the
//!    snapshot saved in both formats; two engines restore from them and
//!    serve the same workload. Both runs report p50/p99; the gate is
//!    binary p50 no worse than JSON p50 (ratio ≥ 0.9) — the formats
//!    restore identical in-memory indices, so serving must not regress.
//!    Result sets are asserted byte-identical across formats first.
//!
//! ```sh
//! cargo run --release -p sommelier-bench --bin pr7_snapshot
//! # SOMMELIER_PR7_MODE=full for a larger snapshot and longer workload
//! ```

use serde::Serialize;
use sommelier_bench::{fmt, print_table, timed, write_json};
use sommelier_graph::{Fingerprint, Model, TaskKind};
use sommelier_index::lsh::LshConfig;
use sommelier_index::semantic::{CandidateKind, CandidateRecord, SemanticIndexConfig};
use sommelier_index::{persist, ResourceIndex, SemanticIndex};
use sommelier_query::{Sommelier, SommelierConfig};
use sommelier_repo::{InMemoryRepository, ModelRepository};
use sommelier_runtime::ResourceProfile;
use sommelier_serving::LatencyStats;
use sommelier_tensor::Prng;
use sommelier_zoo::families::Family;
use sommelier_zoo::series::build_series;
use std::path::{Path, PathBuf};
use std::sync::Arc;

#[derive(Serialize)]
struct ColdOpen {
    models: usize,
    candidate_records: usize,
    json_bytes: u64,
    binary_bytes: u64,
    json_open_ms: f64,
    binary_open_ms: f64,
    /// `json_open_ms / binary_open_ms` — gated ≥ 10 by bench.sh.
    speedup: f64,
}

#[derive(Serialize)]
struct QueryRun {
    format: &'static str,
    queries: usize,
    queries_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
}

#[derive(Serialize)]
struct Bench {
    experiment: &'static str,
    mode: String,
    cold_open: ColdOpen,
    query_json: QueryRun,
    query_binary: QueryRun,
    /// `json p50 / binary p50` — gated ≥ 0.9 by bench.sh (the binary
    /// restore must not regress serving).
    query_p50_json_over_binary: f64,
    results_identical: bool,
}

/// A controlled-shape index pair: `models` keys, each with `cands`
/// candidate records (Whole and Transitive mixed), every key carrying a
/// resource profile. Deterministic arithmetic stands in for analysis so
/// the snapshot is large without costing minutes to build.
fn synthetic(models: usize, cands: usize) -> (SemanticIndex, ResourceIndex) {
    let keys: Vec<String> = (0..models)
        .map(|i| format!("hub/family-{:02}/model-{:05}", i % 37, i))
        .collect();
    let mut resource = ResourceIndex::new(LshConfig::default(), 7);
    for (i, key) in keys.iter().enumerate() {
        let x = i as f64;
        resource.insert(
            key,
            ResourceProfile {
                memory_mb: 32.0 + (x * 1.7) % 4096.0,
                gflops: 0.5 + (x * 0.13) % 40.0,
                latency_ms: 1.0 + (x * 0.41) % 90.0,
            },
        );
    }
    let entries: Vec<(Fingerprint, String, Vec<CandidateRecord>)> = keys
        .iter()
        .enumerate()
        .map(|(i, key)| {
            let fp = Fingerprint((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1));
            let candidates = (1..=cands)
                .map(|j| {
                    let other = keys[(i + j * 131) % keys.len()].clone();
                    let diff = ((i * 31 + j * 17) % 1000) as f64 / 1250.0;
                    let kind = if j % 3 == 0 {
                        CandidateKind::Transitive {
                            via: keys[(i + j) % keys.len()].clone(),
                        }
                    } else {
                        CandidateKind::Whole
                    };
                    CandidateRecord {
                        key: other,
                        diff_bound: diff,
                        score: (1.0 - diff).max(0.0),
                        kind,
                    }
                })
                .collect();
            (fp, key.clone(), candidates)
        })
        .collect();
    let semantic = SemanticIndex::from_parts(SemanticIndexConfig::default(), 7, entries, keys);
    (semantic, resource)
}

/// Best-of-`reps` wall time opening `path` from scratch, in ms.
fn open_ms(path: &Path, reps: usize) -> f64 {
    (0..reps)
        .map(|_| {
            let (snapshot, secs) = timed(|| persist::read_snapshot(path).expect("snapshot opens"));
            std::hint::black_box(snapshot);
            secs * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

fn cold_open_half(mode: &str) -> ColdOpen {
    let (models, cands, reps) = if mode == "full" { (10_000, 16, 9) } else { (5_000, 16, 7) };
    let (semantic, resource) = synthetic(models, cands);
    let records: usize = semantic
        .entries_audit()
        .iter()
        .map(|(_, _, r)| r.len())
        .sum();

    let tag = std::process::id();
    let json_path = std::env::temp_dir().join(format!("sommelier-pr7-{tag}.index.json"));
    let bin_path = std::env::temp_dir().join(format!("sommelier-pr7-{tag}.index.somb"));
    persist::save(&semantic, &resource, 1, &json_path).expect("json save");
    persist::save_binary(&semantic, &resource, 1, &bin_path).expect("binary save");

    // Both images must restore the same snapshot before timing means
    // anything.
    let a = persist::read_snapshot(&json_path).expect("json opens");
    let b = persist::read_snapshot(&bin_path).expect("binary opens");
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap(),
        "formats restored different snapshots"
    );

    let json_open_ms = open_ms(&json_path, reps);
    let binary_open_ms = open_ms(&bin_path, reps);
    let report = ColdOpen {
        models,
        candidate_records: records,
        json_bytes: std::fs::metadata(&json_path).unwrap().len(),
        binary_bytes: std::fs::metadata(&bin_path).unwrap().len(),
        json_open_ms,
        binary_open_ms,
        speedup: json_open_ms / binary_open_ms,
    };
    std::fs::remove_file(&json_path).ok();
    std::fs::remove_file(&bin_path).ok();
    report
}

fn fleet(n_series: usize) -> Vec<Model> {
    let families = [
        Family::Bitish,
        Family::Efficientnetish,
        Family::Resnetish,
        Family::Mobilenetish,
        Family::Vggish,
        Family::Inceptionish,
    ];
    let mut rng = Prng::seed_from_u64(2027);
    let mut models = Vec::new();
    for i in 0..n_series {
        let family = families[i % families.len()];
        let series = build_series(
            &format!("{}-v{}", family.slug(), i / families.len() + 1),
            family,
            TaskKind::ImageRecognition,
            "imagenet",
            5,
            2027,
            0.12,
            &mut rng,
        );
        models.extend(series.models);
    }
    models
}

fn engine_config() -> SommelierConfig {
    let mut cfg = SommelierConfig {
        validation_rows: 64,
        // Single-threaded serving: per-query latency is the measurement,
        // and worker threads time-slicing on small machines would charge
        // scheduler waits to individual queries.
        jobs: 1,
        query_cache_cap: 0, // uncached: measure execution, not the cache
        ..SommelierConfig::default()
    };
    cfg.index.sample_size = 12;
    cfg.index.segments = false;
    cfg
}

/// Serve `workload` from the snapshot at `path`, reporting latency
/// quantiles and a canonical rendering of every result set.
fn query_run(
    repo: &Arc<InMemoryRepository>,
    path: &Path,
    format: &'static str,
    workload: &[String],
) -> (QueryRun, String) {
    let engine = Sommelier::connect_with_indices(
        Arc::clone(repo) as Arc<dyn ModelRepository>,
        engine_config(),
        path,
    )
    .expect("snapshot restores");
    let reader = engine.reader();
    // Warm-up round, then a measured pass.
    std::hint::black_box(reader.query_batch(workload));
    sommelier_runtime::metrics::reset();
    let (items, seconds) = timed(|| reader.query_batch(workload));
    assert!(items.iter().all(|i| i.results.is_ok()), "queries succeed");
    let latencies: Vec<f64> = items.iter().map(|i| i.latency_ms).collect();
    let q = LatencyStats::from(&latencies);
    let mut rendered = String::new();
    for item in &items {
        for r in item.results.as_ref().unwrap() {
            rendered.push_str(&format!("{}|{:?}|{:?};", r.key, r.score, r.diff_bound));
        }
        rendered.push('\n');
    }
    (
        QueryRun {
            format,
            queries: workload.len(),
            queries_per_sec: workload.len() as f64 / seconds,
            p50_ms: q.p50,
            p99_ms: q.p99,
        },
        rendered,
    )
}

fn query_half(mode: &str) -> (QueryRun, QueryRun, bool) {
    let (n_series, distinct, rounds) = if mode == "full" { (10, 24, 20) } else { (6, 16, 12) };
    let models = fleet(n_series);
    let repo = Arc::new(InMemoryRepository::new());
    for m in &models {
        repo.publish(&m.name, m, true).expect("publish");
    }
    let mut builder = Sommelier::connect(
        Arc::clone(&repo) as Arc<dyn ModelRepository>,
        engine_config(),
    );
    builder.index_existing().expect("index");
    let tag = std::process::id();
    let json_path: PathBuf = std::env::temp_dir().join(format!("sommelier-pr7q-{tag}.index.json"));
    let bin_path: PathBuf = std::env::temp_dir().join(format!("sommelier-pr7q-{tag}.index.somb"));
    builder.save_indices(&json_path).expect("json save");
    builder.save_indices(&bin_path).expect("binary save");
    drop(builder);

    // Every item names its own (reference, threshold) pair, so each
    // measured query runs a full evaluation instead of replaying a
    // handful of fast repeats whose p50 sits at timer-noise scale.
    let workload: Vec<String> = (0..distinct * rounds)
        .map(|i| {
            let reference = &models[(i * 7) % models.len()].name;
            let within = (i % 40) as f64 / 40.0;
            format!(
                "SELECT models 10 CORR {reference} ON memory <= 500% WITHIN {within:.3} ORDER BY similarity"
            )
        })
        .collect();

    let (json_run, json_rendered) = query_run(&repo, &json_path, "json", &workload);
    let (bin_run, bin_rendered) = query_run(&repo, &bin_path, "binary", &workload);
    let identical = json_rendered == bin_rendered;
    assert!(identical, "JSON and binary snapshots served different results");
    std::fs::remove_file(&json_path).ok();
    std::fs::remove_file(&bin_path).ok();
    (json_run, bin_run, identical)
}

fn main() {
    let mode = std::env::var("SOMMELIER_PR7_MODE").unwrap_or_else(|_| "quick".into());

    let cold_open = cold_open_half(&mode);
    print_table(
        "PR 7: snapshot cold-open, JSON vs binary",
        &["models", "records", "json MB", "somb MB", "json ms", "somb ms", "speedup"],
        &[vec![
            cold_open.models.to_string(),
            cold_open.candidate_records.to_string(),
            fmt(cold_open.json_bytes as f64 / 1e6, 1),
            fmt(cold_open.binary_bytes as f64 / 1e6, 1),
            fmt(cold_open.json_open_ms, 2),
            fmt(cold_open.binary_open_ms, 2),
            fmt(cold_open.speedup, 1),
        ]],
    );
    println!("cold-open speedup (gated >= 10): {}", fmt(cold_open.speedup, 1));

    let (query_json, query_binary, results_identical) = query_half(&mode);
    let row = |r: &QueryRun| {
        vec![
            r.format.to_string(),
            r.queries.to_string(),
            fmt(r.queries_per_sec, 0),
            fmt(r.p50_ms, 3),
            fmt(r.p99_ms, 3),
        ]
    };
    print_table(
        "PR 7: query latency by snapshot format",
        &["format", "queries", "q/s", "p50 ms", "p99 ms"],
        &[row(&query_json), row(&query_binary)],
    );
    let p50_ratio = query_json.p50_ms / query_binary.p50_ms;
    println!(
        "\nquery p50 json/binary (gated >= 0.9): {} (identical results: {results_identical})",
        fmt(p50_ratio, 2)
    );

    write_json(
        "pr7_snapshot",
        &Bench {
            experiment: "pr7_snapshot",
            mode,
            cold_open,
            query_json,
            query_binary,
            query_p50_json_over_binary: p50_ratio,
            results_identical,
        },
    );
}
