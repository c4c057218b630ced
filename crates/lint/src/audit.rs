//! The deep-audit engine: every lint pass plus the dataflow and
//! cross-artifact analyses, fanned out over a thread pool and memoized
//! by model fingerprint.
//!
//! Per-model work (the structural graph lints, the serde round-trip,
//! and the full abstract interpretation) is a pure function of the
//! model's content, so results are cached under
//! [`Fingerprint::of_model`]: a warm re-audit only re-analyzes models
//! whose bytes changed and answers the rest from the memo — the same
//! incremental contract the pairwise-analysis cache gives index
//! rebuilds. Global work (index joins, snapshot headers, store
//! hygiene, the cross-artifact consistency pass) runs once per audit.
//!
//! Determinism: `par_map` returns results in input order and the final
//! [`LintReport`] sorts and dedups, so the JSON report is
//! byte-identical at any `--jobs` value.
//!
//! Each run publishes `audit.*` counters to
//! [`sommelier_runtime::metrics::counters`]: `audit.runs`,
//! `audit.models_analyzed` (memo misses), `audit.memo_hits`, and
//! `audit.findings_{error,warn,info}`.

use crate::diagnostics::{Diagnostic, LintReport, Severity};
use crate::passes;
use crate::{LintContext, Pass};
use sommelier_graph::{Fingerprint, Model};
use sommelier_parallel::ThreadPool;
use sommelier_runtime::metrics::counters;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Outcome of one audit run: the report plus the memo's hit/miss split
/// for that run (the basis of the warm-vs-cold throughput bar).
#[derive(Clone, Debug)]
pub struct AuditOutcome {
    /// The aggregated, sorted, deduplicated findings.
    pub report: LintReport,
    /// Models whose deep analysis actually ran this audit (memo misses).
    pub models_analyzed: usize,
    /// Models answered from the fingerprint memo.
    pub memo_hits: usize,
}

/// A reusable deep-audit engine. Keep one `Auditor` alive across runs
/// to benefit from the fingerprint memo; a fresh `Auditor` is a cold
/// audit.
pub struct Auditor {
    pool: ThreadPool,
    memo: Mutex<HashMap<Fingerprint, Arc<Vec<Diagnostic>>>>,
}

impl Auditor {
    /// An auditor fanning per-model analyses over `jobs` workers
    /// (`0` = one per core, `1` = inline).
    pub fn new(jobs: usize) -> Auditor {
        Auditor {
            pool: ThreadPool::new(sommelier_parallel::effective_jobs(jobs)),
            memo: Mutex::new(HashMap::new()),
        }
    }

    /// Number of fingerprints currently memoized.
    pub fn memo_len(&self) -> usize {
        self.memo.lock().expect("audit memo poisoned").len()
    }

    /// Audit everything in the context: all shallow passes, the deep
    /// dataflow pass per model, and the cross-artifact join.
    pub fn audit(&self, ctx: &LintContext) -> AuditOutcome {
        // Fingerprints first: they key the memo and feed the
        // cross-artifact fingerprint-drift check, so each model is
        // hashed exactly once per audit.
        let fps: Vec<Fingerprint> = self
            .pool
            .par_map(&ctx.models, |(_, m)| Fingerprint::of_model(m));

        // Per-model analyses, memoized. The memoized record is computed
        // with a placeholder target (two keys can share a fingerprint),
        // so targets are rewritten to the requesting key afterwards.
        let hits = AtomicU64::new(0);
        let items: Vec<(&(String, Model), Fingerprint)> =
            ctx.models.iter().zip(fps.iter().copied()).collect();
        let per_model: Vec<Arc<Vec<Diagnostic>>> = self.pool.par_map(&items, |((_, model), fp)| {
            if let Some(cached) = self.memo.lock().expect("audit memo poisoned").get(fp) {
                hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(cached);
            }
            let mut found = Vec::new();
            passes::model::model_graph_findings("\u{0}", model, &mut found);
            passes::model::round_trip_findings("\u{0}", model, &mut found);
            passes::deep::deep_model_findings("\u{0}", model, &mut found);
            let found = Arc::new(found);
            self.memo
                .lock()
                .expect("audit memo poisoned")
                .insert(*fp, Arc::clone(&found));
            found
        });

        let mut diagnostics = Vec::new();
        for ((key, _), diags) in ctx.models.iter().zip(&per_model) {
            for d in diags.iter() {
                let mut d = d.clone();
                d.target = format!("model '{key}'");
                diagnostics.push(d);
            }
        }

        // Global passes: everything that looks across models or at the
        // persisted artifacts. `ModelCostPass` stays here because family
        // outliers are a property of the whole series, not one model.
        let global: Vec<Box<dyn Pass>> = vec![
            Box::new(passes::model::ModelCostPass),
            Box::new(passes::index::IndexIntegrityPass),
            Box::new(passes::index::TrianglePass),
            Box::new(passes::index::FreshnessPass),
            Box::new(passes::plan::QueryPlanPass),
            Box::new(passes::stats::SnapshotStatsPass),
            Box::new(passes::binary::BinarySnapshotPass),
            Box::new(passes::epoch::SnapshotEpochPass),
            Box::new(passes::store::StoreHygienePass),
        ];
        for pass in &global {
            pass.run(ctx, &mut diagnostics);
        }
        let fp_map: BTreeMap<&str, Fingerprint> = ctx
            .models
            .iter()
            .zip(fps.iter())
            .map(|((k, _), fp)| (k.as_str(), *fp))
            .collect();
        passes::deep::cross_artifact_findings(ctx, &fp_map, &mut diagnostics);

        let report = LintReport::from_diagnostics(diagnostics);
        let memo_hits = hits.load(Ordering::Relaxed) as usize;
        let models_analyzed = ctx.models.len() - memo_hits;
        counters::add("audit.runs", 1);
        counters::add("audit.models_analyzed", models_analyzed as u64);
        counters::add("audit.memo_hits", memo_hits as u64);
        counters::add("audit.findings_error", report.count(Severity::Error) as u64);
        counters::add("audit.findings_warn", report.count(Severity::Warn) as u64);
        counters::add("audit.findings_info", report.count(Severity::Info) as u64);
        AuditOutcome {
            report,
            models_analyzed,
            memo_hits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sommelier_graph::{ModelBuilder, TaskKind};
    use sommelier_tensor::{Prng, Shape};

    fn ctx(n: usize) -> LintContext {
        let mut ctx = LintContext::new();
        for i in 0..n {
            let mut rng = Prng::seed_from_u64(i as u64);
            let m = ModelBuilder::new(format!("m{i}"), TaskKind::Other, Shape::vector(4))
                .dense(8, &mut rng)
                .relu()
                .dense(3, &mut rng)
                .softmax()
                .build()
                .unwrap();
            ctx.models.push((format!("m{i}"), m));
        }
        ctx
    }

    #[test]
    fn warm_audit_answers_from_the_memo() {
        let auditor = Auditor::new(1);
        let ctx = ctx(4);
        let cold = auditor.audit(&ctx);
        assert_eq!(cold.models_analyzed, 4);
        assert_eq!(cold.memo_hits, 0);
        let warm = auditor.audit(&ctx);
        assert_eq!(warm.models_analyzed, 0);
        assert_eq!(warm.memo_hits, 4);
        assert_eq!(cold.report, warm.report);
        assert_eq!(auditor.memo_len(), 4);
    }

    #[test]
    fn duplicate_content_under_two_keys_reports_both_keys() {
        let mut ctx = LintContext::new();
        // The same degenerate model stored under two keys: the second is
        // a memo hit, yet its finding must name the second key.
        let build = || {
            ModelBuilder::new("dup", TaskKind::Other, Shape::vector(4))
                .dense_with(sommelier_tensor::Tensor::zeros(4, 3), None)
                .softmax()
                .build()
                .unwrap()
        };
        ctx.models.push(("first".into(), build()));
        ctx.models.push(("second".into(), build()));
        let outcome = Auditor::new(1).audit(&ctx);
        assert_eq!(outcome.models_analyzed, 1);
        assert_eq!(outcome.memo_hits, 1);
        let targets: Vec<&str> = outcome
            .report
            .diagnostics
            .iter()
            .map(|d| d.target.as_str())
            .collect();
        assert!(targets.contains(&"model 'first'"), "{targets:?}");
        assert!(targets.contains(&"model 'second'"), "{targets:?}");
    }

    #[test]
    fn reports_are_identical_across_job_counts() {
        let ctx = ctx(6);
        let r1 = Auditor::new(1).audit(&ctx).report;
        let r4 = Auditor::new(4).audit(&ctx).report;
        let r8 = Auditor::new(8).audit(&ctx).report;
        assert_eq!(r1.to_json(), r4.to_json());
        assert_eq!(r4.to_json(), r8.to_json());
    }

    #[test]
    fn audit_counters_are_published() {
        // Counters are process-global and other tests audit too, so
        // assert on deltas, never on absolute values.
        let runs = counters::get("audit.runs");
        let analyzed = counters::get("audit.models_analyzed");
        let hits = counters::get("audit.memo_hits");
        let auditor = Auditor::new(1);
        let ctx = ctx(3);
        auditor.audit(&ctx);
        auditor.audit(&ctx);
        assert!(counters::get("audit.runs") >= runs + 2);
        assert!(counters::get("audit.models_analyzed") >= analyzed + 3);
        assert!(counters::get("audit.memo_hits") >= hits + 3);
    }
}
