//! Load generation over the daemon's wire protocol: an open-loop
//! single-connection stream and closed-loop pipelined batch frames,
//! keeping what the correctness checks need from every reply.

use crate::stats::{Schedule, Timing};
use serde::Value;
use sommelier_query::QueryResult;
use sommelier_serving::daemon::client::{Client, Reply};
use sommelier_tensor::mix64;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// One answered query: its text, the epoch it was served from and a
/// digest of its result list. Texts are shared, so keeping every answer
/// of a run costs little memory.
#[derive(Clone, Debug)]
pub struct Answer {
    pub text: Arc<str>,
    pub epoch: u64,
    pub digest: u64,
}

fn uint(v: &Value) -> Option<u64> {
    match v {
        Value::UInt(n) => Some(*n),
        Value::Int(n) if *n >= 0 => Some(*n as u64),
        _ => None,
    }
}

fn float(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        other => uint(other).map(|n| n as f64),
    }
}

fn str_hash(s: &str) -> u64 {
    sommelier_tensor::stable_hash64(s.as_bytes())
}

/// Digest of a result list as the engine returns it.
pub fn digest_results(results: &[QueryResult]) -> u64 {
    results.iter().fold(0x5eed, |acc, r| {
        mix64(&[
            acc,
            str_hash(&r.key),
            r.score.to_bits(),
            r.diff_bound.to_bits(),
        ])
    })
}

/// Digest of a `results` array from a reply; `None` when malformed.
pub fn digest_value(results: &Value) -> Option<u64> {
    let Value::Seq(items) = results else {
        return None;
    };
    let mut acc = 0x5eed;
    for item in items {
        let key = match item.get_field("key")? {
            Value::Str(s) => s,
            _ => return None,
        };
        let score = float(item.get_field("score")?)?;
        let diff = float(item.get_field("diff_bound")?)?;
        acc = mix64(&[acc, str_hash(key), score.to_bits(), diff.to_bits()]);
    }
    Some(acc)
}

/// Result keys of a reply's `results` array.
pub fn result_keys(results: &Value) -> Vec<String> {
    match results {
        Value::Seq(items) => items
            .iter()
            .filter_map(|i| match i.get_field("key") {
                Some(Value::Str(s)) => Some(s.clone()),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// Epoch and answer of a successful single-query reply.
pub fn answer_of(text: &Arc<str>, reply: &Reply) -> Option<Answer> {
    if !reply.ok {
        return None;
    }
    Some(Answer {
        text: Arc::clone(text),
        epoch: uint(reply.body.get_field("epoch")?)?,
        digest: digest_value(reply.body.get_field("results")?)?,
    })
}

#[derive(Default)]
pub struct OpenLoopOut {
    pub timings: Vec<Timing>,
    pub answers: Vec<Answer>,
    pub attempted: u64,
    pub failed: u64,
}

/// Send `query` frames on one connection at `rate` per second for
/// `window`, each timed from its scheduled send.
pub fn open_loop(
    client: &mut Client,
    rate: f64,
    window: Duration,
    mut text: impl FnMut(u64) -> Arc<str>,
) -> OpenLoopOut {
    let schedule = Schedule::new(Instant::now(), rate);
    let mut out = OpenLoopOut::default();
    for i in 0.. {
        if schedule.due(i) >= window {
            break;
        }
        let text = text(i);
        let due = schedule.wait_for(i);
        let sent = schedule.origin.elapsed();
        let reply = client.query(&text);
        let done = schedule.origin.elapsed();
        out.attempted += 1;
        match reply.ok().and_then(|r| answer_of(&text, &r)) {
            Some(a) => {
                out.timings.push(Timing { due, sent, done });
                out.answers.push(a);
            }
            None => out.failed += 1,
        }
    }
    out
}

/// Batch answers kept once per distinct text: the batch phase sends
/// tens of thousands of repeats, and keeping each would make the
/// process's peak memory follow its throughput.
#[derive(Default)]
pub struct DistinctAnswers {
    pub first: HashMap<Arc<str>, (u64, u64)>,
    /// Answers that differ from the first answer to the same text.
    pub conflicts: u64,
}

impl DistinctAnswers {
    fn add(&mut self, text: &Arc<str>, epoch: u64, digest: u64) {
        match self.first.get(text) {
            Some(&seen) => self.conflicts += u64::from(seen != (epoch, digest)),
            None => {
                self.first.insert(Arc::clone(text), (epoch, digest));
            }
        }
    }

    pub fn answers(&self) -> Vec<Answer> {
        self.first
            .iter()
            .map(|(text, &(epoch, digest))| Answer {
                text: Arc::clone(text),
                epoch,
                digest,
            })
            .collect()
    }
}

#[derive(Default)]
pub struct BatchOut {
    /// Frame round trips, milliseconds.
    pub frame_ms: Vec<f64>,
    pub queries: u64,
    pub elapsed_s: f64,
    pub answers: DistinctAnswers,
    pub attempted: u64,
    pub failed: u64,
    /// Batch replies whose items did not all carry the frame's epoch.
    pub mixed: u64,
}

fn check_batch(texts: &[Arc<str>], reply: &Reply, out: &mut BatchOut) -> bool {
    if !reply.ok {
        return false;
    }
    let Some(top) = reply.body.get_field("epoch").and_then(uint) else {
        return false;
    };
    let Some(Value::Seq(items)) = reply.body.get_field("items") else {
        return false;
    };
    if items.len() != texts.len() {
        return false;
    }
    let mut mixed = false;
    for (text, item) in texts.iter().zip(items) {
        let epoch = item.get_field("epoch").and_then(uint);
        mixed |= epoch != Some(top);
        let Some(digest) = item.get_field("results").and_then(digest_value) else {
            return false;
        };
        out.answers.add(text, top, digest);
    }
    out.mixed += u64::from(mixed);
    true
}

/// `conns` connections each send `query_batch` frames of `batch` texts
/// back to back for `window`.
pub fn closed_batches(
    addr: SocketAddr,
    conns: usize,
    batch: usize,
    window: Duration,
    texts: impl Fn(usize, u64) -> Vec<Arc<str>> + Sync,
) -> BatchOut {
    let barrier = Arc::new(Barrier::new(conns));
    let started = Instant::now();
    let outs: Vec<BatchOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let barrier = Arc::clone(&barrier);
                let texts = &texts;
                s.spawn(move || {
                    let mut out = BatchOut::default();
                    let Ok(mut client) = Client::connect(addr) else {
                        out.attempted = 1;
                        out.failed = 1;
                        return out;
                    };
                    barrier.wait();
                    let begin = Instant::now();
                    let mut frame = 0u64;
                    while begin.elapsed() < window {
                        let batch_texts = texts(c, frame);
                        debug_assert_eq!(batch_texts.len(), batch);
                        frame += 1;
                        let owned: Vec<String> =
                            batch_texts.iter().map(|t| t.to_string()).collect();
                        let t0 = Instant::now();
                        let reply = client.query_batch(&owned);
                        let ms = t0.elapsed().as_secs_f64() * 1e3;
                        out.attempted += batch_texts.len() as u64;
                        match reply {
                            Ok(r) if check_batch(&batch_texts, &r, &mut out) => {
                                out.frame_ms.push(ms);
                                out.queries += batch_texts.len() as u64;
                            }
                            _ => out.failed += batch_texts.len() as u64,
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("batch client thread panicked"))
            .collect()
    });
    let mut total = BatchOut {
        elapsed_s: started.elapsed().as_secs_f64(),
        ..BatchOut::default()
    };
    for o in outs {
        total.frame_ms.extend(o.frame_ms);
        total.queries += o.queries;
        total.answers.conflicts += o.answers.conflicts;
        for (text, (epoch, digest)) in o.answers.first {
            total.answers.add(&text, epoch, digest);
        }
        total.attempted += o.attempted;
        total.failed += o.failed;
        total.mixed += o.mixed;
    }
    total
}
