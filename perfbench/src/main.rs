//! Sommelier benchmark: four seeded workloads against the real program.
//!
//! ```sh
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_hot --seed 1 --seconds 15 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` replays the
//! workload through each layer's public functions and prints the
//! per-layer metrics. The last line of standard output is the JSON
//! result; every run also appends a record to `.bench_records/runs.jsonl`.
//! See `perfbench/README.md` for the workloads and metrics.

mod fixture;
mod replay;
mod report;
mod stats;
mod storage;
mod trace;
mod traced;
mod wire;
mod workloads;

use report::Outcome;
use workloads::Mix;

const WORKLOADS: [&str; 4] = ["serve_hot", "serve_scan", "ingest", "cold_open"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10);
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be within 1..=600".to_string());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let secs = args.seconds as f64;
    let mut out: Outcome = if args.trace {
        traced::run(&args.workload, args.seed, secs)
    } else {
        match args.workload.as_str() {
            "serve_hot" => workloads::serve(Mix::Hot, args.seed, secs),
            "serve_scan" => workloads::serve(Mix::Scan, args.seed, secs),
            "ingest" => workloads::ingest(args.seed, secs),
            _ => workloads::cold_open(args.seed, secs),
        }
    };
    if !args.trace {
        let rss = report::peak_rss_mb();
        out.metric("peak_rss_mb", rss, "MB");
        out.lines
            .push(format!("peak_rss_mb {rss:.2} MB (VmHWM of this process)"));
    }
    out.lines.push(format!(
        "failed_share {:.6} ratio (failed + refused + wrong = {} of attempted = {})",
        out.failed_share(),
        out.failed,
        out.attempted
    ));
    let all_finite = out.metrics.iter().all(|(_, v, _)| v.is_finite());
    out.check("every metric was measured", all_finite);
    for (_, v, _) in out.metrics.iter_mut() {
        if !v.is_finite() {
            *v = 0.0;
        }
    }

    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in &out.lines {
        println!("  {line}");
    }
    for (what, ok) in &out.checks {
        println!("  check {}: {what}", if *ok { "ok" } else { "FAILED" });
    }
    if let Err(e) = report::append_record(&args.workload, args.seed, args.seconds, args.trace, &out)
    {
        eprintln!("perfbench: cannot append the run record: {e}");
    }
    println!("{}", out.result_json());
    if !out.correct() {
        std::process::exit(1);
    }
}
