//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <churn_100k|hrc_fleet|failover_120> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--hubs <n>` (churn_100k only, default 100) shrinks the churn fleet to
//! `n` hubs at the same 999-consumer cohort, for scaling references.
//!
//! One workload per process, on one thread. The run builds its inputs
//! from `--seed`, sets up the fleet, then replays a deterministic step
//! sequence in identical passes until `--seconds` of timed work are done,
//! checking the program's outputs as it goes. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1` (spans are then also written to
//! `perfbench/out/`). See `perfbench/README.md`.

mod churn;
mod failover;
mod hrc;
mod measure;
mod trace;

use drcom::hybrid::{FnLogic, RtIo, RtLogic};
use measure::{Checks, Host, Passes};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use trace::Tracer;

/// What a workload hands back to `main`.
pub struct Outcome {
    pub checks: Checks,
    pub attempted: u64,
    pub failed: u64,
    /// Wall time of every set-up from an empty runtime to the deployed
    /// fleet at its fixpoint, ns.
    pub setup_ns: Vec<u64>,
    pub passes: Passes,
    /// Per-layer metrics this workload loads (see [`LAYER_METRICS`]).
    pub layers: BTreeMap<&'static str, f64>,
}

/// Logic for a component whose body does nothing: the workloads that
/// measure the runtime around components, not their work.
pub fn quiet() -> Box<dyn RtLogic> {
    Box::new(FnLogic(|_io: &mut RtIo<'_, '_>| {}))
}

/// Every per-layer metric, in report order, with its unit. A workload
/// that does not load a layer reports it as 0.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("osgi.call_ms.p10", "ms"),
    ("drcr.depart_ms.p10", "ms"),
    ("drcr.return_ms.p10", "ms"),
    ("drcr.arrive_ms.p10", "ms"),
    ("drcr.leave_ms.p10", "ms"),
    ("drcr.resolve.rounds", "count"),
    ("drcr.resolve.sweeps", "count"),
    ("drcr.wiring.checks", "count"),
    ("drcr.wiring.evals", "count"),
    ("drcr.view.rebuilds", "count"),
    ("drcr.activations", "count"),
    ("drcr.deactivations", "count"),
    ("drcr.events", "count"),
    ("drcr.process_ms.p10", "ms"),
    ("kernel.run_ms.p10", "ms"),
    ("kernel.dispatches", "count"),
    ("kernel.preemptions", "count"),
    ("kernel.cycles", "count"),
    ("bridge.call_ms.p10", "ms"),
    ("bridge.commands", "count"),
    ("bridge.replies", "count"),
    ("contracts.poll_ms.p10", "ms"),
    ("contracts.samples", "count"),
    ("obs.snapshot_ms.p10", "ms"),
    ("obs.snapshot_keys", "count"),
    ("fed.tick_ms.p10", "ms"),
    ("fed.wave_tick_ms.p10", "ms"),
    ("fed.install_ms.p10", "ms"),
    ("fed.migrations.planned", "count"),
    ("fed.migrations.admitted", "count"),
    ("fed.migrations.rejected", "count"),
    ("fed.failover.retries", "count"),
    ("fed.failover.quarantines", "count"),
    ("fed.messages.delivered", "count"),
    ("fed.messages.retried", "count"),
    ("fed.heartbeats.sent", "count"),
    ("host.wait_ms", "ms"),
    ("host.probe_ms", "ms"),
    ("host.minflt", "count"),
    ("trace.step_ms.min", "ms"),
];

const WORKLOADS: &[&str] = &["churn_100k", "hrc_fleet", "failover_120"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    hubs: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut hubs = churn::HUBS;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                })
            }
            "--hubs" => {
                hubs = value.parse().map_err(|e| format!("--hubs: {e}"))?;
                if !(1..=churn::HUBS).contains(&hubs) {
                    return Err(format!("--hubs must be in 1..={}", churn::HUBS));
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be in 1..=600".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        hubs,
    })
}

fn metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.ends_with('{') {
        out.push_str(", ");
    }
    let value = if value.is_finite() { value } else { 0.0 };
    let _ = write!(
        out,
        "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
    );
}

fn write_spans(args: &Args, tracer: &Tracer) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/trace-{}-seed{}.jsonl", args.workload, args.seed);
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.render()));
    match written {
        Ok(()) => eprintln!("spans written to {path}"),
        Err(e) => eprintln!("could not write spans to {path}: {e}"),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let mut tracer = Tracer::new(args.trace);
    let host = Host::start();
    let outcome = match args.workload.as_str() {
        "churn_100k" => churn::run(args.seed, args.seconds, args.hubs, &mut tracer),
        "hrc_fleet" => hrc::run(args.seed, args.seconds, &mut tracer),
        "failover_120" => failover::run(args.seed, args.seconds, &mut tracer),
        _ => unreachable!("workload validated by parse_args"),
    };
    let (wait_ms, probe_ms, minflt) = host.finish();
    outcome.checks.report();
    eprintln!(
        "{}: {} passes, {} steps, {} set-ups",
        args.workload,
        outcome.passes.count(),
        outcome.passes.steps(),
        outcome.setup_ns.len()
    );
    // Every run states how fast the host ran it; steady.py reads this line.
    eprintln!("host: wait_ms={wait_ms} probe_ms={probe_ms} minflt={minflt}");

    let mut metrics = String::from("{");
    if args.trace {
        let mut layers = outcome.layers;
        layers.insert("host.wait_ms", wait_ms);
        layers.insert("host.probe_ms", probe_ms);
        layers.insert("host.minflt", minflt);
        layers.insert("trace.step_ms.min", outcome.passes.step_ms_min());
        for name in layers.keys() {
            assert!(
                LAYER_METRICS.iter().any(|(n, _)| n == name),
                "undeclared per-layer metric {name}"
            );
        }
        for (name, unit) in LAYER_METRICS {
            metric(
                &mut metrics,
                name,
                layers.get(name).copied().unwrap_or(0.0),
                unit,
            );
        }
        write_spans(&args, &tracer);
    } else {
        let setup_s = measure::quantile(&outcome.setup_ns, 0.5) / 1e9;
        metric(&mut metrics, "setup_s", setup_s, "s");
        metric(&mut metrics, "peak_rss_mb", measure::peak_rss_mb(), "MB");
        metric(
            &mut metrics,
            "step_ms.min",
            outcome.passes.step_ms_min(),
            "ms",
        );
        metric(&mut metrics, "run_s", outcome.passes.run_s(), "s");
    }
    metrics.push('}');
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.checks.correct(),
        outcome.attempted,
        outcome.failed
    );
}
