//! `hrc_fleet`: the paper's Table 1 steady state, generalised to 192 HRC
//! components on 4 simulated CPUs.
//!
//! Each CPU carries 16 chains: a 1 kHz producer writes its cycle number
//! into SHM, a 1 kHz filter reads it and posts it to a mailbox, and an
//! aperiodic handler is released by each arrival and consumes it. Every
//! claim is honest and feasible. One step sends one management round
//! over the asynchronous bridge (the previous round's replies are
//! collected, then every periodic component gets a seeded `gain` and a
//! read-back request), resolves, and advances virtual time by 10 ms. A
//! `StochasticMonitor` poll and a metrics snapshot run at fixed step
//! intervals. Nothing is reconfigured. Each pass deploys a fresh fleet,
//! so passes replay the same steps exactly.

use crate::measure::{Budget, Checks, Inputs, Passes};
use crate::trace::Tracer;
use crate::Outcome;
use drcom::contracts::{LearningConfig, StochasticMonitor};
use drcom::drcr::ComponentProvider;
use drcom::manage::RequestToken;
use drcom::prelude::*;
use rtos::kernel::KernelConfig;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

const CPUS: u32 = 4;
const CHAINS_PER_CPU: usize = 16;
const CHAINS: usize = CPUS as usize * CHAINS_PER_CPU;
const HZ: u64 = 1000;
const STEP_MS: u64 = 10;
const STEPS: usize = 50;
const POLL_EVERY: usize = 10;
const SNAPSHOT_EVERY: usize = 25;
const MIN_PASSES: usize = 5;
/// A set-up takes milliseconds, so `setup_s` is the median of this many
/// deployments made before the passes (which time theirs too).
const SETUP_SAMPLES: usize = 30;
const PRODUCER_CLAIM: f64 = 0.008;
const FILTER_CLAIM: f64 = 0.008;
const HANDLER_CLAIM: f64 = 0.004;

/// What one chain's logic saw, counted by the benchmark's own closures.
#[derive(Default)]
struct Tally {
    sent: Cell<u64>,
    consumed: Cell<u64>,
    /// Values the handler received below one it had already seen: the
    /// chain must deliver the producer's cycle numbers in order.
    out_of_order: Cell<u64>,
}

fn producer(n: usize) -> ComponentProvider {
    let d = ComponentDescriptor::builder(&format!("src{n:02}"))
        .periodic(HZ as u32, (n / CHAINS_PER_CPU) as u32, 3)
        .cpu_usage(PRODUCER_CLAIM)
        .outport(
            &format!("s{n:02}"),
            PortInterface::Shm,
            DataType::Integer,
            1,
        )
        .property("gain", PropertyValue::Integer(1))
        .build()
        .expect("producer descriptor");
    ComponentProvider::new(d, move || {
        let port = format!("s{n:02}");
        Box::new(FnLogic(move |io: &mut RtIo<'_, '_>| {
            io.compute(SimDuration::from_micros(3));
            let value = (io.cycle() as u32).to_le_bytes();
            io.write(&port, &value).expect("producer SHM write");
        }))
    })
}

fn filter(n: usize, tally: Rc<Tally>) -> ComponentProvider {
    let d = ComponentDescriptor::builder(&format!("flt{n:02}"))
        .periodic(HZ as u32, (n / CHAINS_PER_CPU) as u32, 4)
        .cpu_usage(FILTER_CLAIM)
        .inport(
            &format!("s{n:02}"),
            PortInterface::Shm,
            DataType::Integer,
            1,
        )
        .outport(
            &format!("m{n:02}"),
            PortInterface::Mailbox,
            DataType::Byte,
            4,
        )
        .property("gain", PropertyValue::Integer(1))
        .build()
        .expect("filter descriptor");
    ComponentProvider::new(d, move || {
        let (inport, outport, tally) = (format!("s{n:02}"), format!("m{n:02}"), tally.clone());
        Box::new(FnLogic(move |io: &mut RtIo<'_, '_>| {
            let value = io
                .read(&inport)
                .expect("filter SHM read")
                .unwrap_or_default();
            io.compute(SimDuration::from_micros(3));
            if io.write(&outport, &value).expect("filter mailbox write") {
                tally.sent.set(tally.sent.get() + 1);
            }
        }))
    })
}

fn handler(n: usize, tally: Rc<Tally>) -> ComponentProvider {
    let d = ComponentDescriptor::builder(&format!("hnd{n:02}"))
        .aperiodic((n / CHAINS_PER_CPU) as u32, 2)
        .cpu_usage(HANDLER_CLAIM)
        .inport(
            &format!("m{n:02}"),
            PortInterface::Mailbox,
            DataType::Byte,
            4,
        )
        .build()
        .expect("handler descriptor");
    ComponentProvider::new(d, move || {
        let (inport, tally) = (format!("m{n:02}"), tally.clone());
        let mut last: Option<u32> = None;
        Box::new(FnLogic(move |io: &mut RtIo<'_, '_>| {
            while let Some(msg) = io.read(&inport).expect("handler mailbox read") {
                io.compute(SimDuration::from_micros(1));
                let value = u32::from_le_bytes(msg.try_into().unwrap_or_default());
                if last.is_some_and(|l| value < l) {
                    tally.out_of_order.set(tally.out_of_order.get() + 1);
                }
                last = Some(value);
                tally.consumed.set(tally.consumed.get() + 1);
            }
        }))
    })
}

struct Fleet {
    rt: DrtRuntime,
    tallies: Vec<Rc<Tally>>,
    managed: Vec<(String, Rc<dyn RtComponentManagement>)>,
}

fn deploy(seed: u64, tr: &mut Tracer) -> (Fleet, u64) {
    let tallies: Vec<Rc<Tally>> = (0..CHAINS).map(|_| Rc::default()).collect();
    let mut providers = Vec::with_capacity(3 * CHAINS);
    for (n, tally) in tallies.iter().enumerate() {
        providers.push((format!("bundle.src{n:02}"), producer(n)));
        providers.push((format!("bundle.flt{n:02}"), filter(n, tally.clone())));
        providers.push((format!("bundle.hnd{n:02}"), handler(n, tally.clone())));
    }
    let open = tr.enter("setup");
    let start = Instant::now();
    let mut rt = DrtRuntime::new(KernelConfig::new(seed).with_cpus(CPUS));
    rt.install_components(providers).expect("install fleet");
    let ns = u64::try_from(start.elapsed().as_nanos()).expect("set-up shorter than 584 years");
    tr.exit(open);
    let managed = (0..CHAINS)
        .flat_map(|n| [format!("src{n:02}"), format!("flt{n:02}")])
        .map(|name| {
            let m = rt.management(&name).expect("management service");
            (name, m)
        })
        .collect();
    (
        Fleet {
            rt,
            tallies,
            managed,
        },
        ns,
    )
}

/// Per-step layer counters, summed over a pass.
#[derive(Default)]
struct Tallies {
    dispatches: u64,
    preemptions: u64,
    cycles: u64,
    commands: u64,
    replies: u64,
    samples: u64,
    snapshot_keys: usize,
}

pub fn run(seed: u64, seconds: u64, tr: &mut Tracer) -> Outcome {
    let mut rng = Inputs::new(seed, 2);
    let gains: Vec<i64> = (0..STEPS * 2 * CHAINS)
        .map(|_| rng.below(1 << 20) as i64)
        .collect();
    let mut checks = Checks::default();
    let mut setup_ns = Vec::new();
    let mut passes = Passes::default();
    let mut budget = Budget::new(seconds, MIN_PASSES);
    let mut totals = Tallies::default();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for _ in 0..SETUP_SAMPLES {
        setup_ns.push(deploy(seed, tr).1);
    }
    while budget.another_pass(passes.count()) {
        let (mut fleet, ns) = deploy(seed, tr);
        setup_ns.push(ns);
        let pass_start = Instant::now();
        let components = fleet.rt.drcr().component_names();
        checks.check(
            components
                .iter()
                .all(|c| fleet.rt.component_state(c) == Some(ComponentState::Active)),
            || "fleet not fully Active after deployment".into(),
        );
        let mut monitor = StochasticMonitor::new(LearningConfig::default());
        let mut pending: Vec<(usize, RequestToken, i64)> = Vec::new();
        let mut answered = 0u64;
        let counters0 = fleet.rt.kernel().counters();
        let metrics0 = {
            let drcr = fleet.rt.drcr();
            (
                drcr.metrics().counter("bridge.commands"),
                drcr.metrics().counter("bridge.replies"),
            )
        };
        let mut times = Vec::with_capacity(STEPS);
        for s in 0..STEPS {
            tr.begin_step((passes.count() * STEPS + s) as u64);
            let mut replies = Vec::with_capacity(pending.len());
            let o = tr.enter("bridge.call");
            for &(m, token, _) in &pending {
                replies.push(fleet.managed[m].1.poll_reply(token));
            }
            let mut sent = Vec::with_capacity(fleet.managed.len());
            for (m, (_, mgmt)) in fleet.managed.iter().enumerate() {
                let gain = gains[s * 2 * CHAINS + m];
                let set = mgmt.set_property("gain", PropertyValue::Integer(gain));
                let token = mgmt.request_property("gain");
                sent.push((m, set, token, gain));
            }
            tr.exit(o);
            for ((m, _, want), reply) in pending.drain(..).zip(replies) {
                attempted += 1;
                match reply {
                    Ok(Some(ManagementReply::Property { value, .. })) => {
                        answered += 1;
                        checks.eq(value, Some(PropertyValue::Integer(want)), "gain read back");
                    }
                    other => {
                        failed += 1;
                        checks.check(false, || {
                            format!("reply of {}: {other:?}", fleet.managed[m].0)
                        });
                    }
                }
            }
            for (m, set, token, gain) in sent {
                attempted += 2;
                match (set, token) {
                    (Ok(()), Ok(token)) => pending.push((m, token, gain)),
                    (set, token) => {
                        failed += u64::from(set.is_err()) + u64::from(token.is_err());
                        checks.check(false, || {
                            format!("command to {}: {set:?} {token:?}", fleet.managed[m].0)
                        });
                    }
                }
            }

            let o = tr.enter("drcr.process");
            fleet.rt.process();
            tr.exit(o);
            let o = tr.enter("kernel.run");
            fleet
                .rt
                .kernel_mut()
                .run_for(SimDuration::from_millis(STEP_MS));
            tr.exit(o);
            let o = tr.enter("drcr.process");
            fleet.rt.process();
            tr.exit(o);
            attempted += 1;

            if (s + 1) % POLL_EVERY == 0 {
                let o = tr.enter("contracts.poll");
                let polled = monitor.poll(&mut fleet.rt);
                tr.exit(o);
                attempted += 1;
                if let Err(e) = polled {
                    failed += 1;
                    checks.check(false, || format!("monitor poll: {e}"));
                }
            }
            if (s + 1) % SNAPSHOT_EVERY == 0 {
                let o = tr.enter("obs.snapshot");
                let report = fleet.rt.metrics_report();
                tr.exit(o);
                attempted += 1;
                totals.snapshot_keys =
                    report.counters().len() + report.gauges().len() + report.histograms().len();
            }
            times.push(tr.end_step());
        }
        // Collect the last round's replies: the next cycle of every
        // periodic component answers, so 1 ms more is enough.
        fleet.rt.kernel_mut().run_for(SimDuration::from_millis(1));
        for (m, token, want) in pending.drain(..) {
            attempted += 1;
            match fleet.managed[m].1.poll_reply(token) {
                Ok(Some(ManagementReply::Property { value, .. })) => {
                    answered += 1;
                    checks.eq(
                        value,
                        Some(PropertyValue::Integer(want)),
                        "last gain read back",
                    );
                }
                other => {
                    failed += 1;
                    checks.check(false, || {
                        format!("last reply of {}: {other:?}", fleet.managed[m].0)
                    });
                }
            }
        }
        checks.eq(
            answered,
            (STEPS * fleet.managed.len()) as u64,
            "answered requests",
        );
        check_pass(&fleet, &monitor, &mut checks);

        let rt = &fleet.rt;
        let counters = rt.kernel().counters();
        totals.dispatches += counters.dispatches - counters0.dispatches;
        totals.preemptions += counters.preemptions - counters0.preemptions;
        totals.cycles += components
            .iter()
            .filter_map(|c| rt.drcr().task_of(c))
            .filter_map(|t| rt.kernel().task_cycles(t))
            .sum::<u64>();
        {
            let drcr = rt.drcr();
            totals.commands += drcr.metrics().counter("bridge.commands") - metrics0.0;
            totals.replies += drcr.metrics().counter("bridge.replies") - metrics0.1;
        }
        totals.samples += components
            .iter()
            .filter_map(|c| monitor.estimator(c))
            .map(|e| e.samples())
            .sum::<u64>();
        passes.push(times);
        budget.charge(pass_start.elapsed());
    }

    let mut layers = BTreeMap::new();
    if tr.is_on() {
        let steps = passes.steps() as f64;
        layers.insert("drcr.process_ms.p10", tr.step_p10_ms("drcr.process"));
        layers.insert("kernel.run_ms.p10", tr.call_p10_ms("kernel.run"));
        layers.insert("bridge.call_ms.p10", tr.call_p10_ms("bridge.call"));
        layers.insert("contracts.poll_ms.p10", tr.call_p10_ms("contracts.poll"));
        layers.insert("obs.snapshot_ms.p10", tr.call_p10_ms("obs.snapshot"));
        layers.insert("obs.snapshot_keys", totals.snapshot_keys as f64);
        for (name, total) in [
            ("kernel.dispatches", totals.dispatches),
            ("kernel.preemptions", totals.preemptions),
            ("kernel.cycles", totals.cycles),
            ("bridge.commands", totals.commands),
            ("bridge.replies", totals.replies),
            ("contracts.samples", totals.samples),
        ] {
            layers.insert(name, total as f64 / steps);
        }
    }
    Outcome {
        checks,
        attempted,
        failed,
        setup_ns,
        passes,
        layers,
    }
}

/// End-of-pass checks against values computed apart from the program.
fn check_pass(fleet: &Fleet, monitor: &StochasticMonitor, checks: &mut Checks) {
    let rt = &fleet.rt;
    let kernel = rt.kernel();
    let drcr = rt.drcr();
    let elapsed_ms = kernel.now().as_nanos() / 1_000_000;
    for n in 0..CHAINS {
        for name in [format!("src{n:02}"), format!("flt{n:02}")] {
            let cycles = drcr
                .task_of(&name)
                .and_then(|t| kernel.task_cycles(t))
                .unwrap_or(0);
            let want = elapsed_ms * HZ / 1000;
            checks.check(cycles.abs_diff(want) <= 1, || {
                format!("{name}: {cycles} cycles in {elapsed_ms} ms at {HZ} Hz")
            });
        }
        let tally = &fleet.tallies[n];
        let queued = kernel
            .mailboxes()
            .get(&format!("m{n:02}"))
            .map_or(0, |m| m.len() as u64);
        checks.check(tally.consumed.get() + queued == tally.sent.get(), || {
            format!(
                "hnd{n:02} consumed {} + queued {queued} != sent {}",
                tally.consumed.get(),
                tally.sent.get()
            )
        });
        checks.check(tally.sent.get().abs_diff(elapsed_ms) <= 1, || {
            format!("flt{n:02} sent {} in {elapsed_ms} ms", tally.sent.get())
        });
        checks.eq(tally.out_of_order.get(), 0, "handler values out of order");
    }
    checks.eq(kernel.counters().deadline_misses, 0, "deadline misses");
    checks.eq(
        monitor.outcomes().len(),
        0,
        "contract verdicts on honest claims",
    );
}
