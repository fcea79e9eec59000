//! `churn_100k`: reconfiguration of a 100 000-component fleet.
//!
//! 100 SHM hub providers feed 999 consumers each (consumer `i` reads hub
//! `i mod 100`; `--hubs` scales the hub count at the same cohort) on 4 simulated CPUs, under the reactive resolver with
//! always-admit, deployed in two install waves (consumers, then hubs).
//! One step takes a seeded hub away and brings it back (its cohort of
//! 999 consumers cascades down and up), adds and removes one consumer of
//! a seeded hub, and takes one metrics snapshot. Virtual time does not
//! advance, so the kernel, the bridge and the federation stay idle.
//! Passes replay the same step sequence on the same fleet, which every
//! step leaves as it found it.

use crate::measure::{Budget, Checks, Inputs, Passes};
use crate::trace::Tracer;
use crate::{quiet, Outcome};
use drcom::drcr::{ComponentProvider, ResolutionStrategy};
use drcom::prelude::*;
use drcom::resolve::AlwaysAdmit;
use drcom::DrcomActivator;
use osgi::{BundleId, BundleManifest, Version};
use rtos::kernel::KernelConfig;
use rtos::latency::TimerJitterModel;
use std::collections::BTreeMap;
use std::time::Instant;

/// Hubs of the benchmark fleet; `--hubs` changes it for scaling references.
pub const HUBS: usize = 100;
const COHORT: usize = 999;
const CPUS: u32 = 4;
const HUB_CLAIM: f64 = 0.001;
const CONSUMER_CLAIM: f64 = 0.0005;
/// Steps in one pass, and the set-ups timed for `setup_s`.
const STEPS: usize = 3;
const SETUPS: usize = 3;
const MIN_PASSES: usize = 3;
/// Framework calls plus one metrics snapshot per step.
const OPS_PER_STEP: u64 = 6;

fn hub_name(j: usize) -> String {
    format!("h{j:03}")
}

fn consumer_name(i: usize) -> String {
    format!("c{i:05}")
}

fn hub(j: usize) -> ComponentProvider {
    let d = ComponentDescriptor::builder(&hub_name(j))
        .periodic(100, 0, 2)
        .cpu_usage(HUB_CLAIM)
        .outport(
            &format!("p{j:03}"),
            PortInterface::Shm,
            DataType::Integer,
            1,
        )
        .build()
        .expect("hub descriptor");
    ComponentProvider::new(d, quiet)
}

fn consumer(name: &str, hub: usize, cpu: u32) -> ComponentProvider {
    let d = ComponentDescriptor::builder(name)
        .periodic(50, cpu, 5)
        .cpu_usage(CONSUMER_CLAIM)
        .inport(
            &format!("p{hub:03}"),
            PortInterface::Shm,
            DataType::Integer,
            1,
        )
        .build()
        .expect("consumer descriptor");
    ComponentProvider::new(d, quiet)
}

/// One step's seeded choices.
struct Plan {
    hub: usize,
    arrival: String,
    arrival_hub: usize,
    arrival_cpu: u32,
}

fn plans(seed: u64, hubs: usize) -> Vec<Plan> {
    let mut rng = Inputs::new(seed, 1);
    (0..STEPS)
        .map(|s| Plan {
            hub: rng.below(hubs as u64) as usize,
            arrival: format!("a{s:05}"),
            arrival_hub: rng.below(hubs as u64) as usize,
            arrival_cpu: rng.below(u64::from(CPUS)) as u32,
        })
        .collect()
}

/// Resolver work counters, read from the executive's metrics, in the
/// order of [`WORK_METRICS`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Work([u64; 8]);

/// The per-layer metric each [`Work`] counter reports.
const WORK_METRICS: [&str; 8] = [
    "drcr.resolve.rounds",
    "drcr.resolve.sweeps",
    "drcr.wiring.checks",
    "drcr.wiring.evals",
    "drcr.view.rebuilds",
    "drcr.activations",
    "drcr.deactivations",
    "drcr.events",
];
const ACTIVATIONS: usize = 5;
const DEACTIVATIONS: usize = 6;

impl Work {
    fn read(rt: &DrtRuntime) -> Self {
        let drcr = rt.drcr();
        let m = drcr.metrics();
        Work([
            m.counter("drcr.resolve.rounds"),
            m.histogram("drcr.resolve.sweeps").map_or(0, |h| h.sum()),
            m.counter("drcr.wiring.checks"),
            m.counter("drcr.wiring.evals"),
            m.counter("drcr.view.rebuilds"),
            m.counter("drcr.activations"),
            m.counter("drcr.deactivations"),
            drcr.events().total_recorded(),
        ])
    }

    fn since(self, before: Work) -> Work {
        Work(std::array::from_fn(|i| self.0[i] - before.0[i]))
    }

    fn add(&mut self, other: Work) {
        for (total, v) in self.0.iter_mut().zip(other.0) {
            *total += v;
        }
    }
}

/// Builds the fleet from an empty runtime to its fixpoint; returns it
/// with the hub bundles and the set-up wall time.
fn deploy(seed: u64, hubs: usize, tr: &mut Tracer) -> (DrtRuntime, Vec<BundleId>, u64) {
    let consumers: Vec<(String, ComponentProvider)> = (0..hubs * COHORT)
        .map(|i| {
            let name = consumer_name(i);
            (
                format!("bundle.{name}"),
                consumer(&name, i % hubs, (i % CPUS as usize) as u32),
            )
        })
        .collect();
    let hub_providers: Vec<(String, ComponentProvider)> = (0..hubs)
        .map(|j| (format!("bundle.{}", hub_name(j)), hub(j)))
        .collect();
    let open = tr.enter("setup");
    let start = Instant::now();
    let mut rt = DrtRuntime::with_resolver(
        KernelConfig::new(seed)
            .with_cpus(CPUS)
            .with_timer(TimerJitterModel::ideal()),
        Box::new(AlwaysAdmit),
    );
    rt.set_resolution_strategy(ResolutionStrategy::Incremental);
    rt.install_components(consumers)
        .expect("install consumer wave");
    let hub_bundles = rt
        .install_components(hub_providers)
        .expect("install hub wave");
    let ns = u64::try_from(start.elapsed().as_nanos()).expect("set-up shorter than 584 years");
    tr.exit(open);
    (rt, hub_bundles, ns)
}

/// Indices (consumers first, then hubs) of every
/// component that is not Active.
fn inactive(rt: &DrtRuntime, names: &[String]) -> Vec<usize> {
    let drcr = rt.drcr();
    names
        .iter()
        .enumerate()
        .filter(|(_, n)| drcr.state_of(n) != Some(ComponentState::Active))
        .map(|(i, _)| i)
        .collect()
}

/// The ledger holds exactly the claims of the Active components, as the
/// generator declared them.
fn check_ledger(rt: &DrtRuntime, names: &[String], consumers: usize, checks: &mut Checks) {
    let drcr = rt.drcr();
    let ledger = drcr.ledger();
    checks.eq(ledger.len(), names.len(), "ledger entries");
    for (i, name) in names.iter().enumerate() {
        let want = if i < consumers {
            ((i % CPUS as usize) as u32, CONSUMER_CLAIM)
        } else {
            (0, HUB_CLAIM)
        };
        let got = ledger.reservation(name);
        checks.check(got == Some(want), || {
            format!("ledger entry of {name}: {got:?}, want {want:?}")
        });
    }
}

fn attempt<E: std::fmt::Debug>(
    r: Result<(), E>,
    failed: &mut u64,
    checks: &mut Checks,
    what: &str,
) {
    if let Err(e) = r {
        *failed += 1;
        checks.check(false, || format!("{what}: {e:?}"));
    }
}

pub fn run(seed: u64, seconds: u64, hubs: usize, tr: &mut Tracer) -> Outcome {
    let consumers = hubs * COHORT;
    let mut checks = Checks::default();
    let mut setup_ns = Vec::new();
    let mut fleet = None;
    for _ in 0..SETUPS {
        drop(fleet.take());
        let (rt, hub_bundles, ns) = deploy(seed, hubs, tr);
        setup_ns.push(ns);
        fleet = Some((rt, hub_bundles));
    }
    let (mut rt, hub_bundles) = fleet.expect("deployed");
    let names: Vec<String> = (0..consumers)
        .map(consumer_name)
        .chain((0..hubs).map(hub_name))
        .collect();
    checks.eq(
        inactive(&rt, &names),
        Vec::new(),
        "inactive after deployment",
    );
    check_ledger(&rt, &names, consumers, &mut checks);

    let plans = plans(seed, hubs);
    let mut budget = Budget::new(seconds, MIN_PASSES);
    let mut passes = Passes::default();
    let mut first_work: Vec<Work> = Vec::new();
    let mut work_total = Work::default();
    let mut snapshot_keys = 0usize;
    let mut failed = 0u64;
    let mut attempted = 0u64;
    while budget.another_pass(passes.count()) {
        let pass_start = Instant::now();
        let mut times = Vec::with_capacity(STEPS);
        for (s, plan) in plans.iter().enumerate() {
            let arrival = consumer(&plan.arrival, plan.arrival_hub, plan.arrival_cpu);
            let manifest =
                BundleManifest::new(&format!("bundle.{}", plan.arrival), Version::new(1, 0, 0));
            let hub_bundle = hub_bundles[plan.hub];
            let before = Work::read(&rt);
            tr.begin_step((passes.count() * STEPS + s) as u64);

            let o = tr.enter("osgi.call");
            let r = rt.framework_mut().stop(hub_bundle);
            tr.exit(o);
            attempt(r, &mut failed, &mut checks, "stop hub");
            let o = tr.enter("drcr.depart");
            rt.process();
            tr.exit(o);
            let want: Vec<usize> = (plan.hub..consumers)
                .step_by(hubs)
                .chain([consumers + plan.hub])
                .collect();
            checks.eq(inactive(&rt, &names), want, "inactive after departure");

            let o = tr.enter("osgi.call");
            let r = rt.framework_mut().start(hub_bundle);
            tr.exit(o);
            attempt(r, &mut failed, &mut checks, "restart hub");
            let o = tr.enter("drcr.return");
            rt.process();
            tr.exit(o);
            checks.eq(inactive(&rt, &names), Vec::new(), "inactive after return");

            let o = tr.enter("osgi.call");
            let installed = rt
                .framework_mut()
                .install(manifest, Box::new(DrcomActivator::new(arrival)));
            tr.exit(o);
            let bundle = match installed {
                Ok(b) => Some(b),
                Err(e) => {
                    attempt(Err(e), &mut failed, &mut checks, "install arrival");
                    None
                }
            };
            if let Some(b) = bundle {
                let o = tr.enter("osgi.call");
                let r = rt.framework_mut().start(b);
                tr.exit(o);
                attempt(r, &mut failed, &mut checks, "start arrival");
            } else {
                failed += 1;
            }
            let o = tr.enter("drcr.arrive");
            rt.process();
            tr.exit(o);
            checks.eq(
                rt.component_state(&plan.arrival),
                Some(ComponentState::Active),
                "arrival state",
            );

            if let Some(b) = bundle {
                let o = tr.enter("osgi.call");
                let r = rt.framework_mut().uninstall(b);
                tr.exit(o);
                attempt(r, &mut failed, &mut checks, "uninstall arrival");
            } else {
                failed += 1;
            }
            let o = tr.enter("drcr.leave");
            rt.process();
            tr.exit(o);
            checks.eq(
                rt.component_state(&plan.arrival),
                None,
                "state after leaving",
            );

            let o = tr.enter("obs.snapshot");
            let report = rt.metrics_report();
            tr.exit(o);
            snapshot_keys =
                report.counters().len() + report.gauges().len() + report.histograms().len();
            drop(report);
            times.push(tr.end_step());
            attempted += OPS_PER_STEP;

            let work = Work::read(&rt).since(before);
            checks.eq(
                work.0[ACTIVATIONS],
                COHORT as u64 + 2,
                "activations per step",
            );
            checks.eq(
                work.0[DEACTIVATIONS],
                COHORT as u64 + 2,
                "deactivations per step",
            );
            if passes.count() == 0 {
                first_work.push(work);
            } else {
                checks.eq(work, first_work[s], "step work differs from the first pass");
            }
            work_total.add(work);
        }
        check_ledger(&rt, &names, consumers, &mut checks);
        passes.push(times);
        budget.charge(pass_start.elapsed());
    }

    let mut layers = BTreeMap::new();
    if tr.is_on() {
        let steps = passes.steps() as f64;
        layers.insert("osgi.call_ms.p10", tr.step_p10_ms("osgi.call"));
        layers.insert("drcr.depart_ms.p10", tr.call_p10_ms("drcr.depart"));
        layers.insert("drcr.return_ms.p10", tr.call_p10_ms("drcr.return"));
        layers.insert("drcr.arrive_ms.p10", tr.call_p10_ms("drcr.arrive"));
        layers.insert("drcr.leave_ms.p10", tr.call_p10_ms("drcr.leave"));
        layers.insert("obs.snapshot_ms.p10", tr.call_p10_ms("obs.snapshot"));
        layers.insert("obs.snapshot_keys", snapshot_keys as f64);
        for (name, total) in WORK_METRICS.into_iter().zip(work_total.0) {
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
