//! service-mix: many small sessions through one in-process
//! `SolveService`, in `discsp-load`'s four-way mix.
//!
//! Sessions are 10-variable planted 3-colorings solved by AWC with
//! resolvent learning, AWC with mcs learning, DBA, and AWC over a link
//! that drops 2% of messages, in rotation. Every session builds its own
//! agents and router, so per-session set-up, thousands of small routers,
//! the drop/retransmit/nudge path and the service's own copy of the wave
//! loop all carry weight here.
//!
//! Two phases, both driven from this one thread:
//! * burst — every session of a batch submitted up front, then the
//!   scheduler swept until idle (closed: throughput);
//! * open loop — sessions arrive as a Poisson process at a fixed offered
//!   rate, each submitted when due, its latency timed from its due time.

use std::collections::BTreeMap;
use std::time::Instant;

use discsp_awc::{AwcConfig, AwcSolver};
use discsp_core::{Assignment, DistributedCsp, Value};
use discsp_dba::{DbaSolver, WeightMode};
use discsp_net::AlgoSpec;
use discsp_probgen::{coloring_to_discsp, paper_coloring};
use discsp_runtime::{
    derive_seed, run_virtual, DistributedAgent, LinkPolicy, SplitMix64, VirtualConfig,
    VirtualReport,
};
use discsp_service::{ServiceConfig, SessionId, SessionResult, SessionSpec, SolveService};

use crate::check::{digest_outcome, report_diff, verdict, Verdict};
use crate::layers::{ratio, Layers};
use crate::speed::Speed;
use crate::stats::{fast_rate, median, tail};
use crate::timed::{Held, Ledger};
use crate::{Args, Run};

/// Variables (and agents) per session, as in `discsp-load`.
const VARS: u32 = 10;

/// Sessions per burst.
const BURST: usize = 1000;

/// Sessions the scheduler polls at once.
const MAX_ACTIVE: usize = 64;

/// Offered load at which session latency is reported, in sessions per
/// second: about a third of the burst throughput on the reference box.
const REFERENCE_RATE: f64 = 600.0;

/// The latency limit on the 99th-percentile session latency.
const SLO_MS: f64 = 25.0;

/// Sessions per open-loop run: enough for a 99th percentile with ten
/// samples beyond it.
const OPEN_LOOP_SESSIONS: usize = 1000;

/// Offered rates bracketing the search for the highest rate that meets
/// the limit, and the number of bisection probes between them.
const RATE_BRACKET: (f64, f64) = (100.0, 6400.0);
const RATE_PROBES: u64 = 6;

/// Phase tags that keep each phase's sessions distinct.
const OPEN_LOOP_PHASE: u64 = 1 << 32;
const PROBE_PHASE: u64 = 2 << 32;

/// The four-way mix, by session index.
fn mix(index: u64) -> (AlgoSpec, LinkPolicy) {
    match index % 4 {
        0 => (AlgoSpec::Awc(AwcConfig::resolvent()), LinkPolicy::perfect()),
        1 => (AlgoSpec::Awc(AwcConfig::mcs()), LinkPolicy::perfect()),
        2 => (AlgoSpec::Dba(WeightMode::PerNogood), LinkPolicy::perfect()),
        _ => (
            AlgoSpec::Awc(AwcConfig::resolvent()),
            LinkPolicy::lossy(20_000),
        ),
    }
}

/// `count` sessions of `phase`, generated and encoded.
fn sessions(seed: u64, phase: u64, count: usize) -> Vec<SessionSpec> {
    (0..count as u64)
        .map(|index| {
            let (algo, link) = mix(index);
            let instance = paper_coloring(VARS, derive_seed(seed, phase, index));
            SessionSpec {
                problem: coloring_to_discsp(&instance).expect("planted colorings encode cleanly"),
                init: Assignment::total((0..VARS).map(|_| Value::new(0))),
                algo,
                config: VirtualConfig {
                    seed: derive_seed(seed ^ 0x5e55, phase, index),
                    link,
                    ..VirtualConfig::default()
                },
            }
        })
        .collect()
}

fn new_service(sessions: usize) -> SolveService {
    SolveService::new(ServiceConfig {
        max_active: MAX_ACTIVE,
        max_pending: sessions,
        session_budget: u64::MAX,
        workers: 1,
    })
}

/// What the service returned for a batch of sessions, keyed by
/// `index + 1`.
struct Served {
    results: BTreeMap<SessionId, SessionResult>,
    /// Sessions refused at submit or failed by the service.
    lost: usize,
    wall_s: f64,
}

/// Submits every spec up front, then sweeps until idle. With `layers`,
/// times each submit and sweep.
fn burst(specs: Vec<SessionSpec>, mut layers: Option<&mut Layers>) -> Served {
    let mut service = new_service(specs.len());
    let mut refused = 0;
    let start = Instant::now();
    for (index, spec) in specs.into_iter().enumerate() {
        let t = Instant::now();
        let submitted = service.submit(index as u64 + 1, spec);
        if let Some(layers) = layers.as_deref_mut() {
            layers.submit_us.push(t.elapsed().as_secs_f64() * 1e6);
            layers.pending_peak = layers.pending_peak.max(service.pending_sessions() as u64);
        }
        if let Err(e) = submitted {
            eprintln!("session {} refused: {e}", index + 1);
            refused += 1;
        }
    }
    while !service.is_idle() {
        let t = Instant::now();
        service.sweep();
        if let Some(layers) = layers.as_deref_mut() {
            layers.sweep_us.push(t.elapsed().as_secs_f64() * 1e6);
            layers.service_sweeps += 1;
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    Served {
        results: service.take_completed(),
        lost: refused + service.failed().len(),
        wall_s,
    }
}

/// Checks every session's answer; returns the activations of the
/// sessions that finished. Sessions that failed, were refused or cut off
/// count as failed; wrong answers also make the run incorrect.
fn settle(run: &mut Run, problems: &[DistributedCsp], served: &Served, digest: bool) -> u64 {
    let mut activations = 0;
    for (index, problem) in problems.iter().enumerate() {
        run.attempted += 1;
        let Some(result) = served.results.get(&(index as u64 + 1)) else {
            run.failed += 1;
            continue;
        };
        match verdict(problem, &result.report.outcome) {
            Verdict::Solved => {}
            Verdict::CutOff => run.failed += 1,
            Verdict::Wrong(why) => {
                run.failed += 1;
                run.problems
                    .push(format!("service-mix session {}: {why}", index + 1));
            }
        }
        if digest {
            digest_outcome(
                &mut run.digest,
                &result.report.outcome,
                result.report.activations,
            );
        }
        activations += result.report.activations;
    }
    if served.results.len() + served.lost != problems.len() {
        run.problems.push(format!(
            "service-mix lost sessions: {} submitted, {} completed, {} refused or failed",
            problems.len(),
            served.results.len(),
            served.lost
        ));
    }
    activations
}

/// One open-loop run at a fixed offered rate.
struct OpenLoop {
    served: Served,
    /// Per session, from its due time to the end of the sweep that
    /// finished it; infinite for sessions that never finished solved.
    latency_ms: Vec<f64>,
    /// How late the generator submitted its latest session.
    late_ms_max: f64,
    sweep_us: Vec<f64>,
}

impl OpenLoop {
    /// Whether the run meets the latency limit without a growing backlog:
    /// the tail percentile and the mean latency of the last tenth of the
    /// sessions both within [`SLO_MS`].
    fn meets_slo(&self) -> bool {
        let last = &self.latency_ms[self.latency_ms.len() * 9 / 10..];
        let last_mean = last.iter().sum::<f64>() / last.len().max(1) as f64;
        tail(&self.latency_ms) <= SLO_MS && last_mean <= SLO_MS
    }
}

fn open_loop(specs: Vec<SessionSpec>, rate: f64, arrivals_seed: u64) -> OpenLoop {
    let count = specs.len();
    let mut rng = SplitMix64::new(arrivals_seed);
    let mut at = 0.0;
    let due: Vec<f64> = (0..count)
        .map(|_| {
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            at += -(1.0 - u).ln() / rate;
            at
        })
        .collect();
    let mut service = new_service(count);
    let mut results = BTreeMap::new();
    let mut finished_at = vec![f64::INFINITY; count];
    let mut refused = 0;
    let mut late_ms_max: f64 = 0.0;
    let mut sweep_us = Vec::new();
    let mut pending = specs.into_iter().enumerate().peekable();
    let start = Instant::now();
    loop {
        let now = start.elapsed().as_secs_f64();
        while let Some((index, spec)) = pending.next_if(|(index, _)| due[*index] <= now) {
            late_ms_max = late_ms_max.max((now - due[index]) * 1e3);
            if service.submit(index as u64 + 1, spec).is_err() {
                refused += 1;
            }
        }
        if service.is_idle() {
            let Some((index, _)) = pending.peek() else {
                break;
            };
            // Spin rather than sleep: a sleeping generator wakes late by
            // a scheduler quantum, which would show up as latency.
            while start.elapsed().as_secs_f64() < due[*index] {
                std::hint::spin_loop();
            }
            continue;
        }
        let t = Instant::now();
        service.sweep();
        sweep_us.push(t.elapsed().as_secs_f64() * 1e6);
        let done = start.elapsed().as_secs_f64();
        for (id, result) in service.take_completed() {
            finished_at[id as usize - 1] = done;
            results.insert(id, result);
        }
    }
    let latency_ms = (0..count)
        .map(|index| {
            let solved = results
                .get(&(index as u64 + 1))
                .is_some_and(|r| r.report.outcome.solution.is_some());
            if solved {
                (finished_at[index] - due[index]) * 1e3
            } else {
                f64::INFINITY
            }
        })
        .collect();
    OpenLoop {
        served: Served {
            results,
            lost: refused + service.failed().len(),
            wall_s: start.elapsed().as_secs_f64(),
        },
        latency_ms,
        late_ms_max,
        sweep_us,
    }
}

pub fn measure(args: &Args, run: &mut Run) {
    // The seed's batch, generated afresh and served again burst after
    // burst: every burst does the same work, so bursts differ only by
    // interference.
    let start = Instant::now();
    let (mut setups, mut session_rates, mut activation_rates) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut speed = Speed::default();
    let mut batch = 0;
    while batch == 0 || start.elapsed() < args.seconds {
        speed.sample();
        let t = Instant::now();
        let specs = sessions(args.seed, 0, BURST);
        setups.push(t.elapsed().as_secs_f64());
        let problems: Vec<_> = specs.iter().map(|s| s.problem.clone()).collect();
        let served = burst(specs, None);
        let activations = settle(run, &problems, &served, batch == 0);
        session_rates.push(problems.len() as f64 / served.wall_s);
        activation_rates.push(activations as f64 / served.wall_s);
        batch += 1;
    }
    let slowdown = speed.slowdown();
    eprintln!("calibration: this machine ran {slowdown:.3}x slower than the reference box");
    run.metrics = vec![
        ("setup_s", median(&setups) / slowdown, "s"),
        ("solves_per_s", fast_rate(&session_rates) * slowdown, "1/s"),
        (
            "activations_per_s",
            fast_rate(&activation_rates) * slowdown,
            "1/s",
        ),
    ];
}

/// Runs one session's agents wrapped on `run_virtual`, the executor the
/// service's session driver is proven equal to, and accounts the run.
fn virtual_traced<A: DistributedAgent + Held>(
    agents: Vec<A>,
    spec: &SessionSpec,
    config: &VirtualConfig,
    layers: &mut Layers,
) -> Option<VirtualReport> {
    let ledger = Ledger::new();
    let agents = ledger.wrap(agents);
    let lo = ledger.now_ns();
    let report = run_virtual(agents, &spec.problem, config).ok()?;
    let hi = ledger.now_ns();
    layers
        .traced
        .add_run(lo, hi, ledger.take(), report.ticks, report.nudges);
    Some(report)
}

/// The agents a session runs, wrapped and run on `run_virtual` with the
/// configuration `build_pump` gives them.
fn agent_pass(spec: &SessionSpec, layers: &mut Layers) -> Option<VirtualReport> {
    let t = Instant::now();
    match spec.algo {
        AlgoSpec::Awc(config) => {
            let agents = AwcSolver::new(config)
                .build_agents(&spec.problem, &spec.init)
                .ok()?;
            layers.build_s += t.elapsed().as_secs_f64();
            virtual_traced(agents, spec, &spec.config, layers)
        }
        AlgoSpec::Dba(mode) => {
            let agents = DbaSolver::new()
                .weight_mode(mode)
                .build_agents(&spec.problem, &spec.init)
                .ok()?;
            layers.build_s += t.elapsed().as_secs_f64();
            let config = VirtualConfig {
                stop_on_first_solution: true,
                ..spec.config.clone()
            };
            virtual_traced(agents, spec, &config, layers)
        }
    }
}

/// A session re-run plain on `run_virtual` with trace recording on.
fn recorded(spec: &SessionSpec) -> Option<VirtualReport> {
    let mut config = VirtualConfig {
        record_trace: true,
        ..spec.config.clone()
    };
    match spec.algo {
        AlgoSpec::Awc(awc) => AwcSolver::new(awc)
            .solve_virtual(&spec.problem, &spec.init, &config)
            .ok(),
        AlgoSpec::Dba(mode) => {
            config.stop_on_first_solution = true;
            DbaSolver::new()
                .weight_mode(mode)
                .solve_virtual(&spec.problem, &spec.init, &config)
                .ok()
        }
    }
}

/// Bisects the offered rate, in log space, for the highest rate that
/// meets the latency limit, then interpolates the limit's crossing
/// between the last passing and first failing probe.
fn max_rate_at_slo(seed: u64, run: &mut Run) -> f64 {
    let (mut lo, mut hi) = RATE_BRACKET;
    let (mut lo_p99, mut hi_p99): (Option<f64>, Option<f64>) = (None, None);
    for probe in 0..RATE_PROBES {
        let rate = (lo * hi).sqrt();
        let phase = PROBE_PHASE + probe;
        let specs = sessions(seed, phase, OPEN_LOOP_SESSIONS);
        let problems: Vec<_> = specs.iter().map(|s| s.problem.clone()).collect();
        let probe = open_loop(specs, rate, derive_seed(seed, phase, 0));
        settle(run, &problems, &probe.served, false);
        let p99 = tail(&probe.latency_ms);
        eprintln!(
            "  offered {rate:.0}/s: p99 {p99:.2} ms, meets limit: {}",
            probe.meets_slo()
        );
        if probe.meets_slo() {
            (lo, lo_p99) = (rate, Some(p99));
        } else {
            (hi, hi_p99) = (rate, Some(p99));
        }
    }
    match (lo_p99, hi_p99) {
        (Some(a), Some(b)) if b.is_finite() && b > a => {
            lo + (hi - lo) * ((SLO_MS - a) / (b - a)).clamp(0.0, 1.0)
        }
        _ => (lo * hi).sqrt(),
    }
}

/// The traced slice: the first burst plain and timed, its sessions'
/// agents wrapped on `run_virtual`, every session recorded and replayed through
/// the router ledger, one open-loop run at the reference rate and the
/// search for the highest rate that meets the limit.
pub fn traced(args: &Args, run: &mut Run) {
    let mut layers = Layers::default();
    let t = Instant::now();
    let specs = sessions(args.seed, 0, BURST);
    layers.gen_s = t.elapsed().as_secs_f64();
    let problems: Vec<_> = specs.iter().map(|s| s.problem.clone()).collect();

    let plain = burst(specs.clone(), None);
    let timed = burst(specs.clone(), Some(&mut layers));
    settle(run, &problems, &plain, true);
    layers.trace_overhead = ratio(timed.wall_s, plain.wall_s);
    let busy_us: f64 = layers.submit_us.iter().chain(&layers.sweep_us).sum();
    layers.service_busy_share = ratio(busy_us / 1e6, timed.wall_s);
    layers.latency_sweeps = timed
        .results
        .values()
        .map(|r| r.latency_sweeps() as f64)
        .collect();

    for (id, result) in &plain.results {
        let same = timed.results.get(id).is_some_and(|t| {
            report_diff(&t.report, &result.report).is_none()
                && (t.submitted_sweep, t.completed_sweep)
                    == (result.submitted_sweep, result.completed_sweep)
        });
        if !same {
            run.problems.push(format!(
                "service-mix session {id}: timed burst differs from plain"
            ));
        }
    }

    for (index, spec) in specs.iter().enumerate() {
        let id = index as u64 + 1;
        let Some(served) = plain.results.get(&id) else {
            continue;
        };
        match agent_pass(spec, &mut layers) {
            Some(report) if report_diff(&report, &served.report).is_none() => {}
            _ => run.problems.push(format!(
                "service-mix session {id}: wrapped agents differ from the service"
            )),
        }
        let replayed = recorded(spec)
            .ok_or("recording failed".to_string())
            .and_then(|report| {
                if report_diff(&report, &served.report).is_some() {
                    return Err("recorded run differs from the service".to_string());
                }
                let link = spec.config.link;
                layers.router.replay(
                    VARS as usize,
                    link,
                    spec.config.seed,
                    &report.trace,
                    &report.outcome.metrics,
                )
            });
        if let Err(e) = replayed {
            run.problems.push(format!("service-mix session {id}: {e}"));
        }
    }

    let specs = sessions(args.seed, OPEN_LOOP_PHASE, OPEN_LOOP_SESSIONS);
    let problems: Vec<_> = specs.iter().map(|s| s.problem.clone()).collect();
    let reference = open_loop(
        specs,
        REFERENCE_RATE,
        derive_seed(args.seed, OPEN_LOOP_PHASE, 0),
    );
    settle(run, &problems, &reference.served, false);
    layers.late_ms_max = reference.late_ms_max;
    layers.session_ms_p99 = tail(&reference.latency_ms);
    layers.sweep_us.extend(&reference.sweep_us);
    layers.max_rate_at_slo = max_rate_at_slo(args.seed, run);
    eprintln!(
        "service-mix traced slice: burst plain {:.3}s timed {:.3}s, {} sweeps timed",
        plain.wall_s,
        timed.wall_s,
        layers.sweep_us.len()
    );
    run.metrics = layers.metrics();
}
