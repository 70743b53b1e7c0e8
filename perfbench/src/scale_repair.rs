//! scale-repair: the distributed breakout repairing a large planted
//! 3-coloring on the M:N sharded executor.
//!
//! Each repair generates a 2×10^4-agent `paper_coloring`, moves about one
//! agent in 64 off its planted color, and runs DBA on `run_sharded` with
//! [`crate::threads`] workers until the first consistent snapshot. Agents
//! do little per activation and learn nothing, so the serial coordinator
//! and its one perfect-link `Router` carry most of the run.
//!
//! Perturbed agents are kept more than two hops apart, so every defect is
//! an isolated conflict the breakout settles in two waves. When defects
//! may touch, DBA falls into breakout sequences whose length is a matter
//! of luck: on 10^4 agents, 2 of 16 seeded repairs ran past 300 waves
//! while most took 4, which would make a run's work a lottery.

use std::time::Instant;

use discsp_core::{Assignment, DistributedCsp, Value};
use discsp_dba::{DbaAgent, DbaSolver};
use discsp_probgen::{coloring_to_discsp, paper_coloring};
use discsp_runtime::{
    derive_seed, run_sharded, DistributedAgent, LinkPolicy, ShardConfig, SplitMix64, VirtualConfig,
    VirtualReport,
};

use crate::check::{digest_outcome, report_diff, verdict, Verdict};
use crate::layers::{ratio, Layers};
use crate::replay::RouterLedger;
use crate::speed::Speed;
use crate::stats::{fast_rate, median};
use crate::timed::Ledger;
use crate::{Args, Run};

const AGENTS: u32 = 20_000;

/// One agent in this many is a candidate to start off its planted color.
const PERTURB_ONE_IN: u64 = 64;

/// Leading repairs whose outcomes form the digest; the first is also the
/// traced slice.
const DIGEST_REPAIRS: u64 = 1;

/// Repair `op`'s instance (generated and encoded) and perturbed start.
fn inputs(seed: u64, op: u64) -> (DistributedCsp, Assignment) {
    let instance = paper_coloring(AGENTS, derive_seed(seed, 0x5ca1e, op));
    let problem = coloring_to_discsp(&instance).expect("planted colorings encode cleanly");
    let mut rng = SplitMix64::new(derive_seed(seed, 0x9e27, op));
    let mut colors = instance.planted.clone();
    // Agents within two hops of a perturbed agent stay planted.
    let mut near_defect = vec![false; colors.len()];
    for var in problem.vars() {
        let i = var.index();
        if rng.next_below(PERTURB_ONE_IN) != 0 || near_defect[i] {
            continue;
        }
        colors[i] = (colors[i] + 1) % 3;
        near_defect[i] = true;
        for &hop in problem.neighbors(var) {
            near_defect[hop.index()] = true;
            for &second in problem.neighbors(hop) {
                near_defect[second.index()] = true;
            }
        }
    }
    let init = Assignment::total(colors.into_iter().map(Value::new));
    (problem, init)
}

fn config(seed: u64, op: u64, record_trace: bool) -> ShardConfig {
    ShardConfig::with_base(
        VirtualConfig {
            seed: derive_seed(seed, 7, op),
            stop_on_first_solution: true,
            record_trace,
            ..VirtualConfig::default()
        },
        crate::threads(),
    )
}

fn build(problem: &DistributedCsp, init: &Assignment) -> Vec<DbaAgent> {
    DbaSolver::new()
        .build_agents(problem, init)
        .expect("colorings have one variable per agent")
}

fn solve<A: DistributedAgent + Send>(
    agents: Vec<A>,
    problem: &DistributedCsp,
    config: &ShardConfig,
) -> Result<VirtualReport, String> {
    run_sharded(agents, problem, config).map_err(|e| e.to_string())
}

/// Tallies one finished repair; returns its activations.
fn account(
    run: &mut Run,
    problem: &DistributedCsp,
    result: &Result<VirtualReport, String>,
    digest: bool,
) -> u64 {
    run.attempted += 1;
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            run.failed += 1;
            eprintln!("repair error: {e}");
            return 0;
        }
    };
    match verdict(problem, &report.outcome) {
        Verdict::Solved => {}
        Verdict::CutOff => run.failed += 1,
        Verdict::Wrong(why) => {
            run.failed += 1;
            run.problems.push(format!("scale-repair: {why}"));
        }
    }
    if digest {
        digest_outcome(&mut run.digest, &report.outcome, report.activations);
    }
    report.activations
}

pub fn measure(args: &Args, run: &mut Run) {
    // Rates are per repair, set-up included, and reported as the fast
    // quartile over repairs (see `fast_rate`).
    let (mut setups, mut repair_rates, mut activation_rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut speed = Speed::default();
    let start = Instant::now();
    let mut op = 0;
    while op < DIGEST_REPAIRS || start.elapsed() < args.seconds {
        speed.sample();
        let t = Instant::now();
        let (problem, init) = inputs(args.seed, op);
        let agents = build(&problem, &init);
        setups.push(t.elapsed().as_secs_f64());
        let result = solve(agents, &problem, &config(args.seed, op, false));
        let activations = account(run, &problem, &result, op < DIGEST_REPAIRS);
        let wall = t.elapsed().as_secs_f64();
        repair_rates.push(1.0 / wall);
        activation_rates.push(activations as f64 / wall);
        op += 1;
    }
    let slowdown = speed.slowdown();
    eprintln!("calibration: this machine ran {slowdown:.3}x slower than the reference box");
    run.metrics = vec![
        ("setup_s", median(&setups) / slowdown, "s"),
        ("solves_per_s", fast_rate(&repair_rates) * slowdown, "1/s"),
        (
            "activations_per_s",
            fast_rate(&activation_rates) * slowdown,
            "1/s",
        ),
    ];
}

/// The traced slice: the first repair plain, wrapped, and recorded for the
/// router ledger.
pub fn traced(args: &Args, run: &mut Run) {
    let mut layers = Layers::default();
    let op = 0;

    let t = Instant::now();
    let (problem, init) = inputs(args.seed, op);
    layers.gen_s = t.elapsed().as_secs_f64();

    let agents = build(&problem, &init);
    let t = Instant::now();
    let plain = solve(agents, &problem, &config(args.seed, op, false));
    let plain_s = t.elapsed().as_secs_f64();
    account(run, &problem, &plain, true);

    let t = Instant::now();
    let agents = build(&problem, &init);
    layers.build_s = t.elapsed().as_secs_f64();
    let ledger = Ledger::new();
    let agents = ledger.wrap(agents);
    let t = Instant::now();
    let lo = ledger.now_ns();
    let wrapped = solve(agents, &problem, &config(args.seed, op, false));
    let hi = ledger.now_ns();
    layers.trace_overhead = ratio(t.elapsed().as_secs_f64(), plain_s);

    let recorded = solve(
        build(&problem, &init),
        &problem,
        &config(args.seed, op, true),
    );
    match (&plain, &wrapped, &recorded) {
        (Ok(plain), Ok(wrapped), Ok(recorded)) => {
            if let Some(field) = report_diff(plain, wrapped) {
                run.problems
                    .push(format!("scale-repair: wrapped run differs in {field}"));
            }
            if let Some(field) = report_diff(plain, recorded) {
                run.problems
                    .push(format!("scale-repair: recorded run differs in {field}"));
            }
            layers
                .traced
                .add_run(lo, hi, ledger.take(), wrapped.ticks, wrapped.nudges);
            let mut router = RouterLedger::default();
            let seed = config(args.seed, op, true).base.seed;
            if let Err(e) = router.replay(
                problem.num_agents(),
                LinkPolicy::perfect(),
                seed,
                &recorded.trace,
                &recorded.outcome.metrics,
            ) {
                run.problems.push(format!("scale-repair: {e}"));
            }
            layers.router = router;
        }
        _ => run
            .problems
            .push("scale-repair: a traced-slice run failed".into()),
    }
    eprintln!(
        "scale-repair traced slice: plain {plain_s:.3}s, traced run span {:.3}s",
        layers.traced.run_s()
    );
    run.metrics = layers.metrics();
}
