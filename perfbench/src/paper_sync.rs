//! paper-sync: the learning cells of Tables 1–3 on the synchronous
//! simulator, the paper's own measurement path.
//!
//! Each round generates one instance of each family, draws one random
//! initial assignment for it, and runs AWC with resolvent, mcs and no
//! learning from it (the paper's paired design), each trial on
//! `SyncSimulator` under the paper's 10 000-cycle limit. Cut-offs are
//! part of the paper's protocol and count as completed trials here.
//!
//! The families run at their smallest paper sizes (d3c-60, d3s-50,
//! d3s1-50): at those sizes a trial lasts milliseconds, so a run
//! completes hundreds of them and the trial rate does not hinge on a few
//! multi-second cut-offs at the largest sizes.

use std::time::Instant;

use discsp_awc::{AwcAgent, AwcConfig, AwcSolver};
use discsp_bench::config::Family;
use discsp_core::{Assignment, DistributedCsp, TrialOutcome};
use discsp_cspsolve::random_assignment;
use discsp_runtime::{derive_seed, DistributedAgent, SyncSimulator};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::check::{digest_outcome, verdict, Verdict};
use crate::layers::{ratio, Layers};
use crate::speed::Speed;
use crate::stats::{fast_rate, median};
use crate::timed::Ledger;
use crate::{Args, Run};

/// One family per table, at its smallest paper size.
const CELLS: [(Family, u32); 3] = [
    (Family::Coloring, 60),
    (Family::Sat, 50),
    (Family::OneSat, 50),
];

/// Leading rounds whose outcomes form the digest.
const DIGEST_ROUNDS: u64 = 2;

/// Rounds in the traced slice.
const TRACED_ROUNDS: u64 = 6;

fn learners() -> [AwcConfig; 3] {
    [
        AwcConfig::resolvent(),
        AwcConfig::mcs(),
        AwcConfig::no_learning(),
    ]
}

/// Round `round`'s instances and initial assignments.
fn round_inputs(seed: u64, round: u64) -> Vec<(DistributedCsp, Assignment)> {
    CELLS
        .iter()
        .map(|&(family, n)| {
            let problem = family.problem(n, round as usize, seed);
            let stream = family as u64 * 1000 + u64::from(n);
            let mut rng = StdRng::seed_from_u64(derive_seed(seed ^ 0xA5A5_5A5A, stream, round));
            let init = random_assignment(&problem, &mut rng);
            (problem, init)
        })
        .collect()
}

fn build(config: AwcConfig, problem: &DistributedCsp, init: &Assignment) -> Vec<AwcAgent> {
    AwcSolver::new(config)
        .build_agents(problem, init)
        .expect("generated paper instances have one variable per agent")
}

fn solve<A: DistributedAgent>(
    agents: Vec<A>,
    problem: &DistributedCsp,
) -> Result<TrialOutcome, String> {
    SyncSimulator::new(agents)
        .run(problem)
        .map(|run| run.outcome)
        .map_err(|e| e.to_string())
}

/// Tallies one finished trial; returns its agent activations.
fn account(
    run: &mut Run,
    problem: &DistributedCsp,
    result: Result<TrialOutcome, String>,
    digest: bool,
) -> u64 {
    run.attempted += 1;
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            run.failed += 1;
            eprintln!("trial error: {e}");
            return 0;
        }
    };
    if let Verdict::Wrong(why) = verdict(problem, &outcome) {
        run.failed += 1;
        run.problems.push(format!("paper-sync trial: {why}"));
    }
    let activations = outcome.metrics.cycles * problem.num_agents() as u64;
    if digest {
        digest_outcome(&mut run.digest, &outcome, activations);
    }
    activations
}

pub fn measure(args: &Args, run: &mut Run) {
    // Per cell (family × learner), the fast-quartile trial rate (see
    // `fast_rate`); reported as the geometric mean over the nine cells.
    // Trial times within a cell are heavy-tailed and the cells differ by
    // orders of magnitude, so a plain total would follow whichever few
    // long trials a seed drew.
    let (mut setups, mut speed) = (Vec::new(), Speed::default());
    let mut cells: Vec<(Vec<f64>, Vec<f64>)> = vec![(Vec::new(), Vec::new()); CELLS.len() * 3];
    let start = Instant::now();
    let mut round = 0;
    while round < DIGEST_ROUNDS || start.elapsed() < args.seconds {
        speed.sample();
        let t = Instant::now();
        let mut trials = Vec::new();
        for (problem, init) in round_inputs(args.seed, round) {
            let agents: Vec<_> = learners()
                .iter()
                .map(|&c| build(c, &problem, &init))
                .collect();
            trials.push((problem, agents));
        }
        setups.push(t.elapsed().as_secs_f64());
        let mut cell = cells.iter_mut();
        for (problem, agent_sets) in trials {
            for agents in agent_sets {
                let t = Instant::now();
                let result = solve(agents, &problem);
                let wall = t.elapsed().as_secs_f64();
                let activations = account(run, &problem, result, round < DIGEST_ROUNDS);
                let (trial_rates, activation_rates) =
                    cell.next().expect("one cell per trial of a round");
                trial_rates.push(1.0 / wall);
                activation_rates.push(activations as f64 / wall);
            }
        }
        round += 1;
    }
    let geomean = |rates: &mut dyn Iterator<Item = f64>| {
        let logs: Vec<f64> = rates.map(f64::ln).collect();
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    };
    let slowdown = speed.slowdown();
    eprintln!("calibration: this machine ran {slowdown:.3}x slower than the reference box");
    run.metrics = vec![
        ("setup_s", median(&setups) / slowdown, "s"),
        (
            "solves_per_s",
            geomean(&mut cells.iter().map(|c| fast_rate(&c.0))) * slowdown,
            "1/s",
        ),
        (
            "activations_per_s",
            geomean(&mut cells.iter().map(|c| fast_rate(&c.1))) * slowdown,
            "1/s",
        ),
    ];
}

/// The traced slice: every trial of the first rounds, plain then wrapped.
pub fn traced(args: &Args, run: &mut Run) {
    let mut layers = Layers::default();
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    for round in 0..TRACED_ROUNDS {
        let t = Instant::now();
        let inputs = round_inputs(args.seed, round);
        layers.gen_s += t.elapsed().as_secs_f64();
        for (problem, init) in &inputs {
            for config in learners() {
                let agents = build(config, problem, init);
                let t = Instant::now();
                let plain = solve(agents, problem);
                plain_s += t.elapsed().as_secs_f64();

                let t = Instant::now();
                let agents = build(config, problem, init);
                layers.build_s += t.elapsed().as_secs_f64();
                let ledger = Ledger::new();
                let t = Instant::now();
                let mut sim = SyncSimulator::new(ledger.wrap(agents));
                let lo = ledger.now_ns();
                let wrapped = sim
                    .run(problem)
                    .map(|r| r.outcome)
                    .map_err(|e| e.to_string());
                let hi = ledger.now_ns();
                drop(sim);
                traced_s += t.elapsed().as_secs_f64();

                if plain != wrapped {
                    run.problems.push(format!(
                        "paper-sync round {round}: wrapped trial differs from plain"
                    ));
                }
                let cycles = wrapped.as_ref().map_or(0, |o| o.metrics.cycles);
                layers.traced.add_run(lo, hi, ledger.take(), cycles, 0);
                account(run, problem, plain, round < DIGEST_ROUNDS);
            }
        }
    }
    layers.trace_overhead = ratio(traced_s, plain_s);
    eprintln!(
        "paper-sync traced slice: {} trials, plain {plain_s:.3}s, traced run span {:.3}s",
        run.attempted,
        layers.traced.run_s()
    );
    run.metrics = layers.metrics();
}
