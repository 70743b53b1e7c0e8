//! Golden pin for the synchronous cycle simulator.
//!
//! `golden_metrics.rs` pins seven metric fields of zero-delay runs. The
//! runs here cover the rest of the sync path: the `1 + U(0..=d)`
//! message-delay model, multi-variable agents at several partition
//! sizes, ABT, an insoluble run, and a run that stalls until the cycle
//! limit. Each run is reduced to an FNV-1a digest of everything it
//! reports — all `RunMetrics` fields, the solution, the per-cycle
//! history rows and the full event trace — and the lines are pinned in
//! `sync_goldens.txt`. A change to how the simulator counts, orders or
//! delivers shows up as a digest mismatch.

use discsp::prelude::*;
use discsp::runtime::SyncRun;
use discsp::trace::event_to_json;

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        // Field separator, so adjacent fields cannot alias.
        self.0 ^= 0xFF;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
    }

    fn text(&mut self, text: &str) {
        self.bytes(text.as_bytes());
    }
}

/// Renders one run's golden line.
fn golden_line(label: &str, run: &SyncRun) -> String {
    let metrics = &run.outcome.metrics;
    let mut fnv = Fnv(0xCBF2_9CE4_8422_2325);
    fnv.text(&format!("{metrics:?}"));
    fnv.text(&format!("{:?}", run.outcome.solution));
    for row in &run.history {
        fnv.text(&format!("{row:?}"));
    }
    for event in &run.trace {
        fnv.text(&event_to_json(event));
    }
    format!(
        "{label} termination={:?} cycles={} maxcck={} history={} events={} digest={:016x}",
        metrics.termination,
        metrics.cycles,
        metrics.maxcck,
        run.history.len(),
        run.trace.len(),
        fnv.0,
    )
}

fn coloring(n: u32, seed: u64) -> DistributedCsp {
    coloring_to_discsp(&paper_coloring(n, seed)).expect("coloring encodes")
}

fn all_zero(n: usize) -> Assignment {
    Assignment::total((0..n).map(|_| Value::new(0)))
}

/// K4 under three colors: insoluble.
fn k4() -> DistributedCsp {
    let mut b = DistributedCsp::builder();
    let vars: Vec<_> = (0..4).map(|_| b.variable(Domain::new(3))).collect();
    for i in 0..4 {
        for j in (i + 1)..4 {
            b.not_equal(vars[i], vars[j]).expect("k4 edge");
        }
    }
    b.build().expect("k4 problem")
}

/// `problem` with its variables owned by `agents` contiguous blocks.
fn repartition(problem: &DistributedCsp, agents: u32) -> DistributedCsp {
    let n = problem.num_vars() as u32;
    let mut b = DistributedCsp::builder();
    for var in problem.vars() {
        let owner = (var.raw() * agents / n).min(agents - 1);
        b.variable_owned_by(problem.domain(var), AgentId::new(owner));
    }
    for ng in problem.nogoods() {
        b.nogood(ng.clone()).expect("source problem is valid");
    }
    b.build().expect("source problem is nonempty")
}

fn golden_lines() -> Vec<String> {
    let mut lines = Vec::new();

    // The message-delay model, on two instances per delay.
    for delay in [1, 4] {
        for instance in [3, 11] {
            let problem = coloring(20, instance);
            let init = all_zero(20);
            let tag = format!("d={delay} instance={instance}");
            for (name, config) in [
                ("awc-rslv", AwcConfig::resolvent()),
                ("awc-mcs", AwcConfig::mcs()),
            ] {
                let run = AwcSolver::new(config)
                    .record_history(true)
                    .record_trace(true)
                    .message_delay(delay, 17)
                    .solve_sync(&problem, &init)
                    .expect("awc sync run");
                lines.push(golden_line(&format!("{name} {tag}"), &run));
            }
            let run = DbaSolver::new()
                .record_history(true)
                .record_trace(true)
                .message_delay(delay, 17)
                .solve_sync(&problem, &init)
                .expect("dba sync run");
            lines.push(golden_line(&format!("dba {tag}"), &run));
        }
    }

    // Multi-variable agents: one instance over three partition sizes.
    let flat = coloring(24, 5);
    for agents in [24, 6, 2] {
        // Through the simulator directly: the solver has no trace switch.
        let problem = repartition(&flat, agents);
        let population = MultiAwcSolver::new(AwcConfig::resolvent())
            .build_agents(&problem, &all_zero(24))
            .expect("multi-awc agents build");
        let mut sim = SyncSimulator::new(population);
        sim.record_history(true).record_trace(true);
        let run = sim.run(&problem).expect("multi-awc sync run");
        lines.push(golden_line(&format!("multi-awc agents={agents}"), &run));
    }

    let run = AbtSolver::new()
        .record_history(true)
        .record_trace(true)
        .solve_sync(&coloring(12, 7), &all_zero(12))
        .expect("abt sync run");
    lines.push(golden_line("abt", &run));

    // The insoluble K4 run of `trace_audit.rs`.
    let run = AwcSolver::new(AwcConfig::resolvent())
        .record_history(true)
        .record_trace(true)
        .cycle_limit(5_000)
        .solve_sync(&k4(), &all_zero(4))
        .expect("awc k4 run");
    lines.push(golden_line("awc-rslv k4", &run));

    // The breakout cannot prove insolubility: it stalls on K4 until the
    // cycle limit cuts it off.
    let run = DbaSolver::new()
        .record_history(true)
        .record_trace(true)
        .cycle_limit(60)
        .solve_sync(&k4(), &all_zero(4))
        .expect("dba k4 run");
    lines.push(golden_line("dba k4 cutoff", &run));

    lines
}

#[test]
fn sync_runs_match_their_pinned_digests() {
    let actual = golden_lines().join("\n");
    let pinned = include_str!("sync_goldens.txt").trim_end();
    assert_eq!(
        actual, pinned,
        "sync run digests moved; actual lines:\n{actual}"
    );
}
