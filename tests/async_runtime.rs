//! Integration: the paper's algorithms on a fully asynchronous system —
//! messages delayed, reordered, dropped and duplicated by seeded link
//! policies — solve the same problems as the synchronous simulator.
//! Every run here is deterministic, so every counter is checked exactly.

use discsp::prelude::*;
use discsp::runtime::MessageClass;

fn small_coloring() -> DistributedCsp {
    coloring_to_discsp(&paper_coloring(20, 13)).expect("encode")
}

/// Asynchronous delivery without loss: every copy is delayed 0..=3
/// ticks and may overtake its predecessors inside a 2-tick window.
fn reordering() -> LinkPolicy {
    LinkPolicy::delayed(0, 3).with_reordering(2)
}

fn reordering_config(seed: u64) -> VirtualConfig {
    VirtualConfig {
        seed,
        link: reordering(),
        ..VirtualConfig::default()
    }
}

#[test]
fn awc_async_solves_coloring_under_jitter() {
    let problem = small_coloring();
    let init = Assignment::total(vec![Value::new(0); 20]);
    let solver = AwcSolver::new(AwcConfig::resolvent());
    for seed in 0..3u64 {
        let report = solver
            .solve_virtual(&problem, &init, &reordering_config(seed))
            .expect("fits");
        let m = &report.outcome.metrics;
        assert_eq!(m.termination, Termination::Solved, "seed {seed}");
        assert!(m.max_delivery_delay > 0, "seed {seed}: no copy was delayed");
        assert_eq!(
            m.total_messages(),
            m.messages_sent,
            "seed {seed}: lossless link"
        );
        let solution = report.outcome.solution.expect("solved");
        assert!(problem.is_solution(&solution));
        assert!(report.activations >= 20, "every agent must have started");
    }
}

#[test]
fn awc_async_solves_unique_sat() {
    let instance = paper_one_sat3(12, 4);
    let problem = cnf_to_discsp(&instance.cnf).expect("encode");
    let init = Assignment::total(vec![Value::FALSE; 12]);
    // The *unrestricted* resolvent configuration: size-bounded recording
    // is incomplete, so under adversarial interleavings it can
    // legitimately fail to terminate — not a property to assert against.
    let report = AwcSolver::new(AwcConfig::resolvent())
        .solve_virtual(&problem, &init, &reordering_config(0))
        .expect("fits");
    assert_eq!(report.outcome.metrics.termination, Termination::Solved);
    assert_eq!(
        report.outcome.solution,
        Some(model_to_assignment(&instance.planted))
    );
}

#[test]
fn db_async_solves_coloring() {
    let problem = small_coloring();
    let init = Assignment::total(vec![Value::new(0); 20]);
    let report = DbaSolver::new()
        .solve_virtual(&problem, &init, &reordering_config(0))
        .expect("fits");
    assert_eq!(report.outcome.metrics.termination, Termination::Solved);
    assert!(problem.is_solution(&report.outcome.solution.expect("solved")));
}

#[test]
fn async_message_counts_are_plausible() {
    let problem = small_coloring();
    let init = Assignment::total(vec![Value::new(0); 20]);
    let config = VirtualConfig {
        record_trace: true,
        ..reordering_config(0)
    };
    let report = AwcSolver::new(AwcConfig::resolvent())
        .solve_virtual(&problem, &init, &config)
        .expect("fits");
    let m = &report.outcome.metrics;
    // Every agent announces to each neighbor at start; the coloring
    // instance has 54 arcs → exactly 108 initial ok? messages.
    let announced = report
        .trace
        .iter()
        .filter(|e| {
            matches!(
                e,
                TraceEvent::Sent {
                    cycle: 0,
                    class: MessageClass::Ok,
                    ..
                }
            )
        })
        .count();
    assert_eq!(announced, 108);
    assert!(m.ok_messages >= 108, "ok messages {}", m.ok_messages);
    assert_eq!(m.total_messages(), m.messages_sent);
    assert!(m.total_checks > 0);
}

/// The fault policy exercised by the deterministic sweep: 10% drops, 2%
/// duplicates, delivery delayed up to 2 ticks, 2-tick reordering window.
fn faulty() -> LinkPolicy {
    LinkPolicy::lossy(100_000)
        .with_duplication(20_000)
        .with_delay(0, 2)
        .with_reordering(2)
}

#[test]
fn awc_virtual_solves_coloring_over_faulty_links_across_seeds() {
    let problem = small_coloring();
    let init = Assignment::total(vec![Value::new(0); 20]);
    let solver = AwcSolver::new(AwcConfig::resolvent());
    for seed in 0..5u64 {
        let config = VirtualConfig {
            seed,
            link: faulty(),
            ..VirtualConfig::default()
        };
        let report = solver
            .solve_virtual(&problem, &init, &config)
            .expect("fits");
        let m = &report.outcome.metrics;
        assert_eq!(m.termination, Termination::Solved, "seed {seed}");
        assert!(problem.is_solution(&report.outcome.solution.clone().expect("solved")));
        assert!(m.messages_dropped > 0, "seed {seed}: lottery never fired");
        assert_eq!(
            m.total_messages(),
            m.messages_sent - m.messages_dropped + m.messages_duplicated + m.messages_retransmitted,
            "seed {seed}: enqueued-copies identity"
        );
    }
}

#[test]
fn db_virtual_solves_coloring_over_faulty_links_across_seeds() {
    let problem = small_coloring();
    let init = Assignment::total(vec![Value::new(0); 20]);
    let solver = DbaSolver::new();
    for seed in 0..5u64 {
        let config = VirtualConfig {
            seed,
            link: faulty(),
            ..VirtualConfig::default()
        };
        let report = solver
            .solve_virtual(&problem, &init, &config)
            .expect("fits");
        assert_eq!(
            report.outcome.metrics.termination,
            Termination::Solved,
            "seed {seed}"
        );
        assert!(problem.is_solution(&report.outcome.solution.expect("solved")));
    }
}

#[test]
fn virtual_faulty_runs_replay_bit_identically() {
    // The acceptance criterion for the whole fault layer: a fixed
    // (seed, policy) pair fully determines the run — counters,
    // termination, solution, tick count, everything.
    let problem = small_coloring();
    let init = Assignment::total(vec![Value::new(0); 20]);
    let solver = AwcSolver::new(AwcConfig::resolvent());
    let config = VirtualConfig {
        seed: 424_242,
        link: faulty(),
        ..VirtualConfig::default()
    };
    let a = solver
        .solve_virtual(&problem, &init, &config)
        .expect("fits");
    let b = solver
        .solve_virtual(&problem, &init, &config)
        .expect("fits");
    assert_eq!(a.outcome, b.outcome);
    assert_eq!(a.ticks, b.ticks);
    assert_eq!(a.activations, b.activations);
    assert_eq!(a.nudges, b.nudges);
}

#[test]
fn awc_async_solves_coloring_over_faulty_links() {
    // Robustness on real threads under the same policy: the sharded
    // executor must solve, keep the enqueued-copies identity exact, and
    // replay its single-threaded twin bit for bit.
    let problem = small_coloring();
    let init = Assignment::total(vec![Value::new(0); 20]);
    let base = VirtualConfig {
        seed: 7,
        link: faulty(),
        ..VirtualConfig::default()
    };
    let solver = AwcSolver::new(AwcConfig::resolvent());
    let report = solver
        .solve_sharded(&problem, &init, &ShardConfig::with_base(base.clone(), 2))
        .expect("fits");
    let m = &report.outcome.metrics;
    assert_eq!(m.termination, Termination::Solved);
    assert!(problem.is_solution(&report.outcome.solution.clone().expect("solved")));
    assert_eq!(
        m.total_messages(),
        m.messages_sent - m.messages_dropped + m.messages_duplicated + m.messages_retransmitted,
        "enqueued-copies identity"
    );
    let twin = solver.solve_virtual(&problem, &init, &base).expect("fits");
    assert_eq!(report.outcome, twin.outcome);
    assert_eq!(report.ticks, twin.ticks);
}
