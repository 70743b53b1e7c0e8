//! Stall recovery over perfect links, in every copy of the wave loop.
//!
//! AWC's §2.2 rule ("if the new nogood is the same as the previously
//! generated nogood, the agent does nothing") can leave a deadended
//! agent silent in a violated state after its neighbours absorbed the
//! first copy of that nogood. Over perfect links nothing is lost, yet
//! the run goes quiet short of a solution; `solve_virtual` answers with
//! a nudge wave whatever the link policy. The service's session driver
//! and the net coordinator must do the same and report, field by field,
//! exactly what `solve_virtual` reports.
//!
//! The instance is the shape `nudge_breaks_repeated_nogood_stall` pins
//! in the AWC agent's unit tests, embedded in a four-variable problem
//! (found by search, then minimized): x0 = 0 is forbidden outright and
//! x0 = 1 is forbidden while x1 = 1, so whenever x1 holds 1 and outranks
//! x0, x0 deadends on the same resolvent {x1 = 1}.

use discsp_awc::{AwcConfig, AwcSolver};
use discsp_core::{Assignment, DistributedCsp, Domain, Nogood, Termination, Value};
use discsp_net::{AgentLaunch, AlgoSpec, NetConfig, SolveNet};
use discsp_runtime::{LinkPolicy, VirtualConfig, VirtualReport};
use discsp_service::{ServiceConfig, SessionSpec, SolveService};
use discsp_trace::{canonical_sort, TraceEvent};

const SEED: u64 = 5;

fn parking_instance() -> (DistributedCsp, Assignment) {
    let mut b = DistributedCsp::builder();
    let x: Vec<_> = (0..4).map(|_| b.variable(Domain::new(2))).collect();
    for &(i, a, j, c) in &[
        (0, 1, 2, 0),
        (0, 1, 3, 1),
        (0, 1, 1, 1),
        (0, 0, 1, 1),
        (0, 0, 1, 0),
    ] {
        b.nogood(Nogood::of([(x[i], Value::new(a)), (x[j], Value::new(c))]))
            .expect("binary nogood");
    }
    let problem = b.build().expect("four-variable problem");
    let init = Assignment::total([0, 0, 0, 1].map(Value::new));
    (problem, init)
}

fn virtual_config() -> VirtualConfig {
    VirtualConfig {
        seed: SEED,
        link: LinkPolicy::perfect(),
        record_trace: true,
        ..VirtualConfig::default()
    }
}

/// The reference run, checked to actually hit the perfect-link park.
fn reference() -> VirtualReport {
    let (problem, init) = parking_instance();
    let report = AwcSolver::new(AwcConfig::resolvent())
        .solve_virtual(&problem, &init, &virtual_config())
        .expect("virtual run");
    assert_eq!(report.outcome.metrics.termination, Termination::Solved);
    assert!(
        report.nudges > 0,
        "the instance must need a nudge to finish"
    );
    assert_eq!(report.outcome.metrics.messages_dropped, 0, "no link fault");
    report
}

/// The trace without its `RunEnd` stamp (whose runtime kind differs by
/// construction), in canonical order.
fn strip(trace: &[TraceEvent]) -> Vec<TraceEvent> {
    let mut events: Vec<TraceEvent> = trace
        .iter()
        .filter(|e| !matches!(e, TraceEvent::RunEnd { .. }))
        .cloned()
        .collect();
    canonical_sort(&mut events);
    events
}

#[test]
fn service_session_recovers_a_perfect_link_park_like_solve_virtual() {
    let reference = reference();
    let (problem, init) = parking_instance();
    let mut service = SolveService::new(ServiceConfig::default());
    service
        .submit(
            1,
            SessionSpec {
                problem,
                init,
                algo: AlgoSpec::Awc(AwcConfig::resolvent()),
                config: virtual_config(),
            },
        )
        .expect("submit");
    service.run_until_idle();
    let report = service.take_result(1).expect("session finished").report;
    assert_eq!(report.outcome, reference.outcome, "outcome");
    assert_eq!(report.ticks, reference.ticks, "ticks");
    assert_eq!(report.activations, reference.activations, "activations");
    assert_eq!(report.nudges, reference.nudges, "nudges");
    assert_eq!(report.fault_log, reference.fault_log, "fault log");
    assert_eq!(strip(&report.trace), strip(&reference.trace), "trace");
}

#[test]
fn net_loopback_recovers_a_perfect_link_park_like_solve_virtual() {
    let reference = reference();
    let (problem, init) = parking_instance();
    let report = AwcSolver::new(AwcConfig::resolvent())
        .solve_net(
            &problem,
            &init,
            &NetConfig {
                seed: SEED,
                link: LinkPolicy::perfect(),
                record_trace: true,
                ..NetConfig::default()
            },
            &AgentLaunch::Threads,
        )
        .expect("networked run");
    assert_eq!(report.outcome, reference.outcome, "outcome");
    assert_eq!(report.ticks, reference.ticks, "ticks");
    assert_eq!(report.activations, reference.activations, "activations");
    assert_eq!(report.nudges, reference.nudges, "nudges");
    assert_eq!(strip(&report.trace), strip(&reference.trace), "trace");
}
