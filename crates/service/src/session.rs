//! One session as a resumable state machine.
//!
//! [`Driver`] is `run_virtual` unrolled: instead of looping to
//! termination it executes exactly **one wave per [`Pump::poll`]** —
//! the tick-0 start wave, a delivery wave, or a stall-recovery nudge
//! wave — in the same order, with the same maxcck wave accounting, the
//! same barrier events, and the same teardown as the in-process
//! executor. A session polled to completion therefore produces metrics
//! and a trace **bit-identical** to `solve_virtual` on the same
//! `(seed, policy)` (modulo the `RunEnd` runtime stamp), which is the
//! property the service's interleaving tests pin.
//!
//! Backpressure lives here too: each session has a bounded in-flight
//! message budget. Sends past it spill to a deterministic FIFO parking
//! queue ([`Pump::overflow_len`]) drained back into the router as its
//! queue empties, so a hostile or chatty session has bounded router
//! state no matter how much it sends per wave.

use std::collections::VecDeque;

use discsp_awc::AwcSolver;
use discsp_core::{Assignment, DistributedCsp, RunMetrics, Termination, TrialOutcome};
use discsp_dba::DbaSolver;
use discsp_net::AlgoSpec;
use discsp_runtime::{
    AgentStats, DistributedAgent, Envelope, Outbox, Router, RuntimeError, StepRecorder,
    TraceEvent, TraceSink, VirtualConfig, VirtualReport,
};
use discsp_trace::RuntimeKind;

use crate::ServiceError;

/// Everything that defines one session: the problem, the seed/policy
/// (inside the [`VirtualConfig`]), and the algorithm.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// The problem to solve.
    pub problem: DistributedCsp,
    /// The initial assignment (total, in-domain).
    pub init: Assignment,
    /// The algorithm to run.
    pub algo: AlgoSpec,
    /// Seed, link policy, budgets, trace recording. For distributed
    /// breakout `stop_on_first_solution` is forced on (its waves never
    /// go quiet), mirroring the net runtime.
    pub config: VirtualConfig,
}

/// What one poll did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionPoll {
    /// The session advanced one wave and has more work.
    Running,
    /// The session has terminated; its report is ready.
    Finished,
}

/// A pollable session, type-erased over the algorithm's agent type so
/// the session table can hold AWC and DBA sessions side by side.
pub trait Pump: Send {
    /// Advances the session by one wave.
    ///
    /// # Errors
    ///
    /// [`RuntimeError`] if the session's router rejects a message; the
    /// session is dead afterwards.
    fn poll(&mut self) -> Result<SessionPoll, RuntimeError>;

    /// Whether the session has terminated.
    fn finished(&self) -> bool;

    /// The session's report, once finished (consumes it).
    fn take_report(&mut self) -> Option<VirtualReport>;

    /// Waves executed so far (the snapshot fast-forward count).
    fn waves(&self) -> u64;

    /// Messages currently parked by the in-flight budget.
    fn overflow_len(&self) -> usize;

    /// High-water mark of the parking queue over the session's life.
    fn overflow_peak(&self) -> usize;

    /// The events recorded so far, without draining the live sink
    /// (empty unless the spec requested tracing).
    fn trace_so_far(&mut self) -> Vec<TraceEvent>;
}

/// A point-in-time capture of a live (or cancelled) session: its spec,
/// how many waves it had executed, and the event log it had produced.
/// [`SolveService::restore`](crate::SolveService) rebuilds the driver
/// from the spec, fast-forwards `waves` polls, and verifies the
/// replayed log equals `events` bit-for-bit before resuming — the
/// trace pipeline *is* the snapshot format.
#[derive(Debug, Clone)]
pub struct SessionSnapshot {
    /// The session's defining spec.
    pub spec: SessionSpec,
    /// The in-flight budget the session ran under.
    pub budget: u64,
    /// Waves executed at capture time.
    pub waves: u64,
    /// The event log at capture time (empty unless tracing was on).
    pub events: Vec<TraceEvent>,
}

enum Phase {
    NotStarted,
    Running,
    Finished,
}

/// The resumable `run_virtual` state machine, generic over the agent
/// type. See the module docs for the exact correspondence.
pub struct Driver<A: DistributedAgent> {
    agents: Vec<A>,
    problem: DistributedCsp,
    config: VirtualConfig,
    budget: u64,
    net: Router<A::Message>,
    overflow: VecDeque<Envelope<A::Message>>,
    overflow_peak: usize,
    recorder: StepRecorder,
    metrics: RunMetrics,
    snapshot: Assignment,
    activations: u64,
    nudges: u64,
    tick: u64,
    insoluble: bool,
    waves: u64,
    phase: Phase,
    report: Option<VirtualReport>,
}

impl<A: DistributedAgent> Driver<A> {
    /// Builds a driver in the not-started state. `budget` bounds the
    /// router's in-flight queue (clamped to at least 1); `u64::MAX`
    /// disables backpressure, making the session step-for-step
    /// identical to `run_virtual`.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::NonDenseAgentIds`] unless agent *i* reports
    /// id *i* — the same up-front check as the in-process executor.
    pub fn new(
        agents: Vec<A>,
        problem: DistributedCsp,
        config: VirtualConfig,
        budget: u64,
    ) -> Result<Self, RuntimeError> {
        for (position, agent) in agents.iter().enumerate() {
            if agent.id().index() != position {
                return Err(RuntimeError::NonDenseAgentIds {
                    position,
                    found: agent.id(),
                });
            }
        }
        let n = agents.len();
        let net = match &config.schedule {
            Some(schedule) => Router::scripted(n, schedule, config.seed, config.record_trace),
            None => Router::new(n, config.link, config.seed, config.record_trace),
        };
        let num_vars = problem.num_vars();
        Ok(Driver {
            agents,
            problem,
            budget: budget.max(1),
            net,
            overflow: VecDeque::new(),
            overflow_peak: 0,
            recorder: StepRecorder::new(),
            metrics: RunMetrics::new(Termination::CutOff),
            snapshot: Assignment::empty(num_vars),
            activations: 0,
            nudges: 0,
            tick: 0,
            insoluble: false,
            waves: 0,
            phase: Phase::NotStarted,
            report: None,
            config,
        })
    }

    /// Routes now if the in-flight budget allows, else parks. Once
    /// anything is parked, everything parks behind it: releases happen
    /// strictly in send order, so backpressure delays messages but
    /// never reorders one send past a later one.
    fn route_budgeted(&mut self, now: u64, env: Envelope<A::Message>) -> Result<(), RuntimeError> {
        if self.overflow.is_empty() && self.net.queued() < self.budget {
            self.net.route(now, env)
        } else {
            self.overflow.push_back(env);
            self.overflow_peak = self.overflow_peak.max(self.overflow.len());
            Ok(())
        }
    }

    /// Tick 0: every agent announces its initial state (one maxcck wave).
    fn start_wave(&mut self) -> Result<(), RuntimeError> {
        let mut start_max: u64 = 0;
        for i in 0..self.agents.len() {
            let agent = &mut self.agents[i];
            let mut out = Outbox::new(agent.id());
            agent.on_start(&mut out);
            self.activations += 1;
            let checks = agent.take_checks();
            self.metrics.total_checks += checks;
            start_max = start_max.max(checks);
            self.recorder.record_step(agent, 0, checks, self.net.sink());
            for env in out.drain() {
                self.route_budgeted(0, env)?;
            }
        }
        self.metrics.maxcck += start_max;
        self.net.sink().record(TraceEvent::CycleBarrier { cycle: 0 });
        self.insoluble = self.agents.iter().any(|a| a.detected_insoluble());
        for agent in self.agents.iter() {
            for vv in agent.assignments() {
                self.snapshot.set(vv.var, vv.value);
            }
        }
        Ok(())
    }

    /// A recovery pass: flush parked drops, ask agents to re-announce.
    fn nudge_wave(&mut self) -> Result<(), RuntimeError> {
        self.nudges += 1;
        self.tick += 1;
        self.net.flush_parked(self.tick);
        let tick = self.tick;
        let mut wave_max: u64 = 0;
        for i in 0..self.agents.len() {
            let agent = &mut self.agents[i];
            let mut out = Outbox::new(agent.id());
            agent.on_nudge(&mut out);
            let checks = agent.take_checks();
            self.metrics.total_checks += checks;
            wave_max = wave_max.max(checks);
            self.recorder.record_step(agent, tick, checks, self.net.sink());
            for env in out.drain() {
                self.route_budgeted(tick, env)?;
            }
        }
        self.metrics.maxcck += wave_max;
        self.net.sink().record(TraceEvent::CycleBarrier { cycle: tick });
        Ok(())
    }

    /// Delivers every batch due this tick (one maxcck wave).
    fn delivery_wave(&mut self, due: u64) -> Result<(), RuntimeError> {
        self.tick = self.tick.max(due);
        let tick = self.tick;
        let mut wave_max: u64 = 0;
        for (recipient, inbox) in self.net.take_due(due, tick) {
            let Some(agent) = self.agents.get_mut(recipient) else {
                continue;
            };
            let mut out = Outbox::new(agent.id());
            agent.on_batch(inbox, &mut out);
            self.activations += 1;
            let checks = agent.take_checks();
            self.metrics.total_checks += checks;
            wave_max = wave_max.max(checks);
            for vv in agent.assignments() {
                self.snapshot.set(vv.var, vv.value);
            }
            self.insoluble |= agent.detected_insoluble();
            self.recorder.record_step(agent, tick, checks, self.net.sink());
            for env in out.drain() {
                self.route_budgeted(tick, env)?;
            }
        }
        self.metrics.maxcck += wave_max;
        self.net.sink().record(TraceEvent::CycleBarrier { cycle: tick });
        Ok(())
    }

    /// The teardown from `run_virtual`: leftover checks, stats
    /// aggregation, the terminal `RunEnd` event, and the report.
    fn finish(&mut self, termination: Termination) {
        self.metrics.termination = termination;
        self.metrics.cycles = self.tick;
        let (ok, nogood, other) = self.net.class_counts();
        self.metrics.ok_messages = ok;
        self.metrics.nogood_messages = nogood;
        self.metrics.other_messages = other;
        let mut stats = AgentStats::default();
        let tick = self.tick;
        for i in 0..self.agents.len() {
            let agent = &mut self.agents[i];
            let leftover = agent.take_checks();
            if leftover > 0 {
                self.metrics.total_checks += leftover;
                let id = agent.id();
                self.net.sink().record(TraceEvent::AgentStep {
                    cycle: tick,
                    agent: id,
                    checks: leftover,
                });
            }
            stats.absorb(agent.stats());
        }
        self.net.link_totals().fold_into(&mut stats);
        self.metrics.nogoods_generated = stats.nogoods_generated;
        self.metrics.redundant_nogoods = stats.redundant_nogoods;
        self.metrics.largest_nogood = stats.largest_nogood;
        self.metrics.messages_sent = stats.messages_sent;
        self.metrics.messages_dropped = stats.messages_dropped;
        self.metrics.messages_duplicated = stats.messages_duplicated;
        self.metrics.messages_reordered = stats.messages_reordered;
        self.metrics.messages_retransmitted = stats.messages_retransmitted;
        self.metrics.max_delivery_delay = stats.max_delivery_delay;

        let in_flight = self.net.queued();
        self.net.sink().record(TraceEvent::RunEnd {
            cycle: self.metrics.cycles,
            runtime: RuntimeKind::Service,
            in_flight,
            metrics: self.metrics.clone(),
        });

        let solution = if termination == Termination::Solved {
            Some(self.snapshot.clone())
        } else {
            None
        };
        self.report = Some(VirtualReport {
            outcome: TrialOutcome {
                metrics: self.metrics.clone(),
                solution,
            },
            ticks: self.tick,
            activations: self.activations,
            nudges: self.nudges,
            fault_log: self.net.fault_log(),
            trace: self.net.take_trace(),
        });
        self.phase = Phase::Finished;
    }
}

impl<A: DistributedAgent + Send> Pump for Driver<A> {
    fn poll(&mut self) -> Result<SessionPoll, RuntimeError> {
        match self.phase {
            Phase::Finished => return Ok(SessionPoll::Finished),
            Phase::NotStarted => {
                self.start_wave()?;
                self.phase = Phase::Running;
                self.waves += 1;
                return Ok(SessionPoll::Running);
            }
            Phase::Running => {}
        }

        // Budget headroom freed by earlier deliveries re-admits parked
        // sends first, in FIFO order, before this wave routes anything.
        while self.net.queued() < self.budget {
            let Some(env) = self.overflow.pop_front() else {
                break;
            };
            self.net.route(self.tick, env)?;
        }

        if self.insoluble {
            self.finish(Termination::Insoluble);
            return Ok(SessionPoll::Finished);
        }
        if self.config.stop_on_first_solution && self.problem.is_solution(&self.snapshot) {
            self.finish(Termination::Solved);
            return Ok(SessionPoll::Finished);
        }
        let Some(due) = self.net.next_due() else {
            // Quiescent (the overflow drain above guarantees the parking
            // queue is empty whenever the router is): stable snapshot.
            if self.problem.is_solution(&self.snapshot) {
                self.finish(Termination::Solved);
                return Ok(SessionPoll::Finished);
            }
            // As in `run_virtual`: recovery is not gated on the fault
            // policy (or on backpressure), since a protocol can park
            // itself without losing a message.
            if self.nudges >= self.config.max_nudges {
                self.finish(Termination::CutOff);
                return Ok(SessionPoll::Finished);
            }
            self.nudge_wave()?;
            self.waves += 1;
            if self.net.is_quiescent() && self.overflow.is_empty() {
                // Nothing retransmitted and nobody re-announced: the
                // stall is permanent.
                self.finish(Termination::CutOff);
                return Ok(SessionPoll::Finished);
            }
            return Ok(SessionPoll::Running);
        };
        if due > self.config.max_ticks {
            self.finish(Termination::CutOff);
            return Ok(SessionPoll::Finished);
        }
        self.delivery_wave(due)?;
        self.waves += 1;
        Ok(SessionPoll::Running)
    }

    fn finished(&self) -> bool {
        matches!(self.phase, Phase::Finished)
    }

    fn take_report(&mut self) -> Option<VirtualReport> {
        self.report.take()
    }

    fn waves(&self) -> u64 {
        self.waves
    }

    fn overflow_len(&self) -> usize {
        self.overflow.len()
    }

    fn overflow_peak(&self) -> usize {
        self.overflow_peak
    }

    fn trace_so_far(&mut self) -> Vec<TraceEvent> {
        self.net.sink().iter().cloned().collect()
    }
}

/// Builds the type-erased session state machine for a spec: validates
/// the problem through the same `build_agents` path as every in-process
/// solver and instantiates the matching [`Driver`]. Distributed
/// breakout gets `stop_on_first_solution` forced on, mirroring the net
/// runtime.
///
/// # Errors
///
/// [`ServiceError::BadSpec`] when the solver rejects the problem or
/// initial assignment; [`ServiceError::Runtime`] on non-dense agent ids.
pub fn build_pump(spec: &SessionSpec, budget: u64) -> Result<Box<dyn Pump>, ServiceError> {
    match spec.algo {
        AlgoSpec::Awc(awc_config) => {
            let solver = AwcSolver::new(awc_config);
            let agents = solver
                .build_agents(&spec.problem, &spec.init)
                .map_err(|e| ServiceError::BadSpec {
                    detail: e.to_string(),
                })?;
            let driver = Driver::new(agents, spec.problem.clone(), spec.config.clone(), budget)?;
            Ok(Box::new(driver))
        }
        AlgoSpec::Dba(mode) => {
            let solver = DbaSolver::new().weight_mode(mode);
            let agents = solver
                .build_agents(&spec.problem, &spec.init)
                .map_err(|e| ServiceError::BadSpec {
                    detail: e.to_string(),
                })?;
            let mut config = spec.config.clone();
            config.stop_on_first_solution = true;
            let driver = Driver::new(agents, spec.problem.clone(), config, budget)?;
            Ok(Box::new(driver))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use discsp_awc::AwcConfig;
    use discsp_core::{Domain, Value};

    fn ring_spec(n: usize, seed: u64) -> SessionSpec {
        let mut b = DistributedCsp::builder();
        let vars: Vec<_> = (0..n).map(|_| b.variable(Domain::new(3))).collect();
        for i in 0..n {
            let (x, y) = (vars[i], vars[(i + 1) % n]);
            if x != y {
                b.not_equal(x, y).expect("edge");
            }
        }
        SessionSpec {
            problem: b.build().expect("ring"),
            init: Assignment::total((0..n).map(|_| Value::new(0))),
            algo: AlgoSpec::Awc(AwcConfig::resolvent()),
            config: VirtualConfig {
                seed,
                ..VirtualConfig::default()
            },
        }
    }

    #[test]
    fn polled_session_matches_solve_virtual_field_by_field() {
        let spec = ring_spec(6, 11);
        let mut pump = build_pump(&spec, u64::MAX).expect("pump");
        while pump.poll().expect("poll") == SessionPoll::Running {}
        let report = pump.take_report().expect("report");

        let solver = AwcSolver::new(AwcConfig::resolvent());
        let virt = solver
            .solve_virtual(&spec.problem, &spec.init, &spec.config)
            .expect("virtual");
        assert_eq!(report.outcome.metrics, virt.outcome.metrics);
        assert_eq!(report.outcome.solution, virt.outcome.solution);
        assert_eq!(report.ticks, virt.ticks);
        assert_eq!(report.activations, virt.activations);
        assert_eq!(report.nudges, virt.nudges);
    }

    #[test]
    fn bad_spec_is_rejected_before_any_wave() {
        let mut spec = ring_spec(3, 1);
        // Out-of-domain initial value: the solver's validation must fire.
        spec.init = Assignment::total((0..3).map(|_| Value::new(99)));
        assert!(matches!(
            build_pump(&spec, u64::MAX),
            Err(ServiceError::BadSpec { .. })
        ));
    }

    #[test]
    fn tiny_budget_parks_and_still_solves() {
        let spec = ring_spec(6, 11);
        let mut pump = build_pump(&spec, 2).expect("pump");
        while pump.poll().expect("poll") == SessionPoll::Running {}
        let report = pump.take_report().expect("report");
        assert_eq!(
            report.outcome.metrics.termination,
            discsp_core::Termination::Solved
        );
        assert!(
            pump.overflow_peak() > 0,
            "a 2-message budget on a 6-ring must actually park"
        );
        assert_eq!(pump.overflow_len(), 0, "overflow drains by termination");

        // And the budgeted run is itself deterministic: same spec, same
        // budget, same everything.
        let mut again = build_pump(&spec, 2).expect("pump");
        while again.poll().expect("poll") == SessionPoll::Running {}
        let second = again.take_report().expect("report");
        assert_eq!(report.outcome.metrics, second.outcome.metrics);
        assert_eq!(report.outcome.solution, second.outcome.solution);
    }
}
