//! The wave engine: the one control loop behind every deterministic
//! runtime (DESIGN.md §17).
//!
//! The paper's `cycle` and `maxcck` metrics rest on one accounting rule:
//! a wave of activations, then a barrier. [`WaveEngine`] owns the
//! [`Router`], the snapshot, the metrics, the tick, the nudges and the
//! teardown, and advances a run one wave per [`WaveEngine::poll`].
//! Its event-driven clock runs:
//!
//! * *start* (tick 0): every agent's `on_start`; counts activations and
//!   applies assignments and insolubility;
//! * *delivery*: `tick = max(tick, due)`, then `on_batch` per recipient
//!   in ascending order; counts activations and applies state;
//! * *nudge* (nothing in flight short of a solution): `tick += 1` and
//!   `flush_parked` before every agent's `on_nudge`; counts no
//!   activation and applies no state.
//!
//! The synchronous simulator's lockstep clock (the paper's §4 cycle)
//! runs the start wave at tick 1 and then one delivery wave per tick in
//! which every agent runs `on_batch`, mail or not. Before each wave it
//! ends the run on a solution, then on insolubility, then at the cycle
//! limit; it never nudges.
//!
//! Each wave adds its largest check count to `maxcck` and ends with a
//! `CycleBarrier`. Where the agents live is an [`Activate`] backend's
//! business — [`InProcess`], the shard pool, or net endpoints — and a
//! [`RouteHook`] stands between their outboxes and the router.

use discsp_core::{
    AgentId, Assignment, DistributedCsp, RunMetrics, Termination, TrialOutcome, VarValue,
};
use discsp_trace::{RingBuffer, RuntimeKind, TraceEvent, TraceSink};

use crate::agent::{AgentStats, DistributedAgent, Outbox};
use crate::error::RuntimeError;
use crate::link::{VirtualConfig, VirtualReport};
use crate::message::{Classify, Envelope};
use crate::recorder::StepRecorder;
use crate::router::Router;

/// Checks that agent *i* reports id *i*: every runtime routes by dense
/// index. Fails with [`RuntimeError::NonDenseAgentIds`] naming the first
/// misplaced agent.
pub(crate) fn check_dense_ids<A: DistributedAgent>(agents: &[A]) -> Result<(), RuntimeError> {
    match agents
        .iter()
        .enumerate()
        .find(|(position, agent)| agent.id().index() != *position)
    {
        Some((position, agent)) => Err(RuntimeError::NonDenseAgentIds {
            position,
            found: agent.id(),
        }),
        None => Ok(()),
    }
}

/// One wave of activations, handed to a backend.
#[derive(Debug)]
pub enum Wave<M> {
    /// Every agent runs `on_start`, in ascending id order, at the
    /// clock's first tick ([`Steps::tick`]).
    Start,
    /// A recovery pass: every agent runs `on_nudge`, in ascending id
    /// order.
    Nudge {
        /// The wave's tick.
        tick: u64,
    },
    /// A delivery: each listed agent runs `on_batch` on its inbox.
    Deliver {
        /// The wave's tick.
        tick: u64,
        /// `(recipient, messages)` in ascending recipient order.
        inboxes: Vec<(usize, Vec<Envelope<M>>)>,
    },
}

/// Where agent sends go on their way to the router.
pub trait RouteHook<M> {
    /// Takes one send made at tick `now`.
    ///
    /// # Errors
    ///
    /// Whatever [`Router::route`] reports.
    fn route(
        &mut self,
        net: &mut Router<M>,
        now: u64,
        env: Envelope<M>,
    ) -> Result<(), RuntimeError>;

    /// Runs at the top of every poll after the start wave, before the
    /// termination checks.
    ///
    /// # Errors
    ///
    /// Whatever [`Router::route`] reports.
    fn readmit(&mut self, _net: &mut Router<M>, _now: u64) -> Result<(), RuntimeError> {
        Ok(())
    }

    /// Whether the hook still holds sends the router has not seen: a
    /// nudge wave that leaves some here is not a permanent stall.
    fn holds_traffic(&self) -> bool {
        false
    }
}

/// The default hook: every send goes straight to the router.
#[derive(Debug, Clone, Copy, Default)]
pub struct Direct;

impl<M: Classify + Clone> RouteHook<M> for Direct {
    fn route(
        &mut self,
        net: &mut Router<M>,
        now: u64,
        env: Envelope<M>,
    ) -> Result<(), RuntimeError> {
        net.route(now, env)
    }
}

/// Runs agent activations for a [`WaveEngine`].
///
/// The contract: for each [`Wave`], report every activation through
/// [`Steps`] in ascending agent id order, recording the activation's own
/// trace events into [`Steps::sink`] before its
/// [`step`](Steps::step); at teardown, report every agent through
/// [`Teardown::agent`] in ascending id order.
pub trait Activate<M> {
    /// What a failed activation reports; router errors convert into it.
    type Error: From<RuntimeError>;

    /// How many agents the backend runs (ids `0..population`).
    fn population(&self) -> usize;

    /// Runs one wave.
    ///
    /// # Errors
    ///
    /// Router errors from [`Steps::step`], or the backend's own.
    fn activate<H: RouteHook<M>>(
        &mut self,
        wave: Wave<M>,
        steps: &mut Steps<'_, M, H>,
    ) -> Result<(), Self::Error>;

    /// Reports every agent's leftover checks and statistics.
    ///
    /// # Errors
    ///
    /// The backend's own.
    fn finish(&mut self, end: &mut Teardown<'_>) -> Result<(), Self::Error>;
}

/// The mutable state of one run.
#[derive(Debug)]
struct RunState {
    metrics: RunMetrics,
    snapshot: Assignment,
    activations: u64,
    nudges: u64,
    tick: u64,
    insoluble: bool,
    waves: u64,
}

/// A wave in progress: the backend reports each activation here.
#[derive(Debug)]
pub struct Steps<'a, M, H> {
    net: &'a mut Router<M>,
    hook: &'a mut H,
    state: &'a mut RunState,
    tick: u64,
    /// Start and delivery waves count activations and apply state;
    /// nudge waves do neither.
    counts: bool,
    wave_max: u64,
}

impl<M: Classify + Clone, H: RouteHook<M>> Steps<'_, M, H> {
    /// The wave's tick.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// The run's trace sink.
    pub fn sink(&mut self) -> &mut RingBuffer {
        self.net.sink()
    }

    /// Records one activation: charges its checks to the wave, applies
    /// its assignments and insolubility flag when the wave counts them,
    /// and routes its outbox at the wave's tick.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnknownRecipient`] when a send addresses an agent
    /// outside the population.
    pub fn step(
        &mut self,
        checks: u64,
        assignments: impl IntoIterator<Item = VarValue>,
        insoluble: bool,
        out: Vec<Envelope<M>>,
    ) -> Result<(), RuntimeError> {
        self.state.metrics.total_checks += checks;
        self.wave_max = self.wave_max.max(checks);
        if self.counts {
            self.state.activations += 1;
            for vv in assignments {
                self.state.snapshot.set(vv.var, vv.value);
            }
            self.state.insoluble |= insoluble;
        }
        for env in out {
            self.hook.route(self.net, self.tick, env)?;
        }
        Ok(())
    }
}

/// End-of-run accounting: the backend reports each agent here.
#[derive(Debug)]
pub struct Teardown<'a> {
    sink: &'a mut RingBuffer,
    tick: u64,
    leftover: u64,
    stats: AgentStats,
}

impl Teardown<'_> {
    /// The run's trace sink.
    pub fn sink(&mut self) -> &mut RingBuffer {
        &mut *self.sink
    }

    /// Reports one agent. Checks done outside any activation are charged
    /// to the run and recorded as a final step, so the trace still sums
    /// to `total_checks`.
    pub fn agent(&mut self, id: AgentId, leftover: u64, stats: AgentStats) {
        if leftover > 0 {
            self.leftover += leftover;
            self.sink.record(TraceEvent::AgentStep {
                cycle: self.tick,
                agent: id,
                checks: leftover,
            });
        }
        self.stats.absorb(stats);
    }
}

/// Termination rules that come from the run configuration.
#[derive(Debug, Clone, Copy)]
struct Limits {
    stop_on_first_solution: bool,
    max_ticks: u64,
    max_nudges: u64,
}

/// When waves run and when the run ends.
#[derive(Debug, Clone, Copy)]
enum Clock {
    /// Event-driven, under the run configuration's limits.
    Event(Limits),
    /// The paper's synchronous cycle: every agent activates every tick.
    Lockstep { cycle_limit: u64 },
}

/// The resumable wave loop. See the module docs for the accounting it
/// owns.
#[derive(Debug)]
pub struct WaveEngine<M, B, H = Direct> {
    backend: B,
    hook: H,
    net: Router<M>,
    state: RunState,
    clock: Clock,
    runtime: RuntimeKind,
    started: bool,
    finished: bool,
}

impl<M, B, H> WaveEngine<M, B, H>
where
    M: Classify + Clone,
    B: Activate<M>,
    H: RouteHook<M>,
{
    /// An engine on the event-driven clock that has run no wave yet. The
    /// router follows `config.schedule` when set, else `config.link`;
    /// `runtime` stamps the final `RunEnd` event.
    pub fn new(
        backend: B,
        hook: H,
        problem: &DistributedCsp,
        config: &VirtualConfig,
        runtime: RuntimeKind,
    ) -> Self {
        let n = backend.population();
        let net = match &config.schedule {
            Some(schedule) => Router::scripted(n, schedule, config.seed, config.record_trace),
            None => Router::new(n, config.link, config.seed, config.record_trace),
        };
        let clock = Clock::Event(Limits {
            stop_on_first_solution: config.stop_on_first_solution,
            max_ticks: config.max_ticks,
            max_nudges: config.max_nudges,
        });
        WaveEngine::with_clock(backend, hook, problem, net, clock, runtime)
    }

    /// An engine on the lockstep clock (module docs), routing through
    /// `net`, which must be a `Router::lockstep` (its `take_due` gives
    /// every agent an inbox); the final `RunEnd` carries the `Sync`
    /// stamp.
    pub(crate) fn lockstep(
        backend: B,
        hook: H,
        problem: &DistributedCsp,
        net: Router<M>,
        cycle_limit: u64,
    ) -> Self {
        let clock = Clock::Lockstep { cycle_limit };
        WaveEngine::with_clock(backend, hook, problem, net, clock, RuntimeKind::Sync)
    }

    fn with_clock(
        backend: B,
        hook: H,
        problem: &DistributedCsp,
        net: Router<M>,
        clock: Clock,
        runtime: RuntimeKind,
    ) -> Self {
        WaveEngine {
            backend,
            hook,
            net,
            state: RunState {
                metrics: RunMetrics::new(Termination::CutOff),
                snapshot: Assignment::empty(problem.num_vars()),
                activations: 0,
                nudges: 0,
                tick: match clock {
                    Clock::Event(_) => 0,
                    Clock::Lockstep { .. } => 1,
                },
                insoluble: false,
                waves: 0,
            },
            clock,
            runtime,
            started: false,
            finished: false,
        }
    }

    /// Polls to termination and returns the report.
    ///
    /// # Errors
    ///
    /// The first error any poll reports.
    pub fn run(mut self, problem: &DistributedCsp) -> Result<VirtualReport, B::Error> {
        loop {
            if let Some(report) = self.poll(problem)? {
                return Ok(report);
            }
        }
    }

    /// Advances the run by at most one wave. Returns the report on the
    /// poll that terminates the run; a finished engine does nothing and
    /// returns `None`.
    ///
    /// # Errors
    ///
    /// Router and backend errors; the run is dead afterwards.
    pub fn poll(&mut self, problem: &DistributedCsp) -> Result<Option<VirtualReport>, B::Error> {
        if self.finished {
            return Ok(None);
        }
        if !self.started {
            self.started = true;
            self.wave(Wave::Start)?;
            return Ok(None);
        }
        self.hook.readmit(&mut self.net, self.state.tick)?;
        let limits = match self.clock {
            Clock::Event(limits) => limits,
            Clock::Lockstep { cycle_limit } => return self.cycle(problem, cycle_limit),
        };
        if self.state.insoluble {
            return self.finish(Termination::Insoluble).map(Some);
        }
        if limits.stop_on_first_solution && problem.is_solution(&self.state.snapshot) {
            return self.finish(Termination::Solved).map(Some);
        }
        let Some(due) = self.net.next_due() else {
            // Quiescent: the router is the in-flight set, so the snapshot
            // is stable unless the recovery pass injects new traffic.
            if problem.is_solution(&self.state.snapshot) {
                return self.finish(Termination::Solved).map(Some);
            }
            if self.state.nudges >= limits.max_nudges {
                return self.finish(Termination::CutOff).map(Some);
            }
            self.state.nudges += 1;
            self.state.tick += 1;
            let tick = self.state.tick;
            self.net.flush_parked(tick);
            self.wave(Wave::Nudge { tick })?;
            if self.net.is_quiescent() && !self.hook.holds_traffic() {
                // Nothing retransmitted and nobody re-announced: the
                // stall is permanent.
                return self.finish(Termination::CutOff).map(Some);
            }
            return Ok(None);
        };
        if due > limits.max_ticks {
            return self.finish(Termination::CutOff).map(Some);
        }
        self.state.tick = self.state.tick.max(due);
        let tick = self.state.tick;
        let inboxes = self.net.take_due(due, tick);
        self.wave(Wave::Deliver { tick, inboxes })?;
        Ok(None)
    }

    /// One lockstep poll: the report, or `None` after the next cycle's
    /// wave, in which every agent gets its inbox, empty or not. A
    /// terminating poll runs no wave, so each wave's effects can be read
    /// between polls.
    fn cycle(
        &mut self,
        problem: &DistributedCsp,
        cycle_limit: u64,
    ) -> Result<Option<VirtualReport>, B::Error> {
        let termination = if problem.is_solution(&self.state.snapshot) {
            Termination::Solved
        } else if self.state.insoluble {
            Termination::Insoluble
        } else if self.state.tick >= cycle_limit {
            Termination::CutOff
        } else {
            self.state.tick += 1;
            let tick = self.state.tick;
            let inboxes = self.net.take_due(tick, tick);
            self.wave(Wave::Deliver { tick, inboxes })?;
            return Ok(None);
        };
        self.finish(termination).map(Some)
    }

    /// Whether the run has terminated.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Waves run so far.
    pub fn waves(&self) -> u64 {
        self.state.waves
    }

    /// The run's metrics so far: `cycles` is the current tick, and the
    /// check and message counters cover every wave run so far.
    pub(crate) fn metrics(&self) -> RunMetrics {
        let mut metrics = self.state.metrics.clone();
        metrics.cycles = self.state.tick;
        (
            metrics.ok_messages,
            metrics.nogood_messages,
            metrics.other_messages,
        ) = self.net.class_counts();
        metrics
    }

    /// The global assignment as of the last wave.
    pub(crate) fn snapshot(&self) -> &Assignment {
        &self.state.snapshot
    }

    /// The routing hook.
    pub fn hook(&self) -> &H {
        &self.hook
    }

    /// The backend, consuming the engine.
    pub(crate) fn into_backend(self) -> B {
        self.backend
    }

    /// The events recorded so far (empty unless tracing is on).
    pub fn sink(&mut self) -> &mut RingBuffer {
        self.net.sink()
    }

    /// Runs one wave at the current tick through the backend and closes
    /// it with a barrier.
    fn wave(&mut self, wave: Wave<M>) -> Result<(), B::Error> {
        let tick = self.state.tick;
        let mut steps = Steps {
            counts: !matches!(wave, Wave::Nudge { .. }),
            net: &mut self.net,
            hook: &mut self.hook,
            state: &mut self.state,
            tick,
            wave_max: 0,
        };
        self.backend.activate(wave, &mut steps)?;
        let wave_max = steps.wave_max;
        self.state.metrics.maxcck += wave_max;
        self.net
            .sink()
            .record(TraceEvent::CycleBarrier { cycle: tick });
        self.state.waves += 1;
        Ok(())
    }

    /// The teardown: leftover checks, statistics, `RunEnd`, the report.
    fn finish(&mut self, termination: Termination) -> Result<VirtualReport, B::Error> {
        self.finished = true;
        let tick = self.state.tick;
        let mut end = Teardown {
            sink: self.net.sink(),
            tick,
            leftover: 0,
            stats: AgentStats::default(),
        };
        self.backend.finish(&mut end)?;
        let (leftover, mut stats) = (end.leftover, end.stats);
        self.net.link_totals().fold_into(&mut stats);

        let mut metrics = self.metrics();
        metrics.termination = termination;
        metrics.total_checks += leftover;
        stats.fold_into_metrics(&mut metrics);
        let in_flight = self.net.queued();
        self.net.sink().record(TraceEvent::RunEnd {
            cycle: tick,
            runtime: self.runtime,
            in_flight,
            metrics: metrics.clone(),
        });

        let snapshot = std::mem::replace(&mut self.state.snapshot, Assignment::empty(0));
        let solution = (termination == Termination::Solved).then_some(snapshot);
        Ok(VirtualReport {
            outcome: TrialOutcome { metrics, solution },
            ticks: tick,
            activations: self.state.activations,
            nudges: self.state.nudges,
            fault_log: self.net.fault_log(),
            trace: self.net.take_trace(),
        })
    }
}

/// The in-process backend: agents stepped one after another on the
/// calling thread, straight into the router and the trace sink.
#[derive(Debug)]
pub struct InProcess<A> {
    agents: Vec<A>,
    recorder: StepRecorder,
}

impl<A: DistributedAgent> InProcess<A> {
    /// Wraps a population.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::NonDenseAgentIds`] unless agent *i* reports id *i*.
    pub fn new(agents: Vec<A>) -> Result<Self, RuntimeError> {
        check_dense_ids(&agents)?;
        Ok(InProcess {
            agents,
            recorder: StepRecorder::new(),
        })
    }

    /// The population, back from the backend.
    pub(crate) fn into_agents(self) -> Vec<A> {
        self.agents
    }
}

/// Reports one finished in-process activation.
fn step_agent<A: DistributedAgent, H: RouteHook<A::Message>>(
    recorder: &mut StepRecorder,
    steps: &mut Steps<'_, A::Message, H>,
    agent: &mut A,
    mut out: Outbox<A::Message>,
) -> Result<(), RuntimeError> {
    let checks = agent.take_checks();
    recorder.record_step(agent, steps.tick(), checks, steps.sink());
    let assignments = if steps.counts {
        agent.assignments()
    } else {
        Vec::new()
    };
    steps.step(checks, assignments, agent.detected_insoluble(), out.drain())
}

impl<A: DistributedAgent> Activate<A::Message> for InProcess<A> {
    type Error = RuntimeError;

    fn population(&self) -> usize {
        self.agents.len()
    }

    fn activate<H: RouteHook<A::Message>>(
        &mut self,
        wave: Wave<A::Message>,
        steps: &mut Steps<'_, A::Message, H>,
    ) -> Result<(), RuntimeError> {
        let recorder = &mut self.recorder;
        match wave {
            Wave::Start => {
                for agent in self.agents.iter_mut() {
                    let mut out = Outbox::new(agent.id());
                    agent.on_start(&mut out);
                    step_agent(recorder, steps, agent, out)?;
                }
            }
            Wave::Nudge { .. } => {
                for agent in self.agents.iter_mut() {
                    let mut out = Outbox::new(agent.id());
                    agent.on_nudge(&mut out);
                    step_agent(recorder, steps, agent, out)?;
                }
            }
            Wave::Deliver { inboxes, .. } => {
                for (recipient, inbox) in inboxes {
                    let Some(agent) = self.agents.get_mut(recipient) else {
                        continue;
                    };
                    let mut out = Outbox::new(agent.id());
                    agent.on_batch(inbox, &mut out);
                    step_agent(recorder, steps, agent, out)?;
                }
            }
        }
        Ok(())
    }

    fn finish(&mut self, end: &mut Teardown<'_>) -> Result<(), RuntimeError> {
        for agent in self.agents.iter_mut() {
            end.agent(agent.id(), agent.take_checks(), agent.stats());
        }
        Ok(())
    }
}
