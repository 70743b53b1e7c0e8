//! The M:N sharded event-loop executor: `run_virtual`'s semantics on
//! worker threads.
//!
//! `run_async` spawns one OS thread per agent, which caps realistic runs
//! at a few thousand agents. [`run_sharded`] keeps the deterministic
//! virtual-time semantics of [`run_virtual`](crate::run_virtual) but
//! executes agent activations on a fixed pool of worker threads: agents
//! live in slab-pooled per-shard arenas ([`Slab`]), each worker owns one
//! shard and drains its agents' mailbox batches, and all routing goes
//! through the single [`Router`] owned by the coordinator.
//!
//! **Why determinism survives M:N.** The coordinator runs the exact
//! control flow of `run_virtual` — the same start wave, quiescence
//! check, nudge recovery, tick bookkeeping, and cut-off rules. Each wave
//! is partitioned across shards by the seed-derived [`ShardPlan`];
//! workers return one buffered [`StepOutput`] per activated agent
//! (checks, assignments, trace events, outbound envelopes), and the
//! coordinator merges those outputs back in **ascending agent-id order**
//! before any of them touch the router or the trace. Ascending agent id
//! is precisely the order `run_virtual` activates agents in (its start
//! and nudge waves iterate ids 0..n; its delivery wave iterates the
//! inboxes `take_due` returns in ascending recipient id order) — so the
//! router consumes every per-link fault stream in the same order, the
//! trace interleaves identically, and the report is bit-identical to
//! `run_virtual` for *any* worker count. The shard partition and each
//! shard's internal drain order are themselves pure functions of the run
//! seed, so even thread-interleaving-visible state (per-shard
//! [`StepRecorder`] memories) is replayed exactly.
//!
//! Trace recording under shard batching stays per-agent-correct: every
//! worker records through its own scratch [`RingBuffer`] and tags each
//! event with the wave's tick passed down in the job — a batch that
//! drains just before a nudge wave can never smear its events into the
//! nudge's tick, because ticks travel with jobs, not with threads.

use std::sync::mpsc::{channel, Receiver, Sender};

use discsp_core::{
    Assignment, DistributedCsp, RunMetrics, Termination, TrialOutcome, VarValue,
};
use discsp_trace::{RingBuffer, RuntimeKind, TraceEvent, TraceSink};

use crate::agent::{AgentStats, DistributedAgent, Outbox};
use crate::error::RuntimeError;
use crate::link::{VirtualConfig, VirtualReport};
use crate::message::Envelope;
use crate::pool::{ShardPlan, Slab};
use crate::recorder::StepRecorder;
use crate::router::Router;

/// Configuration of a sharded run: [`VirtualConfig`] semantics plus a
/// worker count. The worker count is a pure throughput knob — metrics,
/// traces, and fault counters are bit-identical for any value.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// The deterministic run configuration (seed, faults, budgets).
    pub base: VirtualConfig,
    /// Worker threads (one shard each); clamped to `1..=agents`.
    pub workers: usize,
}

impl ShardConfig {
    /// A default-semantics run on `workers` threads.
    pub fn new(workers: usize) -> Self {
        ShardConfig {
            base: VirtualConfig::default(),
            workers,
        }
    }

    /// Wraps an existing virtual-run configuration.
    pub fn with_base(base: VirtualConfig, workers: usize) -> Self {
        ShardConfig { base, workers }
    }
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig::new(4)
    }
}

/// One shard's delivery batch for a wave: `(slot, messages)` pairs in
/// ascending slot order.
type SlotInboxes<M> = Vec<(usize, Vec<Envelope<M>>)>;

/// One wave of work for a shard worker. Ticks travel with the job so a
/// worker can never stamp events with a stale wave's tick.
enum Job<M> {
    /// Run `on_start` for every agent in the shard (tick 0).
    Start,
    /// Run `on_nudge` for every agent in the shard.
    Nudge { tick: u64 },
    /// Deliver inbox batches: `(slot, messages)` pairs.
    Batch {
        tick: u64,
        inboxes: SlotInboxes<M>,
    },
    /// Drain final leftovers and report stats; the shard empties.
    Finish { tick: u64 },
}

/// The buffered result of one agent activation, merged id-sorted by the
/// coordinator before touching the router or the trace.
struct StepOutput<M> {
    agent: u32,
    checks: u64,
    insoluble: bool,
    assignments: Vec<VarValue>,
    events: Vec<TraceEvent>,
    outbox: Vec<Envelope<M>>,
    stats: AgentStats,
}

/// A worker-owned shard: a slab arena of agents plus the shard's private
/// recorder state. Slot order (0..len) is the seed-derived drain order
/// fixed by the [`ShardPlan`].
struct ShardWorker<A: DistributedAgent> {
    agents: Slab<A>,
    slots: usize,
    recorder: StepRecorder,
    scratch: RingBuffer,
}

impl<A: DistributedAgent> ShardWorker<A> {
    fn run(
        mut self,
        jobs: Receiver<Job<A::Message>>,
        replies: Sender<Vec<StepOutput<A::Message>>>,
    ) {
        while let Ok(job) = jobs.recv() {
            let reply = match job {
                Job::Start => self.wave(0, false),
                Job::Nudge { tick } => self.wave(tick, true),
                Job::Batch { tick, inboxes } => self.batch(tick, inboxes),
                Job::Finish { tick } => self.finish(tick),
            };
            if replies.send(reply).is_err() {
                return;
            }
        }
    }

    /// A full-shard wave: `on_start` or `on_nudge` for every agent, in
    /// slot (drain) order.
    fn wave(&mut self, tick: u64, nudge: bool) -> Vec<StepOutput<A::Message>> {
        let mut outputs = Vec::with_capacity(self.slots);
        for slot in 0..self.slots {
            let Some(agent) = self.agents.get_mut(slot) else {
                continue;
            };
            let mut out = Outbox::new(agent.id());
            if nudge {
                agent.on_nudge(&mut out);
            } else {
                agent.on_start(&mut out);
            }
            outputs.push(finish_step(
                &mut self.recorder,
                &mut self.scratch,
                agent,
                tick,
                out,
            ));
        }
        outputs
    }

    /// A delivery wave for the subset of slots that received mail, in
    /// slot (drain) order.
    fn batch(
        &mut self,
        tick: u64,
        mut inboxes: SlotInboxes<A::Message>,
    ) -> Vec<StepOutput<A::Message>> {
        inboxes.sort_unstable_by_key(|&(slot, _)| slot);
        let mut outputs = Vec::with_capacity(inboxes.len());
        for (slot, inbox) in inboxes {
            let Some(agent) = self.agents.get_mut(slot) else {
                continue;
            };
            let mut out = Outbox::new(agent.id());
            agent.on_batch(inbox, &mut out);
            outputs.push(finish_step(
                &mut self.recorder,
                &mut self.scratch,
                agent,
                tick,
                out,
            ));
        }
        outputs
    }

    /// Removes every agent from the arena, surfacing leftover checks and
    /// final stats (the end-of-run accounting `run_virtual` does inline).
    fn finish(&mut self, tick: u64) -> Vec<StepOutput<A::Message>> {
        let mut outputs = Vec::with_capacity(self.agents.len());
        for slot in 0..self.slots {
            let Some(mut agent) = self.agents.remove(slot) else {
                continue;
            };
            let leftover = agent.take_checks();
            let mut events = Vec::new();
            if leftover > 0 && self.scratch.enabled() {
                events.push(TraceEvent::AgentStep {
                    cycle: tick,
                    agent: agent.id(),
                    checks: leftover,
                });
            }
            outputs.push(StepOutput {
                agent: agent.id().raw(),
                checks: leftover,
                insoluble: false,
                assignments: Vec::new(),
                events,
                outbox: Vec::new(),
                stats: agent.stats(),
            });
        }
        outputs
    }
}

/// Shared post-activation bookkeeping: drain checks and notes, record
/// the step through the shard's recorder into the scratch buffer, and
/// package everything the coordinator needs.
fn finish_step<A: DistributedAgent>(
    recorder: &mut StepRecorder,
    scratch: &mut RingBuffer,
    agent: &mut A,
    tick: u64,
    mut out: Outbox<A::Message>,
) -> StepOutput<A::Message> {
    let checks = agent.take_checks();
    recorder.record_step(agent, tick, checks, scratch);
    StepOutput {
        agent: agent.id().raw(),
        checks,
        insoluble: agent.detected_insoluble(),
        assignments: agent.assignments(),
        events: scratch.take(),
        outbox: out.drain(),
        stats: AgentStats::default(),
    }
}

/// One shard's coordinator-side handle.
struct ShardHandle<M> {
    jobs: Sender<Job<M>>,
    replies: Receiver<Vec<StepOutput<M>>>,
}

/// Sends one job per shard and collects the merged, id-sorted outputs.
/// `make` is called once per shard index; shards receiving `None` are
/// skipped (a delivery wave only wakes shards that got mail).
fn run_wave<M>(
    shards: &[ShardHandle<M>],
    mut make: impl FnMut(usize) -> Option<Job<M>>,
) -> Result<Vec<StepOutput<M>>, RuntimeError> {
    let mut involved = Vec::with_capacity(shards.len());
    for (index, shard) in shards.iter().enumerate() {
        let Some(job) = make(index) else {
            continue;
        };
        shard
            .jobs
            .send(job)
            .map_err(|_| RuntimeError::ShardWorkerDied { shard: index })?;
        involved.push(index);
    }
    let mut outputs = Vec::new();
    for index in involved {
        let Some(shard) = shards.get(index) else {
            continue;
        };
        let reply = shard
            .replies
            .recv()
            .map_err(|_| RuntimeError::ShardWorkerDied { shard: index })?;
        outputs.extend(reply);
    }
    outputs.sort_unstable_by_key(|o| o.agent);
    Ok(outputs)
}

/// Runs `agents` on the M:N sharded executor: `config.workers` threads,
/// each owning a seed-derived shard of the population, reproducing
/// [`run_virtual`](crate::run_virtual)'s deterministic virtual-time
/// semantics bit for bit. Metrics, fault counters, the fault log, and
/// the trace (up to the `RunEnd` runtime stamp) are identical to a
/// `run_virtual` of the same `(agents, problem, config.base)` — and
/// therefore identical across any two worker counts.
///
/// # Errors
///
/// [`RuntimeError::NonDenseAgentIds`] unless agent *i* reports id *i*;
/// [`RuntimeError::UnknownRecipient`] when a message addresses an agent
/// outside the population; [`RuntimeError::ShardWorkerDied`] when a
/// worker thread dies mid-run (an agent panicked — the panic also
/// resurfaces when the worker scope unwinds).
pub fn run_sharded<A>(
    agents: Vec<A>,
    problem: &DistributedCsp,
    config: &ShardConfig,
) -> Result<VirtualReport, RuntimeError>
where
    A: DistributedAgent + Send,
{
    for (position, agent) in agents.iter().enumerate() {
        if agent.id().index() != position {
            return Err(RuntimeError::NonDenseAgentIds {
                position,
                found: agent.id(),
            });
        }
    }
    let n = agents.len();
    let base = &config.base;
    let plan = ShardPlan::new(n, config.workers, base.seed);
    let mut net: Router<A::Message> = match &base.schedule {
        Some(schedule) => Router::scripted(n, schedule, base.seed, base.record_trace),
        None => Router::new(n, base.link, base.seed, base.record_trace),
    };
    // Deal the agents into per-shard slab arenas in plan (drain) order;
    // sequential insertion into an empty slab makes slot == drain rank.
    let mut by_id: Vec<Option<A>> = agents.into_iter().map(Some).collect();
    let mut arenas = Vec::with_capacity(plan.workers());
    for shard in 0..plan.workers() {
        let members = plan.members(shard);
        let mut arena = Slab::with_capacity(members.len());
        for &agent_id in members {
            if let Some(agent) = by_id.get_mut(agent_id).and_then(Option::take) {
                arena.insert(agent);
            }
        }
        arenas.push(arena);
    }
    drop(by_id);

    std::thread::scope(|scope| {
        let mut shards: Vec<ShardHandle<A::Message>> = Vec::with_capacity(arenas.len());
        for arena in arenas {
            let (job_tx, job_rx) = channel();
            let (reply_tx, reply_rx) = channel();
            let worker = ShardWorker {
                slots: arena.len(),
                agents: arena,
                recorder: StepRecorder::new(),
                scratch: if base.record_trace {
                    RingBuffer::new()
                } else {
                    RingBuffer::disabled()
                },
            };
            scope.spawn(move || worker.run(job_rx, reply_tx));
            shards.push(ShardHandle {
                jobs: job_tx,
                replies: reply_rx,
            });
        }

        let mut metrics = RunMetrics::new(Termination::CutOff);
        let mut snapshot = Assignment::empty(problem.num_vars());
        let mut activations: u64 = 0;
        let mut nudges: u64 = 0;
        let mut tick: u64 = 0;
        let mut insoluble = false;
        let termination;

        // Tick 0: every agent announces its initial state — the same
        // start-wave accounting as run_virtual.
        let starts = run_wave(&shards, |_| Some(Job::Start))?;
        let mut start_max: u64 = 0;
        for output in starts {
            activations += 1;
            metrics.total_checks += output.checks;
            start_max = start_max.max(output.checks);
            insoluble |= output.insoluble;
            for vv in output.assignments {
                snapshot.set(vv.var, vv.value);
            }
            for event in output.events {
                net.sink().record(event);
            }
            for env in output.outbox {
                net.route(0, env)?;
            }
        }
        metrics.maxcck += start_max;
        net.sink().record(TraceEvent::CycleBarrier { cycle: 0 });

        loop {
            if insoluble {
                termination = Termination::Insoluble;
                break;
            }
            if base.stop_on_first_solution && problem.is_solution(&snapshot) {
                termination = Termination::Solved;
                break;
            }
            let Some(due) = net.next_due() else {
                // Quiescent: the queue is the in-flight set. A fully
                // parked system (every copy dropped) lands here too —
                // that is a *recoverable* stall, answered by a
                // retransmission flush plus a nudge wave, never a
                // deadlock report.
                if problem.is_solution(&snapshot) {
                    termination = Termination::Solved;
                    break;
                }
                // As in `run_virtual`: recovery is not gated on the
                // fault policy, since a protocol can park itself
                // without losing a message.
                if nudges >= base.max_nudges {
                    termination = Termination::CutOff;
                    break;
                }
                nudges += 1;
                tick += 1;
                net.flush_parked(tick);
                let wave = run_wave(&shards, |_| Some(Job::Nudge { tick }))?;
                let mut wave_max: u64 = 0;
                for output in wave {
                    metrics.total_checks += output.checks;
                    wave_max = wave_max.max(output.checks);
                    for event in output.events {
                        net.sink().record(event);
                    }
                    for env in output.outbox {
                        net.route(tick, env)?;
                    }
                }
                metrics.maxcck += wave_max;
                net.sink().record(TraceEvent::CycleBarrier { cycle: tick });
                if net.is_quiescent() {
                    termination = Termination::CutOff;
                    break;
                }
                continue;
            };
            if due > base.max_ticks {
                termination = Termination::CutOff;
                break;
            }
            tick = tick.max(due);

            // Deliver every message due this tick: partition the inboxes
            // to their shards, drain in parallel, merge id-sorted.
            let mut per_shard: Vec<SlotInboxes<A::Message>> =
                (0..shards.len()).map(|_| Vec::new()).collect();
            for (recipient, inbox) in net.take_due(due, tick) {
                let (shard, slot) = plan.placement_of(recipient);
                if let Some(bucket) = per_shard.get_mut(shard) {
                    bucket.push((slot, inbox));
                }
            }
            let wave = run_wave(&shards, |index| {
                match per_shard.get_mut(index) {
                    Some(bucket) if !bucket.is_empty() => Some(Job::Batch {
                        tick,
                        inboxes: std::mem::take(bucket),
                    }),
                    _ => None,
                }
            })?;
            let mut wave_max: u64 = 0;
            for output in wave {
                activations += 1;
                metrics.total_checks += output.checks;
                wave_max = wave_max.max(output.checks);
                insoluble |= output.insoluble;
                for vv in output.assignments {
                    snapshot.set(vv.var, vv.value);
                }
                for event in output.events {
                    net.sink().record(event);
                }
                for env in output.outbox {
                    net.route(tick, env)?;
                }
            }
            metrics.maxcck += wave_max;
            net.sink().record(TraceEvent::CycleBarrier { cycle: tick });
        }

        metrics.termination = termination;
        metrics.cycles = tick;
        let (ok, nogood, other) = net.class_counts();
        metrics.ok_messages = ok;
        metrics.nogood_messages = nogood;
        metrics.other_messages = other;

        // End-of-run accounting: leftover checks surface as final steps
        // (id-sorted, exactly as run_virtual's 0..n sweep), stats absorb.
        let mut stats = AgentStats::default();
        let finals = run_wave(&shards, |_| Some(Job::Finish { tick }))?;
        for output in finals {
            if output.checks > 0 {
                metrics.total_checks += output.checks;
            }
            for event in output.events {
                net.sink().record(event);
            }
            stats.absorb(output.stats);
        }
        net.link_totals().fold_into(&mut stats);
        metrics.nogoods_generated = stats.nogoods_generated;
        metrics.redundant_nogoods = stats.redundant_nogoods;
        metrics.largest_nogood = stats.largest_nogood;
        metrics.messages_sent = stats.messages_sent;
        metrics.messages_dropped = stats.messages_dropped;
        metrics.messages_duplicated = stats.messages_duplicated;
        metrics.messages_reordered = stats.messages_reordered;
        metrics.messages_retransmitted = stats.messages_retransmitted;
        metrics.max_delivery_delay = stats.max_delivery_delay;

        let in_flight = net.queued();
        net.sink().record(TraceEvent::RunEnd {
            cycle: metrics.cycles,
            runtime: RuntimeKind::Sharded,
            in_flight,
            metrics: metrics.clone(),
        });

        let solution = if termination == Termination::Solved {
            Some(snapshot)
        } else {
            None
        };
        Ok(VirtualReport {
            outcome: TrialOutcome { metrics, solution },
            ticks: tick,
            activations,
            nudges,
            fault_log: net.fault_log(),
            trace: net.take_trace(),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{run_virtual, LinkPolicy};
    use crate::message::{Classify, MessageClass};
    use crate::PPM;
    use discsp_core::{AgentId, Domain, Nogood, Value, VariableId};

    /// Max-gossip agents on a ring (the same protocol as the virtual
    /// runtime's unit tests): everyone must end up holding `true`.
    #[derive(Debug, Clone)]
    struct Gossip(Value);

    impl Classify for Gossip {
        fn class(&self) -> MessageClass {
            MessageClass::Ok
        }
    }

    struct RingAgent {
        id: AgentId,
        n: usize,
        value: Value,
    }

    impl RingAgent {
        fn next(&self) -> AgentId {
            AgentId::new(((self.id.index() + 1) % self.n) as u32)
        }
    }

    impl DistributedAgent for RingAgent {
        type Message = Gossip;

        fn id(&self) -> AgentId {
            self.id
        }

        fn on_start(&mut self, out: &mut Outbox<Gossip>) {
            out.send(self.next(), Gossip(self.value));
        }

        fn on_batch(&mut self, inbox: Vec<Envelope<Gossip>>, out: &mut Outbox<Gossip>) {
            let mut changed = false;
            for env in inbox {
                if env.payload.0 > self.value {
                    self.value = env.payload.0;
                    changed = true;
                }
            }
            if changed {
                out.send(self.next(), Gossip(self.value));
            }
        }

        fn on_nudge(&mut self, out: &mut Outbox<Gossip>) {
            out.send(self.next(), Gossip(self.value));
        }

        fn assignments(&self) -> Vec<VarValue> {
            vec![VarValue::new(VariableId::new(self.id.raw()), self.value)]
        }

        fn take_checks(&mut self) -> u64 {
            0
        }

        fn stats(&self) -> AgentStats {
            AgentStats::default()
        }
    }

    fn all_true_problem(n: usize) -> DistributedCsp {
        let mut b = DistributedCsp::builder();
        let vars: Vec<_> = (0..n).map(|_| b.variable(Domain::BOOL)).collect();
        for &v in &vars {
            b.nogood(Nogood::of([(v, Value::FALSE)])).unwrap();
        }
        b.build().unwrap()
    }

    fn ring(n: usize) -> Vec<RingAgent> {
        (0..n)
            .map(|i| RingAgent {
                id: AgentId::new(i as u32),
                n,
                value: Value::from_bool(i == 0),
            })
            .collect()
    }

    fn strip_run_end(trace: &[TraceEvent]) -> Vec<TraceEvent> {
        trace
            .iter()
            .filter(|e| !matches!(e, TraceEvent::RunEnd { .. }))
            .cloned()
            .collect()
    }

    #[test]
    fn sharded_run_matches_run_virtual_bit_for_bit() {
        // The golden contract: same (agents, problem, base config) ⇒
        // the sharded executor reproduces run_virtual exactly — metrics,
        // fault counters, fault log, and the full trace modulo the
        // RunEnd runtime stamp — for every worker count.
        let problem = all_true_problem(9);
        for seed in 0..6u64 {
            let base = VirtualConfig {
                seed,
                link: LinkPolicy::lossy(200_000)
                    .with_duplication(100_000)
                    .with_delay(0, 3)
                    .with_reordering(2),
                record_trace: true,
                ..VirtualConfig::default()
            };
            let reference = run_virtual(ring(9), &problem, &base).expect("virtual runs");
            for workers in [1usize, 2, 4, 8] {
                let config = ShardConfig::with_base(base.clone(), workers);
                let sharded = run_sharded(ring(9), &problem, &config).expect("sharded runs");
                assert_eq!(
                    sharded.outcome.metrics, reference.outcome.metrics,
                    "seed {seed} workers {workers}: metrics"
                );
                assert_eq!(sharded.outcome.solution, reference.outcome.solution);
                assert_eq!(sharded.ticks, reference.ticks);
                assert_eq!(sharded.activations, reference.activations);
                assert_eq!(sharded.nudges, reference.nudges);
                assert_eq!(sharded.fault_log, reference.fault_log);
                assert_eq!(
                    strip_run_end(&sharded.trace),
                    strip_run_end(&reference.trace),
                    "seed {seed} workers {workers}: trace"
                );
            }
        }
    }

    #[test]
    fn sharded_run_end_carries_the_sharded_stamp() {
        let problem = all_true_problem(4);
        let config = ShardConfig {
            base: VirtualConfig {
                record_trace: true,
                ..VirtualConfig::default()
            },
            workers: 2,
        };
        let report = run_sharded(ring(4), &problem, &config).expect("runs");
        assert!(report.trace.iter().any(|e| matches!(
            e,
            TraceEvent::RunEnd {
                runtime: RuntimeKind::Sharded,
                ..
            }
        )));
        let audit = discsp_trace::audit(&report.trace).expect("sealed trace");
        assert!(audit.passed(), "audit failures: {:?}", audit.failures);
        assert_eq!(audit.metrics, report.outcome.metrics);
    }

    #[test]
    fn fully_parked_system_recovers_via_nudges() {
        // Every link drops everything, so after the start wave every
        // shard's traffic is parked and the queue is empty. That state
        // must surface as a recoverable stall (retransmission flush +
        // nudge wave), not a deadlock — on any worker count.
        let problem = all_true_problem(6);
        for workers in [1usize, 3, 6] {
            let config = ShardConfig {
                base: VirtualConfig {
                    seed: 3,
                    link: LinkPolicy::lossy(PPM),
                    ..VirtualConfig::default()
                },
                workers,
            };
            let report = run_sharded(ring(6), &problem, &config).expect("runs");
            assert_eq!(
                report.outcome.metrics.termination,
                Termination::Solved,
                "workers {workers}"
            );
            assert!(report.nudges > 0, "workers {workers}: recovery must fire");
            let m = &report.outcome.metrics;
            assert_eq!(m.messages_dropped, m.messages_sent);
            assert_eq!(
                m.total_messages(),
                m.messages_sent - m.messages_dropped
                    + m.messages_duplicated
                    + m.messages_retransmitted,
                "workers {workers}: conservation"
            );
        }
    }

    #[test]
    fn sharded_run_rejects_unknown_recipient() {
        struct Misrouter;
        impl DistributedAgent for Misrouter {
            type Message = Gossip;
            fn id(&self) -> AgentId {
                AgentId::new(0)
            }
            fn on_start(&mut self, out: &mut Outbox<Gossip>) {
                out.send(AgentId::new(99), Gossip(Value::TRUE));
            }
            fn on_batch(&mut self, _: Vec<Envelope<Gossip>>, _: &mut Outbox<Gossip>) {}
            fn assignments(&self) -> Vec<VarValue> {
                Vec::new()
            }
            fn take_checks(&mut self) -> u64 {
                0
            }
            fn stats(&self) -> AgentStats {
                AgentStats::default()
            }
        }
        let problem = all_true_problem(1);
        let err = run_sharded(vec![Misrouter], &problem, &ShardConfig::new(2));
        assert_eq!(
            err.unwrap_err(),
            RuntimeError::UnknownRecipient {
                agent: AgentId::new(99)
            }
        );
    }

    #[test]
    fn degenerate_worker_counts_are_clamped() {
        let problem = all_true_problem(3);
        for workers in [0usize, 1, 64] {
            let report = run_sharded(ring(3), &problem, &ShardConfig::new(workers))
                .expect("runs on any worker count");
            assert_eq!(report.outcome.metrics.termination, Termination::Solved);
        }
    }
}
