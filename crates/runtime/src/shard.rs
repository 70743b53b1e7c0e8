//! The M:N sharded executor: the wave engine's activations fanned out
//! to worker threads.
//!
//! [`run_sharded`] runs the population on a fixed pool of worker
//! threads, so 10^5 agents need only a handful of threads: agents live
//! in slab-pooled per-shard arenas ([`Slab`]), each worker owns one
//! shard and drains its agents' mailbox batches, and the [`WaveEngine`]
//! on the calling thread drives the run with the pool as its activation
//! backend — the same engine, router and wave accounting as
//! [`run_virtual`](crate::run_virtual).
//!
//! **Why determinism survives M:N.** Each wave is partitioned across
//! shards by the seed-derived [`ShardPlan`]; workers return one buffered
//! [`StepOutput`] per activated agent (checks, assignments, trace events,
//! outbound envelopes), and the pool hands those outputs to the engine in
//! **ascending agent-id order**, the order every backend reports in. The
//! router therefore consumes every per-link fault stream in the same
//! order, the trace interleaves identically, and the report is
//! bit-identical to `run_virtual` for *any* worker count. The shard
//! partition and each shard's internal drain order are themselves pure
//! functions of the run seed, so even per-shard [`StepRecorder`] memories
//! replay exactly.
//!
//! Trace recording under shard batching stays per-agent-correct: every
//! worker records through its own scratch [`RingBuffer`] and tags each
//! event with the wave's tick passed down in the job — ticks travel with
//! jobs, not with threads.

use std::sync::mpsc::{channel, Receiver, Sender};

use discsp_core::{AgentId, DistributedCsp, VarValue};
use discsp_trace::{RingBuffer, RuntimeKind, TraceEvent, TraceSink};

use crate::agent::{AgentStats, DistributedAgent, Outbox};
use crate::engine::{
    check_dense_ids, Activate, Direct, RouteHook, Steps, Teardown, Wave, WaveEngine,
};
use crate::error::RuntimeError;
use crate::link::{VirtualConfig, VirtualReport};
use crate::message::{Classify, Envelope};
use crate::pool::{ShardPlan, Slab};
use crate::recorder::StepRecorder;

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
    Batch { tick: u64, inboxes: SlotInboxes<M> },
    /// Report leftover checks and stats; the shard empties.
    Finish,
}

/// The buffered result of one agent activation, handed to the engine in
/// agent-id order.
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
                Job::Finish => self.finish(),
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

    /// Removes every agent from the arena, reporting its leftover checks
    /// and final stats.
    fn finish(&mut self) -> Vec<StepOutput<A::Message>> {
        let mut outputs = Vec::with_capacity(self.agents.len());
        for slot in 0..self.slots {
            let Some(mut agent) = self.agents.remove(slot) else {
                continue;
            };
            outputs.push(StepOutput {
                agent: agent.id().raw(),
                checks: agent.take_checks(),
                insoluble: false,
                assignments: Vec::new(),
                events: Vec::new(),
                outbox: Vec::new(),
                stats: agent.stats(),
            });
        }
        outputs
    }
}

/// Shared post-activation bookkeeping: drain checks and notes, record
/// the step through the shard's recorder into the scratch buffer, and
/// package everything the engine needs.
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

/// The shard pool as a wave-engine backend.
struct ShardPool<M> {
    shards: Vec<ShardHandle<M>>,
    plan: ShardPlan,
    population: usize,
}

impl<M: Classify + Clone> Activate<M> for ShardPool<M> {
    type Error = RuntimeError;

    fn population(&self) -> usize {
        self.population
    }

    fn activate<H: RouteHook<M>>(
        &mut self,
        wave: Wave<M>,
        steps: &mut Steps<'_, M, H>,
    ) -> Result<(), RuntimeError> {
        let outputs = match wave {
            Wave::Start => run_wave(&self.shards, |_| Some(Job::Start))?,
            Wave::Nudge { tick } => run_wave(&self.shards, |_| Some(Job::Nudge { tick }))?,
            Wave::Deliver { tick, inboxes } => {
                // Partition the inboxes to their shards; each shard
                // drains its batch in parallel with the others.
                let mut per_shard: Vec<SlotInboxes<M>> =
                    (0..self.shards.len()).map(|_| Vec::new()).collect();
                for (recipient, inbox) in inboxes {
                    let (shard, slot) = self.plan.placement_of(recipient);
                    if let Some(bucket) = per_shard.get_mut(shard) {
                        bucket.push((slot, inbox));
                    }
                }
                run_wave(&self.shards, |index| match per_shard.get_mut(index) {
                    Some(bucket) if !bucket.is_empty() => Some(Job::Batch {
                        tick,
                        inboxes: std::mem::take(bucket),
                    }),
                    _ => None,
                })?
            }
        };
        for output in outputs {
            for event in output.events {
                steps.sink().record(event);
            }
            steps.step(
                output.checks,
                output.assignments,
                output.insoluble,
                output.outbox,
            )?;
        }
        Ok(())
    }

    fn finish(&mut self, end: &mut Teardown<'_>) -> Result<(), RuntimeError> {
        for output in run_wave(&self.shards, |_| Some(Job::Finish))? {
            end.agent(AgentId::new(output.agent), output.checks, output.stats);
        }
        Ok(())
    }
}

/// Runs `agents` on the M:N sharded executor: `config.workers` threads,
/// each owning a seed-derived shard of the population, under the same
/// [`WaveEngine`] as [`run_virtual`](crate::run_virtual). Metrics, fault
/// counters, the fault log, and the trace (up to the `RunEnd` runtime
/// stamp) are identical to a `run_virtual` of the same
/// `(agents, problem, config.base)` — and therefore identical across any
/// two worker counts.
///
/// # Errors
///
/// [`RuntimeError::NonDenseAgentIds`] unless agent *i* reports id *i*;
/// [`RuntimeError::UnknownRecipient`] when a message addresses an agent
/// outside the population; [`RuntimeError::ShardWorkerDied`] when a
/// worker thread dies mid-run because an agent panicked.
pub fn run_sharded<A>(
    agents: Vec<A>,
    problem: &DistributedCsp,
    config: &ShardConfig,
) -> Result<VirtualReport, RuntimeError>
where
    A: DistributedAgent + Send,
{
    check_dense_ids(&agents)?;
    let population = agents.len();
    let base = &config.base;
    let plan = ShardPlan::new(population, config.workers, base.seed);
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
        let mut workers = Vec::with_capacity(arenas.len());
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
            workers.push(scope.spawn(move || worker.run(job_rx, reply_tx)));
            shards.push(ShardHandle {
                jobs: job_tx,
                replies: reply_rx,
            });
        }
        let pool = ShardPool {
            shards,
            plan,
            population,
        };
        // `run` consumes the engine, so the pool's job channels close
        // when it returns and every worker leaves its loop.
        let result =
            WaveEngine::new(pool, Direct, problem, base, RuntimeKind::Sharded).run(problem);
        // Join every worker by hand: a panic joined here is an error
        // value, where an unjoined one would re-raise out of the scope.
        let mut died = None;
        for (shard, worker) in workers.into_iter().enumerate() {
            if worker.join().is_err() {
                died = died.or(Some(shard));
            }
        }
        match died {
            Some(shard) => Err(RuntimeError::ShardWorkerDied { shard }),
            None => result,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{run_virtual, LinkPolicy};
    use crate::message::{Classify, MessageClass};
    use crate::PPM;
    use discsp_core::{Domain, Nogood, Termination, Value, VariableId};

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

    /// Agents that flood every peer, one of which declares the problem
    /// insoluble as soon as it has heard anything — ending the run while
    /// its peers are still mid-storm.
    struct StormAgent {
        id: AgentId,
        n: usize,
        budget: u32,
        heard: u32,
        insoluble_after: Option<u32>,
    }

    impl StormAgent {
        fn flood(&self, out: &mut Outbox<Gossip>) {
            for j in 0..self.n {
                if j != self.id.index() {
                    out.send(AgentId::new(j as u32), Gossip(Value::TRUE));
                }
            }
        }
    }

    impl DistributedAgent for StormAgent {
        type Message = Gossip;

        fn id(&self) -> AgentId {
            self.id
        }

        fn on_start(&mut self, out: &mut Outbox<Gossip>) {
            self.flood(out);
        }

        fn on_batch(&mut self, inbox: Vec<Envelope<Gossip>>, out: &mut Outbox<Gossip>) {
            self.heard += inbox.len() as u32;
            for _ in 0..inbox.len() {
                if self.budget == 0 {
                    break;
                }
                self.budget -= 1;
                self.flood(out);
            }
        }

        fn detected_insoluble(&self) -> bool {
            matches!(self.insoluble_after, Some(k) if self.heard >= k)
        }

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

    fn storm() -> Vec<StormAgent> {
        (0..3)
            .map(|i| StormAgent {
                id: AgentId::new(i as u32),
                n: 3,
                budget: 200,
                heard: 0,
                insoluble_after: (i == 0).then_some(1),
            })
            .collect()
    }

    #[test]
    fn insoluble_exit_mid_storm_keeps_conservation_exact() {
        // An early insoluble exit on worker threads leaves copies in
        // flight; each is counted once, as enqueued, so the identity is
        // exact, the audit passes, and the run is its virtual twin.
        let problem = all_true_problem(3);
        for seed in 0..4u64 {
            let base = VirtualConfig {
                seed,
                link: LinkPolicy::lossy(200_000)
                    .with_duplication(200_000)
                    .with_delay(0, 2),
                record_trace: true,
                ..VirtualConfig::default()
            };
            let config = ShardConfig::with_base(base.clone(), 2);
            let report = run_sharded(storm(), &problem, &config).expect("runs");
            let m = &report.outcome.metrics;
            assert_eq!(m.termination, Termination::Insoluble, "seed {seed}");
            assert_eq!(
                m.total_messages(),
                m.messages_sent - m.messages_dropped
                    + m.messages_duplicated
                    + m.messages_retransmitted,
                "seed {seed}"
            );
            let audit = discsp_trace::audit(&report.trace).expect("trace is sealed by RunEnd");
            assert!(audit.passed(), "seed {seed}: {:?}", audit.failures);
            let twin = run_virtual(storm(), &problem, &base).expect("runs");
            assert_eq!(report.outcome, twin.outcome, "seed {seed}");
            assert_eq!(
                strip_run_end(&report.trace),
                strip_run_end(&twin.trace),
                "seed {seed}"
            );
        }
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
