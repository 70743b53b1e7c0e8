//! The deterministic message router shared by every deterministic
//! executor: `run_virtual`, `run_sharded`, the service's session
//! `Driver`, and the TCP coordinator.
//!
//! [`Router`] owns the event queue, the lazily created [`Link`]s, the
//! parked (dropped-message) recovery buffers, and the per-class message
//! counters. Sharing it lets `discsp-net` relay frames between OS
//! processes through *exactly* the same fault lottery and delivery
//! ordering as the in-process runtimes: as long as callers issue
//! `route`/`flush_parked`/`take_due` in the same order, the per-link
//! [`SplitMix64`](crate::SplitMix64) streams are consumed identically
//! and every fault counter replays bit-for-bit from `(seed, policy)` —
//! whether the agents live in this process or behind a socket.
//!
//! The router also owns the link-layer half of the trace: it records
//! `Sent` at the moment a message enters its link (mirroring the
//! `sent` counter), `Fault` for every lottery outcome — including the
//! delay/reorder faults injected on the *retransmission* path — and
//! `Delivered` when a copy leaves the queue. Executors interleave their
//! agent-step events into the same [`RingBuffer`] via [`Router::sink`],
//! so one buffer holds the whole run in emission order.
//!
//! Routing is the per-message cost of every deterministic runtime (the
//! distributed breakout has every agent message every neighbour each
//! wave), so the layout is built for it:
//!
//! * **Calendar queue.** In-flight copies sit in one unsorted bucket per
//!   due tick. An enqueue is a push onto its tick's bucket; `take_due`
//!   removes the whole bucket and sorts it once.
//! * **Per-sender link rows.** Row `from` holds the links `from` has used,
//!   sorted by recipient and found by binary search, each with its
//!   same-tick delivery rank computed once at creation.
//! * **No allocation on a perfect link.** A [`RouteDecision`] holds its
//!   at most two copies inline.

use std::collections::BTreeMap;

use discsp_core::AgentId;
use discsp_trace::{FaultKind, RingBuffer, TraceEvent, TraceSink};

use crate::error::RuntimeError;
use crate::link::{derive_link_seed, Link, LinkPolicy, LinkStats};
use crate::message::{Classify, Envelope, MessageClass};
use crate::schedule::{FaultEvent, FaultSchedule};
use crate::seed::SplitMix64;

/// Derives the directed link's same-tick delivery rank from its index
/// `from * n + to`. Independent of the link's fault stream (different
/// mixing constants), constant per link, and a pure function of
/// `(run_seed, from, to)`.
pub(crate) fn derive_order_rank(run_seed: u64, index: u64) -> u64 {
    SplitMix64::new(
        run_seed
            ^ 0x6A09_E667_F3BC_C909u64.wrapping_mul(index.wrapping_add(1)),
    )
    .next_u64()
}

/// How a router materializes the link for an ordered agent pair the
/// first time traffic touches it.
#[derive(Debug)]
enum LinkMode {
    /// Every link follows one policy; its stream seed is a pure function
    /// of `(run_seed, from, to)`.
    Lottery(LinkPolicy),
    /// Links replay an explicit schedule; unscripted calls deliver
    /// perfectly.
    Scripted(FaultSchedule),
}

/// One link in its sender's row.
#[derive(Debug)]
struct LinkSlot {
    to: usize,
    /// The link's same-tick delivery rank (`derive_order_rank`).
    rank: u64,
    link: Link,
}

/// One in-flight copy in its due tick's bucket.
#[derive(Debug)]
struct Queued<M> {
    rank: u64,
    seq: u64,
    env: Envelope<M>,
}

/// Deterministic routing/enqueue state: calendar queue, per-sender link
/// rows, parked drops, and message-class counters.
///
/// Delivery order is total and deterministic: copies leave in
/// `(due_tick, link_rank, enqueue_seq)` order, where `link_rank` is a
/// seed-derived constant per directed link. Messages due the same tick
/// therefore drain in an order that is a pure function of the run seed —
/// identical across reruns and independent of the order in which links
/// happened to enqueue them — while two same-tick messages on the *same*
/// link keep their send order (per-link FIFO; the explicit reordering
/// window is the only way a link reorders its own traffic).
///
/// The queue is a calendar: a `BTreeMap` from due tick to an unsorted
/// bucket of `(link_rank, enqueue_seq, envelope)`. Every copy in a bucket
/// shares its due tick, so sorting the bucket by `(link_rank,
/// enqueue_seq)` when it is taken yields exactly the
/// `(due_tick, link_rank, enqueue_seq)` order — `enqueue_seq` is unique,
/// so the order is total and the sort needs no stability. Buckets are
/// taken whole, so an empty bucket never stays in the map and the
/// earliest key is the next due tick.
///
/// Links are created on first use, in per-sender rows sorted by
/// recipient: a link's fault stream ([`derive_link_seed`]) and its
/// same-tick rank (`derive_order_rank`) are pure functions of
/// `(run_seed, from, to)`, so lazy creation is replay-transparent while
/// keeping memory at O(agents + links used) — for a degree-bounded
/// constraint graph that is O(agents), not O(agents²). Walking the rows
/// in order visits links in `(from, to)` order, the order
/// [`Router::fault_log`] reports them in.
#[derive(Debug)]
pub struct Router<M> {
    /// Calendar queue: due tick → that tick's copies, in enqueue order.
    queue: BTreeMap<u64, Vec<Queued<M>>>,
    /// Copies in the queue (the in-flight set's size).
    in_flight: u64,
    /// Links touched so far: row `from`, sorted by recipient.
    rows: Vec<Vec<LinkSlot>>,
    mode: LinkMode,
    /// Dropped messages parked per sending agent, in drop order.
    parked: BTreeMap<usize, Vec<Envelope<M>>>,
    n: usize,
    run_seed: u64,
    seq: u64,
    ok_messages: u64,
    nogood_messages: u64,
    other_messages: u64,
    sink: RingBuffer,
}

impl<M: Classify + Clone> Router<M> {
    /// Creates the router for `n` agents, every directed link following
    /// `policy` with its stream derived from `run_seed` via
    /// [`derive_link_seed`].
    pub fn new(n: usize, policy: LinkPolicy, run_seed: u64, record_trace: bool) -> Self {
        Router::build(n, run_seed, record_trace, LinkMode::Lottery(policy))
    }

    /// Creates a router whose links replay `schedule` exactly: the k-th
    /// call on link `from → to` suffers the scripted action, every other
    /// message delivers perfectly, and no fault lottery exists. The
    /// `run_seed` still fixes the same-tick delivery order, so a
    /// recorded fault log replays its originating run under the seed
    /// that produced it.
    pub fn scripted(
        n: usize,
        schedule: &FaultSchedule,
        run_seed: u64,
        record_trace: bool,
    ) -> Self {
        Router::build(n, run_seed, record_trace, LinkMode::Scripted(schedule.clone()))
    }

    fn build(n: usize, run_seed: u64, record_trace: bool, mode: LinkMode) -> Self {
        Router {
            queue: BTreeMap::new(),
            in_flight: 0,
            rows: std::iter::repeat_with(Vec::new).take(n).collect(),
            mode,
            parked: BTreeMap::new(),
            n,
            run_seed,
            seq: 0,
            ok_messages: 0,
            nogood_messages: 0,
            other_messages: 0,
            sink: if record_trace {
                RingBuffer::new()
            } else {
                RingBuffer::disabled()
            },
        }
    }

    /// The link `from → to`, created on first touch; `None` when `from`
    /// is outside the population. Creation order cannot perturb replay:
    /// the link's stream seed and rank are pure functions of
    /// `(run_seed, from, to)`, not of when the link first saw traffic.
    fn slot_mut(&mut self, from: usize, to: usize) -> Option<&mut LinkSlot> {
        let row = self.rows.get_mut(from)?;
        let at = match row.binary_search_by_key(&to, |slot| slot.to) {
            Ok(at) => at,
            Err(at) => {
                let (from_id, to_id) = (AgentId::new(from as u32), AgentId::new(to as u32));
                let link = match &self.mode {
                    LinkMode::Lottery(policy) => {
                        Link::new(*policy, derive_link_seed(self.run_seed, from_id, to_id))
                    }
                    LinkMode::Scripted(schedule) => {
                        Link::scripted(schedule.actions_for(from_id, to_id))
                    }
                };
                let rank = derive_order_rank(self.run_seed, (from * self.n + to) as u64);
                row.insert(at, LinkSlot { to, rank, link });
                at
            }
        };
        row.get_mut(at)
    }

    fn enqueue(&mut self, due: u64, rank: u64, env: Envelope<M>) {
        match env.payload.class() {
            MessageClass::Ok => self.ok_messages += 1,
            MessageClass::Nogood => self.nogood_messages += 1,
            MessageClass::Other => self.other_messages += 1,
        }
        let seq = self.seq;
        self.queue.entry(due).or_default().push(Queued { rank, seq, env });
        self.seq += 1;
        self.in_flight += 1;
    }

    /// Routes one freshly sent envelope through its link at time `now`,
    /// recording a `Sent` trace event exactly where the link's `sent`
    /// counter increments (unknown recipients error out before either).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnknownRecipient`] when the envelope addresses an
    /// agent outside the population.
    pub fn route(&mut self, now: u64, env: Envelope<M>) -> Result<(), RuntimeError> {
        let unknown = RuntimeError::UnknownRecipient { agent: env.to };
        if env.to.index() >= self.n {
            return Err(unknown);
        }
        let Some(slot) = self.slot_mut(env.from.index(), env.to.index()) else {
            return Err(unknown);
        };
        let rank = slot.rank;
        let decision = slot.link.route(now);
        if self.sink.enabled() {
            self.sink.record(TraceEvent::Sent {
                cycle: now,
                from: env.from,
                to: env.to,
                class: env.payload.class(),
            });
            for &kind in &decision.faults {
                self.sink.record(TraceEvent::Fault {
                    cycle: now,
                    from: env.from,
                    to: env.to,
                    class: env.payload.class(),
                    kind,
                });
            }
        }
        let Some((&last, earlier)) = decision.deliveries.split_last() else {
            self.parked.entry(env.from.index()).or_default().push(env);
            return Ok(());
        };
        for &due in earlier {
            self.enqueue(due, rank, env.clone());
        }
        self.enqueue(last, rank, env);
        Ok(())
    }

    /// Re-enqueues every parked (dropped) message, in sender order.
    /// Returns how many were flushed. The retransmission and any
    /// delay/reorder faults the link injects on the second pass are all
    /// recorded — the audit counts every fault event against the link
    /// counters, so none may be dropped on the recovery path.
    pub fn flush_parked(&mut self, now: u64) -> usize {
        let mut flushed = 0;
        // BTreeMap key order = ascending sender id, the same order the
        // dense per-sender buckets used to flush in.
        for (_, bucket) in std::mem::take(&mut self.parked) {
            for env in bucket {
                // Parked envelopes passed `route`'s range check, so their
                // link exists.
                let Some(slot) = self.slot_mut(env.from.index(), env.to.index()) else {
                    continue;
                };
                let rank = slot.rank;
                let (due, faults) = slot.link.redeliver(now);
                if self.sink.enabled() {
                    self.sink.record(TraceEvent::Fault {
                        cycle: now,
                        from: env.from,
                        to: env.to,
                        class: env.payload.class(),
                        kind: FaultKind::Retransmitted,
                    });
                    for kind in faults {
                        self.sink.record(TraceEvent::Fault {
                            cycle: now,
                            from: env.from,
                            to: env.to,
                            class: env.payload.class(),
                            kind,
                        });
                    }
                }
                self.enqueue(due, rank, env);
                flushed += 1;
            }
        }
        flushed
    }

    /// The due tick of the earliest queued message, if any.
    pub fn next_due(&self) -> Option<u64> {
        self.queue.first_key_value().map(|(&due, _)| due)
    }

    /// Whether the in-flight set (queue) is empty. The queue *is* the
    /// in-flight set, so an empty queue means the captured assignment
    /// snapshot is a consistent global state.
    pub fn is_quiescent(&self) -> bool {
        self.in_flight == 0
    }

    /// Removes every message due exactly at `due`, recording `Delivered`
    /// trace events at cycle `tick` in the queue's seed-derived
    /// `(link_rank, enqueue_seq)` order. Returns one inbox per
    /// recipient, in ascending recipient order, each holding its
    /// messages in that same order.
    pub fn take_due(&mut self, due: u64, tick: u64) -> Vec<(usize, Vec<Envelope<M>>)> {
        let Some(mut bucket) = self.queue.remove(&due) else {
            return Vec::new();
        };
        self.in_flight -= bucket.len() as u64;
        if self.sink.enabled() {
            bucket.sort_unstable_by_key(|q| (q.rank, q.seq));
            for q in &bucket {
                self.sink.record(TraceEvent::Delivered {
                    cycle: tick,
                    from: q.env.from,
                    to: q.env.to,
                    class: q.env.payload.class(),
                });
            }
            // Stable, so each inbox keeps the order just recorded.
            bucket.sort_by_key(|q| q.env.to);
        } else {
            bucket.sort_unstable_by_key(|q| (q.env.to, q.rank, q.seq));
        }
        let mut inboxes: Vec<(usize, Vec<Envelope<M>>)> = Vec::new();
        for Queued { env, .. } in bucket {
            let to = env.to.index();
            match inboxes.last_mut() {
                Some((last, inbox)) if *last == to => inbox.push(env),
                _ => inboxes.push((to, vec![env])),
            }
        }
        inboxes
    }

    /// Per-class counts of enqueued message copies:
    /// `(ok, nogood, other)`.
    pub fn class_counts(&self) -> (u64, u64, u64) {
        (self.ok_messages, self.nogood_messages, self.other_messages)
    }

    /// Number of message copies still queued (in flight). Parked drops
    /// are *not* in flight — they were already counted as dropped.
    pub fn queued(&self) -> u64 {
        self.in_flight
    }

    fn slots(&self) -> impl Iterator<Item = (usize, &LinkSlot)> {
        self.rows
            .iter()
            .enumerate()
            .flat_map(|(from, row)| row.iter().map(move |slot| (from, slot)))
    }

    /// Fault counters summed over every link touched so far (untouched
    /// links have all-zero counters by definition).
    pub fn link_totals(&self) -> LinkStats {
        let mut totals = LinkStats::default();
        for (_, slot) in self.slots() {
            totals.absorb(slot.link.stats);
        }
        totals
    }

    /// Every fault any link actually injected, in `(from, to)` link
    /// order, assembled into a replayable [`FaultSchedule`]. Feeding it
    /// to [`Router::scripted`] under the same run seed replays this
    /// router's behavior exactly.
    pub fn fault_log(&self) -> FaultSchedule {
        let mut events = Vec::new();
        for (from, slot) in self.slots() {
            let from = AgentId::new(from as u32);
            let to = AgentId::new(slot.to as u32);
            for &(call, action) in slot.link.fault_log() {
                events.push(FaultEvent {
                    from,
                    to,
                    call,
                    action,
                });
            }
        }
        FaultSchedule::new(events)
    }

    /// The trace sink. Executors record their agent-step events here so
    /// the whole run lands in one buffer in emission order.
    pub fn sink(&mut self) -> &mut RingBuffer {
        &mut self.sink
    }

    /// Takes the recorded trace (empty unless trace recording is on).
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.sink.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use discsp_core::Value;

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Note(Value);

    impl Classify for Note {
        fn class(&self) -> MessageClass {
            MessageClass::Ok
        }
    }

    fn env(from: u32, to: u32) -> Envelope<Note> {
        Envelope {
            from: AgentId::new(from),
            to: AgentId::new(to),
            payload: Note(Value::new(0)),
        }
    }

    #[test]
    fn perfect_router_delivers_next_tick_in_order() {
        let mut router: Router<Note> = Router::new(3, LinkPolicy::perfect(), 0, false);
        router.route(0, env(0, 1)).expect("routes");
        router.route(0, env(1, 2)).expect("routes");
        assert_eq!(router.next_due(), Some(1));
        assert!(!router.is_quiescent());
        assert_eq!(router.queued(), 2);
        let inboxes = router.take_due(1, 1);
        assert_eq!(inboxes.len(), 2);
        assert!(router.is_quiescent());
        assert_eq!(router.queued(), 0);
        assert_eq!(router.class_counts(), (2, 0, 0));
        assert_eq!(router.link_totals().sent, 2);
    }

    #[test]
    fn dropped_messages_park_and_flush() {
        let mut router: Router<Note> = Router::new(2, LinkPolicy::lossy(crate::PPM), 7, false);
        router.route(0, env(0, 1)).expect("routes");
        assert!(router.is_quiescent(), "drop leaves the queue empty");
        assert_eq!(router.flush_parked(1), 1);
        assert!(!router.is_quiescent());
        let totals = router.link_totals();
        assert_eq!(totals.dropped, 1);
        assert_eq!(totals.retransmitted, 1);
    }

    #[test]
    fn unknown_recipient_is_an_error() {
        let mut router: Router<Note> = Router::new(2, LinkPolicy::perfect(), 0, false);
        let err = router.route(0, env(0, 9)).unwrap_err();
        assert_eq!(
            err,
            RuntimeError::UnknownRecipient {
                agent: AgentId::new(9)
            }
        );
    }

    #[test]
    fn two_routers_fed_identically_agree() {
        let policy = LinkPolicy::lossy(300_000).with_delay(0, 3).with_duplication(100_000);
        let mut a: Router<Note> = Router::new(3, policy, 42, false);
        let mut b: Router<Note> = Router::new(3, policy, 42, false);
        for now in 0..50 {
            for (from, to) in [(0, 1), (1, 2), (2, 0)] {
                a.route(now, env(from, to)).expect("routes");
                b.route(now, env(from, to)).expect("routes");
            }
        }
        assert_eq!(a.class_counts(), b.class_counts());
        assert_eq!(a.link_totals(), b.link_totals());
    }

    #[test]
    fn same_tick_order_is_seed_derived_and_insertion_independent() {
        // Property (satellite of the explorer work): messages due the
        // same tick drain in an order that is a pure function of the run
        // seed — identical across reruns, independent of the order the
        // links enqueued them — while same-link messages keep FIFO.
        use crate::seed::SplitMix64;

        let n = 4;
        // Every ordered pair sends once at now = 0; all due tick 1.
        let sends: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|f| (0..n as u32).filter(move |&t| t != f).map(move |t| (f, t)))
            .collect();

        let drain = |order: &[usize], seed: u64| -> Vec<(AgentId, AgentId)> {
            let mut router: Router<Note> = Router::new(n, LinkPolicy::perfect(), seed, true);
            for &i in order {
                let (f, t) = sends[i];
                router.route(0, env(f, t)).expect("routes");
            }
            router.take_due(1, 1);
            router
                .take_trace()
                .into_iter()
                .filter_map(|e| match e {
                    TraceEvent::Delivered { from, to, .. } => Some((from, to)),
                    _ => None,
                })
                .collect()
        };

        let forward: Vec<usize> = (0..sends.len()).collect();
        let mut shuffled = forward.clone();
        let mut rng = SplitMix64::new(99);
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
        assert_ne!(forward, shuffled, "the shuffle must actually permute");

        let mut distinct_orders = Vec::new();
        for seed in 0..8u64 {
            let a = drain(&forward, seed);
            let b = drain(&shuffled, seed);
            let c = drain(&forward, seed);
            assert_eq!(a, c, "seed {seed}: rerun-identical");
            assert_eq!(a, b, "seed {seed}: insertion-order-independent");
            if !distinct_orders.contains(&a) {
                distinct_orders.push(a);
            }
        }
        assert!(
            distinct_orders.len() > 1,
            "the order must genuinely depend on the seed"
        );

        // Same-link FIFO: two messages on one link due the same tick
        // keep their send order under every seed.
        for seed in 0..8u64 {
            let mut router: Router<Note> = Router::new(2, LinkPolicy::perfect(), seed, false);
            router
                .route(0, Envelope { from: AgentId::new(0), to: AgentId::new(1), payload: Note(Value::new(1)) })
                .expect("routes");
            router
                .route(0, Envelope { from: AgentId::new(0), to: AgentId::new(1), payload: Note(Value::new(2)) })
                .expect("routes");
            let inboxes = router.take_due(1, 1);
            let [(1, inbox)] = &inboxes[..] else {
                panic!("seed {seed}: recipient 1 alone has mail");
            };
            let values: Vec<_> = inbox.iter().map(|e| e.payload.0).collect();
            assert_eq!(values, vec![Value::new(1), Value::new(2)], "seed {seed}");
        }
    }

    #[test]
    fn scripted_router_replays_a_recorded_log() {
        let policy = LinkPolicy::lossy(400_000)
            .with_duplication(200_000)
            .with_delay(0, 3);
        let mut original: Router<Note> = Router::new(3, policy, 11, false);
        for now in 0..30 {
            for (from, to) in [(0, 1), (1, 2), (2, 0)] {
                original.route(now, env(from, to)).expect("routes");
            }
            if now % 10 == 9 {
                original.flush_parked(now);
            }
        }
        let log = original.fault_log();
        assert!(!log.is_empty());

        let mut replay: Router<Note> = Router::scripted(3, &log, 11, false);
        for now in 0..30 {
            for (from, to) in [(0, 1), (1, 2), (2, 0)] {
                replay.route(now, env(from, to)).expect("routes");
            }
            if now % 10 == 9 {
                replay.flush_parked(now);
            }
        }
        assert_eq!(original.link_totals(), replay.link_totals());
        assert_eq!(original.class_counts(), replay.class_counts());
        assert_eq!(original.queued(), replay.queued());
        assert_eq!(original.fault_log(), replay.fault_log());
    }

    #[test]
    fn trace_accounts_for_every_send_and_recovery_fault() {
        // Links that always drop and then pay a delay on retransmission:
        // the recovery path's Delayed faults must appear in the trace,
        // not just in the counters.
        let policy = LinkPolicy::lossy(crate::PPM).with_delay(2, 2);
        let mut router: Router<Note> = Router::new(2, policy, 3, true);
        router.route(0, env(0, 1)).expect("routes");
        router.route(0, env(1, 0)).expect("routes");
        assert_eq!(router.flush_parked(1), 2);
        let trace = router.take_trace();
        let count = |pred: &dyn Fn(&TraceEvent) -> bool| trace.iter().filter(|e| pred(e)).count();
        assert_eq!(count(&|e| matches!(e, TraceEvent::Sent { .. })), 2);
        assert_eq!(
            count(&|e| matches!(
                e,
                TraceEvent::Fault {
                    kind: FaultKind::Dropped,
                    ..
                }
            )),
            2
        );
        assert_eq!(
            count(&|e| matches!(
                e,
                TraceEvent::Fault {
                    kind: FaultKind::Retransmitted,
                    ..
                }
            )),
            2
        );
        assert_eq!(
            count(&|e| matches!(
                e,
                TraceEvent::Fault {
                    kind: FaultKind::Delayed(2),
                    ..
                }
            )),
            2,
            "retransmission-path delays are recorded"
        );
    }
}
