//! Differential test of [`Router`] against a reference model.
//!
//! The model is the straightforward design the router's calendar queue
//! and per-sender link rows replaced: one ordered map keyed by
//! `(due_tick, link_rank, enqueue_seq)` as the queue, drained key by
//! key, and one ordered map keyed by `from * n + to` holding the links.
//! A SplitMix64-driven property loop feeds both the same random
//! interleaving of `route`, `flush_parked` and `take_due` calls — random
//! populations, lossy/duplicating/delaying/reordering policies, scripted
//! fault schedules, trace on and off — and after every step requires
//! identical deliveries, trace events, counters and fault logs.

use std::collections::BTreeMap;

use discsp_core::AgentId;
use discsp_trace::{FaultKind, TraceEvent};

use crate::error::RuntimeError;
use crate::link::{derive_link_seed, Link, LinkPolicy, LinkStats};
use crate::message::{Classify, Envelope, MessageClass};
use crate::router::{derive_order_rank, Router};
use crate::schedule::{FaultAction, FaultEvent, FaultSchedule};
use crate::seed::SplitMix64;

/// A payload with a unique id (so inbox comparisons see every copy) and
/// a random class (so the class counters are exercised).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Msg {
    id: u64,
    class: MessageClass,
}

impl Classify for Msg {
    fn class(&self) -> MessageClass {
        self.class
    }
}

type Inboxes = Vec<(usize, Vec<Envelope<Msg>>)>;

/// The reference router.
struct Model {
    queue: BTreeMap<(u64, u64, u64), Envelope<Msg>>,
    links: BTreeMap<usize, Link>,
    policy: LinkPolicy,
    schedule: Option<FaultSchedule>,
    parked: BTreeMap<usize, Vec<Envelope<Msg>>>,
    n: usize,
    run_seed: u64,
    seq: u64,
    classes: (u64, u64, u64),
    trace: Vec<TraceEvent>,
}

impl Model {
    fn new(n: usize, policy: LinkPolicy, schedule: Option<FaultSchedule>, run_seed: u64) -> Self {
        Model {
            queue: BTreeMap::new(),
            links: BTreeMap::new(),
            policy,
            schedule,
            parked: BTreeMap::new(),
            n,
            run_seed,
            seq: 0,
            classes: (0, 0, 0),
            trace: Vec::new(),
        }
    }

    fn link_mut(&mut self, index: usize) -> &mut Link {
        let from = AgentId::new((index / self.n) as u32);
        let to = AgentId::new((index % self.n) as u32);
        let (policy, run_seed) = (self.policy, self.run_seed);
        let schedule = &self.schedule;
        self.links.entry(index).or_insert_with(|| match schedule {
            Some(schedule) => Link::scripted(schedule.actions_for(from, to)),
            None => Link::new(policy, derive_link_seed(run_seed, from, to)),
        })
    }

    fn enqueue(&mut self, due: u64, index: usize, env: Envelope<Msg>) {
        match env.payload.class {
            MessageClass::Ok => self.classes.0 += 1,
            MessageClass::Nogood => self.classes.1 += 1,
            MessageClass::Other => self.classes.2 += 1,
        }
        let rank = derive_order_rank(self.run_seed, index as u64);
        self.queue.insert((due, rank, self.seq), env);
        self.seq += 1;
    }

    fn fault(&mut self, now: u64, env: &Envelope<Msg>, kind: FaultKind) {
        self.trace.push(TraceEvent::Fault {
            cycle: now,
            from: env.from,
            to: env.to,
            class: env.payload.class,
            kind,
        });
    }

    fn route(&mut self, now: u64, env: Envelope<Msg>) -> Result<(), RuntimeError> {
        if env.to.index() >= self.n || env.from.index() >= self.n {
            return Err(RuntimeError::UnknownRecipient { agent: env.to });
        }
        let index = env.from.index() * self.n + env.to.index();
        let decision = self.link_mut(index).route(now);
        self.trace.push(TraceEvent::Sent {
            cycle: now,
            from: env.from,
            to: env.to,
            class: env.payload.class,
        });
        for &kind in &decision.faults {
            self.fault(now, &env, kind);
        }
        if decision.deliveries.is_empty() {
            self.parked.entry(env.from.index()).or_default().push(env);
            return Ok(());
        }
        for due in decision.deliveries {
            self.enqueue(due, index, env.clone());
        }
        Ok(())
    }

    fn flush_parked(&mut self, now: u64) -> usize {
        let mut flushed = 0;
        for (_, bucket) in std::mem::take(&mut self.parked) {
            for env in bucket {
                let index = env.from.index() * self.n + env.to.index();
                let (due, faults) = self.link_mut(index).redeliver(now);
                self.fault(now, &env, FaultKind::Retransmitted);
                for kind in faults {
                    self.fault(now, &env, kind);
                }
                self.enqueue(due, index, env);
                flushed += 1;
            }
        }
        flushed
    }

    fn next_due(&self) -> Option<u64> {
        self.queue.keys().next().map(|&(due, _, _)| due)
    }

    fn take_due(&mut self, due: u64, tick: u64) -> Inboxes {
        let mut inboxes: BTreeMap<usize, Vec<Envelope<Msg>>> = BTreeMap::new();
        let keys: Vec<(u64, u64, u64)> = self
            .queue
            .range((due, 0, 0)..=(due, u64::MAX, u64::MAX))
            .map(|(&key, _)| key)
            .collect();
        for key in keys {
            if let Some(env) = self.queue.remove(&key) {
                self.trace.push(TraceEvent::Delivered {
                    cycle: tick,
                    from: env.from,
                    to: env.to,
                    class: env.payload.class,
                });
                inboxes.entry(env.to.index()).or_default().push(env);
            }
        }
        inboxes.into_iter().collect()
    }

    fn link_totals(&self) -> LinkStats {
        let mut totals = LinkStats::default();
        for link in self.links.values() {
            totals.absorb(link.stats);
        }
        totals
    }

    fn fault_log(&self) -> FaultSchedule {
        let mut events = Vec::new();
        for (&index, link) in &self.links {
            for &(call, action) in link.fault_log() {
                events.push(FaultEvent {
                    from: AgentId::new((index / self.n) as u32),
                    to: AgentId::new((index % self.n) as u32),
                    call,
                    action,
                });
            }
        }
        FaultSchedule::new(events)
    }
}

fn gen_policy(rng: &mut SplitMix64) -> LinkPolicy {
    let ppm = |rng: &mut SplitMix64| rng.next_below(400_000) as u32;
    match rng.next_below(6) {
        0 => LinkPolicy::perfect(),
        1 => LinkPolicy::lossy(ppm(rng)),
        2 => LinkPolicy::perfect().with_duplication(ppm(rng)),
        3 => {
            let min = rng.next_below(3);
            LinkPolicy::delayed(min, min + rng.next_below(4))
        }
        4 => LinkPolicy::reordering(1 + rng.next_below(4)),
        _ => {
            let min = rng.next_below(2);
            LinkPolicy::lossy(ppm(rng))
                .with_duplication(ppm(rng))
                .with_delay(min, min + rng.next_below(3))
                .with_reordering(rng.next_below(3))
        }
    }
}

fn gen_schedule(rng: &mut SplitMix64, n: usize) -> FaultSchedule {
    let events = (0..rng.next_below(40))
        .map(|_| FaultEvent {
            from: AgentId::new(rng.next_below(n as u64) as u32),
            to: AgentId::new(rng.next_below(n as u64) as u32),
            call: rng.next_below(8),
            action: match rng.next_below(3) {
                0 => FaultAction::Drop,
                1 => FaultAction::Delay(rng.next_below(4)),
                _ => FaultAction::Duplicate {
                    first: rng.next_below(3),
                    second: rng.next_below(3),
                },
            },
        })
        .collect();
    FaultSchedule::new(events)
}

fn gen_class(rng: &mut SplitMix64) -> MessageClass {
    match rng.next_below(3) {
        0 => MessageClass::Ok,
        1 => MessageClass::Nogood,
        _ => MessageClass::Other,
    }
}

/// Requires every observable of `router` to equal the model's.
fn assert_same(case: u64, step: usize, router: &mut Router<Msg>, model: &mut Model) {
    let at = format!("case {case} step {step}");
    assert_eq!(
        router.take_trace(),
        std::mem::take(&mut model.trace),
        "{at}: trace"
    );
    assert_eq!(router.class_counts(), model.classes, "{at}: class counts");
    assert_eq!(router.queued(), model.queue.len() as u64, "{at}: queued");
    assert_eq!(
        router.is_quiescent(),
        model.queue.is_empty(),
        "{at}: quiescent"
    );
    assert_eq!(router.next_due(), model.next_due(), "{at}: next due");
    assert_eq!(
        router.link_totals(),
        model.link_totals(),
        "{at}: link totals"
    );
    assert_eq!(router.fault_log(), model.fault_log(), "{at}: fault log");
}

#[test]
fn router_matches_the_reference_model() {
    const CASES: u64 = 400;
    const STEPS: usize = 160;
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x0DDE_5EED ^ case);
        let n = 1 + rng.next_below(12) as usize;
        let run_seed = rng.next_u64();
        let record_trace = rng.next_below(4) != 0;
        let (mut router, mut model) = if rng.next_below(4) == 0 {
            let schedule = gen_schedule(&mut rng, n);
            (
                Router::scripted(n, &schedule, run_seed, record_trace),
                Model::new(n, LinkPolicy::perfect(), Some(schedule), run_seed),
            )
        } else {
            let policy = gen_policy(&mut rng);
            (
                Router::new(n, policy, run_seed, record_trace),
                Model::new(n, policy, None, run_seed),
            )
        };
        let mut now = 0u64;
        let mut next_id = 0u64;
        for step in 0..STEPS {
            match rng.next_below(10) {
                0..=5 => {
                    // A burst of sends, one in twenty-five addressed
                    // (from or to) outside the population.
                    for _ in 0..1 + rng.next_below(6) {
                        let mut pick = || {
                            let bound = if rng.next_below(25) == 0 { n + 2 } else { n };
                            AgentId::new(rng.next_below(bound as u64) as u32)
                        };
                        let (from, to) = (pick(), pick());
                        let payload = Msg {
                            id: next_id,
                            class: gen_class(&mut rng),
                        };
                        next_id += 1;
                        let env = Envelope::new(from, to, payload);
                        assert_eq!(
                            router.route(now, env.clone()),
                            model.route(now, env),
                            "case {case} step {step}: route result"
                        );
                    }
                }
                6 => {
                    now += 1;
                    assert_eq!(
                        router.flush_parked(now),
                        model.flush_parked(now),
                        "case {case} step {step}: flushed"
                    );
                }
                _ => {
                    // Mostly the earliest due tick, as every executor
                    // calls it; sometimes any tick, which may be empty.
                    let due = match model.next_due() {
                        Some(due) if rng.next_below(4) != 0 => due,
                        _ => now + rng.next_below(4),
                    };
                    now = now.max(due);
                    assert_eq!(
                        router.take_due(due, now),
                        model.take_due(due, now),
                        "case {case} step {step}: inboxes"
                    );
                }
            }
            if !record_trace {
                model.trace.clear();
            }
            assert_same(case, step, &mut router, &mut model);
        }
    }
}
