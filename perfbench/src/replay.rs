//! The router ledger: recorded traffic replayed through a standalone
//! [`Router`] using only its public calls.
//!
//! A run recorded with `record_trace` logs a `Sent` event inside every
//! `Router::route`, the `Delivered` events of one `take_due` at the head
//! of each delivery wave, and a `Retransmitted` fault per message a
//! `flush_parked` re-enqueues. Replaying those calls in order, under the
//! run's link policy and seed, drives the router through exactly the
//! states the executor drove it through — the replayed class and fault
//! counters must equal the run's — while each call is timed in isolation
//! from agents and executor.

use std::time::Instant;

use discsp_core::{Classify, MessageClass, RunMetrics};
use discsp_runtime::{AgentStats, Envelope, FaultKind, LinkPolicy, Router, TraceEvent};

/// A payload that carries only its class; the router never looks inside.
#[derive(Debug, Clone)]
struct Replayed(MessageClass);

impl Classify for Replayed {
    fn class(&self) -> MessageClass {
        self.0
    }
}

/// One router call reconstructed from a trace.
enum Call {
    /// Consecutive `route` calls: `(now, envelope)` in send order.
    Route(Vec<(u64, Envelope<Replayed>)>),
    /// `take_due(next_due, tick)` at the head of a delivery wave.
    TakeDue { tick: u64 },
    /// `flush_parked(now)` at the head of a recovery wave.
    Flush { now: u64 },
}

fn calls_of(trace: &[TraceEvent]) -> Vec<Call> {
    let mut calls = Vec::new();
    let mut sends = Vec::new();
    let mut wave_delivered = false;
    let mut flushed_at = None;
    for event in trace {
        if let TraceEvent::Sent {
            cycle,
            from,
            to,
            class,
        } = *event
        {
            sends.push((cycle, Envelope::new(from, to, Replayed(class))));
            continue;
        }
        if !sends.is_empty() {
            calls.push(Call::Route(std::mem::take(&mut sends)));
        }
        match *event {
            TraceEvent::Delivered { cycle, .. } if !wave_delivered => {
                wave_delivered = true;
                calls.push(Call::TakeDue { tick: cycle });
            }
            TraceEvent::CycleBarrier { .. } => wave_delivered = false,
            TraceEvent::Fault {
                cycle,
                kind: FaultKind::Retransmitted,
                ..
            } if flushed_at != Some(cycle) => {
                flushed_at = Some(cycle);
                calls.push(Call::Flush { now: cycle });
            }
            _ => {}
        }
    }
    if !sends.is_empty() {
        calls.push(Call::Route(sends));
    }
    calls
}

/// Router work and time summed over every replayed run.
#[derive(Debug, Default)]
pub struct RouterLedger {
    pub routed: u64,
    pub route_ns: u64,
    pub take_dues: u64,
    pub take_due_ns: u64,
    pub queue_peak: u64,
    pub retransmitted: u64,
}

impl RouterLedger {
    /// Replays one recorded run of `agents` agents and checks the replayed
    /// router's counters against the run's metrics. Returns a description
    /// of the first mismatch.
    pub fn replay(
        &mut self,
        agents: usize,
        policy: LinkPolicy,
        seed: u64,
        trace: &[TraceEvent],
        metrics: &RunMetrics,
    ) -> Result<(), String> {
        let calls = calls_of(trace);
        let mut router: Router<Replayed> = Router::new(agents, policy, seed, false);
        for call in calls {
            match call {
                Call::Route(sends) => {
                    let count = sends.len() as u64;
                    let start = Instant::now();
                    for (now, env) in sends {
                        router
                            .route(now, env)
                            .map_err(|e| format!("replayed route failed: {e}"))?;
                    }
                    self.route_ns += start.elapsed().as_nanos() as u64;
                    self.routed += count;
                    self.queue_peak = self.queue_peak.max(router.queued());
                }
                Call::TakeDue { tick } => {
                    let due = router
                        .next_due()
                        .ok_or_else(|| format!("replay has nothing due at tick {tick}"))?;
                    let start = Instant::now();
                    let inboxes = router.take_due(due, tick);
                    self.take_due_ns += start.elapsed().as_nanos() as u64;
                    self.take_dues += 1;
                    drop(std::hint::black_box(inboxes));
                }
                Call::Flush { now } => {
                    self.retransmitted += router.flush_parked(now) as u64;
                }
            }
        }
        let mut faults = AgentStats::default();
        router.link_totals().fold_into(&mut faults);
        let replayed = (
            router.class_counts(),
            faults.messages_dropped,
            faults.messages_duplicated,
            faults.messages_retransmitted,
        );
        let recorded = (
            (
                metrics.ok_messages,
                metrics.nogood_messages,
                metrics.other_messages,
            ),
            metrics.messages_dropped,
            metrics.messages_duplicated,
            metrics.messages_retransmitted,
        );
        if replayed == recorded {
            Ok(())
        } else {
            Err(format!(
                "router replay diverged: replayed {replayed:?}, recorded {recorded:?}"
            ))
        }
    }
}
