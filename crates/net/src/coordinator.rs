//! The coordinator: runs the session event loop over sockets.
//!
//! The loop is shaped exactly like the in-process `run_virtual`
//! executor, with the agent step calls replaced by `Deliver`/`Step`
//! frame exchanges. The coordinator relays every inter-agent message
//! through the shared [`Router`], which gives two properties for free:
//!
//! * **exact quiescence detection** — the router's queue is the
//!   in-flight set (agents only send in reply to a delivery the
//!   coordinator made), so "queue empty" is a consistent snapshot
//!   boundary even though the agents live in other processes;
//! * **replayable faults** — the router consumes each per-link
//!   SplitMix64 stream in the same order as `run_virtual` would for the
//!   same traffic, so a lossy run's fault counters replay bit-for-bit
//!   from `(seed, policy)`.
//!
//! `maxcck` (the paper's sum over cycles of the per-cycle maximum of
//! agents' nogood checks) is accumulated from the `Step` replies of
//! each delivery wave, because the wave boundary is where "concurrent"
//! is well defined — the same wave accounting as `run_virtual`.

use std::net::TcpListener;

use discsp_core::{Assignment, DistributedCsp, RunMetrics, Termination, TrialOutcome, Wire};
use discsp_runtime::{AgentStats, Classify, Router};
use discsp_trace::{canonical_sort, RuntimeKind, TraceEvent, TraceSink};

use crate::frame::{RunFrame, SetupFrame};
use crate::topology::AgentSlice;
use crate::transport::{accept_agents, Deadline, FrameConn};
use crate::{NetConfig, NetError};

/// What a networked session reports, mirroring
/// [`VirtualReport`](discsp_runtime::VirtualReport), event trace
/// included: the coordinator records the router's link-level events,
/// each endpoint ships its per-step events home in `Final`, and the
/// merged, canonically sorted stream lands in [`NetReport::trace`].
#[derive(Debug, Clone)]
pub struct NetReport {
    /// Metrics and (for solved runs) the solution.
    pub outcome: TrialOutcome,
    /// Final virtual tick of the relay clock.
    pub ticks: u64,
    /// Agent activations (delivery batches processed, including starts).
    pub activations: u64,
    /// Stall-triggered recovery passes consumed.
    pub nudges: u64,
    /// The session's merged event trace, empty unless
    /// [`NetConfig::record_trace`](crate::NetConfig) is set.
    pub trace: Vec<TraceEvent>,
}

/// One `Step` reply, already unpacked and sanity-checked.
struct StepReply<M> {
    out: Vec<discsp_runtime::Envelope<M>>,
    checks: u64,
    assignments: Vec<discsp_core::VarValue>,
    insoluble: bool,
}

fn recv_step<M: Wire>(conn: &mut FrameConn, index: usize) -> Result<StepReply<M>, NetError> {
    match conn.recv::<RunFrame<M>>() {
        Ok(RunFrame::Step {
            out,
            checks,
            assignments,
            insoluble,
        }) => Ok(StepReply {
            out,
            checks,
            assignments,
            insoluble,
        }),
        Ok(_) => Err(NetError::UnexpectedFrame { expected: "Step" }),
        Err(NetError::Io { context, error }) => Err(NetError::AgentFailed {
            index: index as u32,
            detail: format!("i/o failure while {context}: {error}"),
        }),
        Err(e) => Err(e),
    }
}

fn conn_at(conns: &mut [FrameConn], index: usize) -> Result<&mut FrameConn, NetError> {
    let population = conns.len();
    conns.get_mut(index).ok_or(NetError::BadAgentIndex {
        index: index as u32,
        population,
    })
}

/// Accepts `slices.len()` agent connections on `listener`, completes the
/// handshake, and drives the session to termination, aggregating every
/// agent's statistics into a single [`RunMetrics`].
///
/// The generic parameter `M` is the algorithm's message type; it must
/// match what the agents instantiate from their
/// [`AlgoSpec`](crate::AlgoSpec) or the first relayed frame fails to
/// decode with a typed error.
///
/// # Errors
///
/// Any [`NetError`]: handshake timeout, bad or duplicate agent indices,
/// socket failures (attributed to the offending agent), codec errors.
pub fn run_session<M>(
    listener: &TcpListener,
    problem: &DistributedCsp,
    slices: &[AgentSlice],
    config: &NetConfig,
) -> Result<NetReport, NetError>
where
    M: Wire + Classify + Clone,
{
    let n = slices.len();

    // --- Handshake: every agent says Hello, gets its Assign. ---------
    // One deadline bounds both phases: accepting the sockets and
    // collecting the greetings. A client that connects and then goes
    // silent therefore fails the handshake with a typed error instead
    // of wedging setup on an unbounded read.
    let deadline = Deadline::new(config.handshake_timeout);
    let streams = accept_agents(listener, n, &deadline)?;
    let mut slots: Vec<Option<FrameConn>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    // `greeted` counts connections that already completed their Hello:
    // every earlier iteration either greeted successfully or returned.
    for (greeted, stream) in streams.into_iter().enumerate() {
        let mut conn = FrameConn::new(stream, config.io_timeout)?;
        let Some(remaining) = deadline.remaining() else {
            return Err(NetError::HelloTimeout {
                completed: greeted,
                expected: n,
            });
        };
        conn.set_io_timeout(remaining)?;
        let index = match conn.recv::<SetupFrame>() {
            Ok(SetupFrame::Hello { index }) => index,
            Ok(SetupFrame::Assign { .. }) => {
                return Err(NetError::UnexpectedFrame { expected: "Hello" })
            }
            Err(NetError::Io { context: _, error })
                if matches!(
                    error.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Err(NetError::HelloTimeout {
                    completed: greeted,
                    expected: n,
                })
            }
            Err(e) => return Err(e),
        };
        conn.set_io_timeout(config.io_timeout)?;
        let slot = slots
            .get_mut(index as usize)
            .ok_or(NetError::BadAgentIndex {
                index,
                population: n,
            })?;
        if slot.is_some() {
            return Err(NetError::DuplicateAgentIndex { index });
        }
        let slice = slices
            .get(index as usize)
            .cloned()
            .ok_or(NetError::BadAgentIndex {
                index,
                population: n,
            })?;
        conn.send(&SetupFrame::Assign {
            n_agents: n as u32,
            seed: config.seed,
            policy: config.link,
            record_trace: config.record_trace,
            slice,
        })?;
        *slot = Some(conn);
    }
    let mut conns: Vec<FrameConn> = Vec::with_capacity(n);
    for (index, slot) in slots.into_iter().enumerate() {
        conns.push(slot.ok_or(NetError::AgentFailed {
            index: index as u32,
            detail: "connection lost between Hello and session start".to_string(),
        })?);
    }

    // --- Session: the run_virtual loop, over sockets. ----------------
    let mut net: Router<M> = Router::new(n, config.link, config.seed, config.record_trace);
    let mut metrics = RunMetrics::new(Termination::CutOff);
    let mut snapshot = Assignment::empty(problem.num_vars());
    let mut activations: u64 = 0;
    let mut nudges: u64 = 0;
    let mut tick: u64 = 0;
    let termination;

    // Tick 0: every agent announces its initial state. Starts go out to
    // all agents before any reply is read (they step concurrently), but
    // replies are routed in ascending index order — the same router
    // call order as the in-process executor.
    for conn in conns.iter_mut() {
        conn.send(&RunFrame::<M>::Start)?;
    }
    let mut insoluble = false;
    let mut start_max: u64 = 0;
    for index in 0..n {
        let reply = recv_step::<M>(conn_at(&mut conns, index)?, index)?;
        activations += 1;
        metrics.total_checks += reply.checks;
        start_max = start_max.max(reply.checks);
        for vv in reply.assignments {
            snapshot.set(vv.var, vv.value);
        }
        insoluble |= reply.insoluble;
        for env in reply.out {
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
        if config.stop_on_first_solution && problem.is_solution(&snapshot) {
            termination = Termination::Solved;
            break;
        }
        let Some(due) = net.next_due() else {
            // Quiescent: the relay queue is the in-flight set, so the
            // snapshot is stable unless the recovery pass injects
            // traffic.
            if problem.is_solution(&snapshot) {
                termination = Termination::Solved;
                break;
            }
            // As in `run_virtual`: recovery is not gated on the fault
            // policy, since a protocol can park itself without losing a
            // message.
            if nudges >= config.max_nudges {
                termination = Termination::CutOff;
                break;
            }
            nudges += 1;
            tick += 1;
            net.flush_parked(tick);
            for conn in conns.iter_mut() {
                conn.send(&RunFrame::<M>::Nudge { tick })?;
            }
            let mut wave_max: u64 = 0;
            for index in 0..n {
                let reply = recv_step::<M>(conn_at(&mut conns, index)?, index)?;
                // Checks count (they drain the agent's counter), but the
                // in-process executor does not refresh snapshot or
                // insolubility during a nudge pass, so neither do we.
                metrics.total_checks += reply.checks;
                wave_max = wave_max.max(reply.checks);
                for env in reply.out {
                    net.route(tick, env)?;
                }
            }
            metrics.maxcck += wave_max;
            net.sink().record(TraceEvent::CycleBarrier { cycle: tick });
            if net.is_quiescent() {
                // Nothing retransmitted and nobody re-announced: the
                // stall is permanent.
                termination = Termination::CutOff;
                break;
            }
            continue;
        };
        if due > config.max_ticks {
            termination = Termination::CutOff;
            break;
        }
        tick = tick.max(due);

        // Deliver every batch due this tick, then collect the replies in
        // the same ascending recipient order the in-process executor
        // steps agents in, routing each reply's messages as it lands.
        let batches = net.take_due(due, tick);
        for (recipient, inbox) in &batches {
            conn_at(&mut conns, *recipient)?.send(&RunFrame::Deliver {
                tick,
                msgs: inbox.clone(),
            })?;
        }
        let mut wave_max: u64 = 0;
        for (recipient, _) in &batches {
            let reply = recv_step::<M>(conn_at(&mut conns, *recipient)?, *recipient)?;
            activations += 1;
            metrics.total_checks += reply.checks;
            wave_max = wave_max.max(reply.checks);
            for vv in reply.assignments {
                snapshot.set(vv.var, vv.value);
            }
            insoluble |= reply.insoluble;
            for env in reply.out {
                net.route(tick, env)?;
            }
        }
        metrics.maxcck += wave_max;
        net.sink().record(TraceEvent::CycleBarrier { cycle: tick });
    }

    // --- Teardown: collect every agent's statistics. ------------------
    for conn in conns.iter_mut() {
        conn.send(&RunFrame::<M>::Stop)?;
    }
    let mut stats = AgentStats::default();
    let mut agent_events: Vec<TraceEvent> = Vec::new();
    for index in 0..n {
        match conn_at(&mut conns, index)?.recv::<RunFrame<M>>() {
            Ok(RunFrame::Final {
                stats: agent_stats,
                leftover_checks,
                trace,
            }) => {
                metrics.total_checks += leftover_checks;
                if leftover_checks > 0 && config.record_trace {
                    // Mirror run_virtual's final sweep: leftover checks
                    // appear in the trace so the audit's total matches.
                    agent_events.push(TraceEvent::AgentStep {
                        cycle: tick,
                        agent: discsp_core::AgentId::new(index as u32),
                        checks: leftover_checks,
                    });
                }
                agent_events.extend(trace);
                stats.absorb(agent_stats);
            }
            Ok(_) => return Err(NetError::UnexpectedFrame { expected: "Final" }),
            Err(NetError::Io { context, error }) => {
                return Err(NetError::AgentFailed {
                    index: index as u32,
                    detail: format!("i/o failure while {context}: {error}"),
                })
            }
            Err(e) => return Err(e),
        }
    }

    metrics.termination = termination;
    metrics.cycles = tick;
    let (ok, nogood, other) = net.class_counts();
    metrics.ok_messages = ok;
    metrics.nogood_messages = nogood;
    metrics.other_messages = other;
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

    let trace = if config.record_trace {
        let mut trace = net.take_trace();
        trace.extend(agent_events);
        canonical_sort(&mut trace);
        let in_flight = net.queued();
        trace.push(TraceEvent::RunEnd {
            cycle: metrics.cycles,
            runtime: RuntimeKind::Net,
            in_flight,
            metrics: metrics.clone(),
        });
        trace
    } else {
        Vec::new()
    };

    let solution = if termination == Termination::Solved {
        Some(snapshot)
    } else {
        None
    };
    Ok(NetReport {
        outcome: TrialOutcome { metrics, solution },
        ticks: tick,
        activations,
        nudges,
        trace,
    })
}
