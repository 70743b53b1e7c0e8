//! The coordinator: runs a solve session over sockets.
//!
//! After the handshake the session is the workspace's one wave engine
//! ([`WaveEngine`]) with the agent endpoints as its activation backend:
//! each wave goes out as `Start`/`Deliver`/`Nudge` frames and comes back
//! as `Step` replies. The coordinator relays every inter-agent message
//! through the engine's [`Router`](discsp_runtime::Router), which gives
//! two properties for free:
//!
//! * **exact quiescence detection** — the router's queue is the
//!   in-flight set (agents only send in reply to a frame the coordinator
//!   sent), so "queue empty" is a consistent snapshot boundary even
//!   though the agents live in other processes;
//! * **replayable faults** — the router consumes each per-link
//!   SplitMix64 stream in the same order as `run_virtual` would for the
//!   same traffic, so a lossy run's fault counters and fault log replay
//!   bit-for-bit from `(seed, policy)`.
//!
//! Endpoints record their per-step events locally and ship them home in
//! their `Final` frames, so the session trace is canonically sorted
//! before it is returned.

use std::net::TcpListener;

use discsp_core::{AgentId, DistributedCsp, Wire};
use discsp_runtime::{
    Activate, Classify, Direct, RouteHook, Steps, Teardown, VirtualConfig, VirtualReport, Wave,
    WaveEngine,
};
use discsp_trace::{canonical_sort, RuntimeKind, TraceSink};

use crate::frame::{RunFrame, SetupFrame};
use crate::topology::AgentSlice;
use crate::transport::{accept_agents, Deadline, FrameConn};
use crate::{NetConfig, NetError};

/// Maps a socket failure on agent `index`'s connection to that agent.
fn blame(index: usize, error: NetError) -> NetError {
    match error {
        NetError::Io { context, error } => NetError::AgentFailed {
            index: index as u32,
            detail: format!("i/o failure while {context}: {error}"),
        },
        other => other,
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
/// agent's statistics into a single report.
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
) -> Result<VirtualReport, NetError>
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

    let engine_config = VirtualConfig {
        seed: config.seed,
        link: config.link,
        schedule: None,
        max_ticks: config.max_ticks,
        max_nudges: config.max_nudges,
        stop_on_first_solution: config.stop_on_first_solution,
        record_trace: config.record_trace,
    };
    let engine = WaveEngine::<M, _, _>::new(
        Endpoints { conns },
        Direct,
        problem,
        &engine_config,
        RuntimeKind::Net,
    );
    let mut report = engine.run(problem)?;
    canonical_sort(&mut report.trace);
    Ok(report)
}

/// The agent endpoints as a wave-engine backend. A wave's frames go out
/// to every agent it involves before any reply is read, so the agents
/// step concurrently; replies are read and reported in ascending index
/// order.
struct Endpoints {
    conns: Vec<FrameConn>,
}

impl Endpoints {
    /// Reads one `Step` reply per recipient and reports it.
    fn collect<M: Wire + Classify + Clone, H: RouteHook<M>>(
        &mut self,
        recipients: impl IntoIterator<Item = usize>,
        steps: &mut Steps<'_, M, H>,
    ) -> Result<(), NetError> {
        for index in recipients {
            let conn = conn_at(&mut self.conns, index)?;
            match conn.recv::<RunFrame<M>>().map_err(|e| blame(index, e))? {
                RunFrame::Step {
                    out,
                    checks,
                    assignments,
                    insoluble,
                } => steps.step(checks, assignments, insoluble, out)?,
                _ => return Err(NetError::UnexpectedFrame { expected: "Step" }),
            }
        }
        Ok(())
    }

    fn broadcast<M: Wire>(&mut self, frame: &RunFrame<M>) -> Result<(), NetError> {
        for conn in self.conns.iter_mut() {
            conn.send(frame)?;
        }
        Ok(())
    }
}

impl<M: Wire + Classify + Clone> Activate<M> for Endpoints {
    type Error = NetError;

    fn population(&self) -> usize {
        self.conns.len()
    }

    fn activate<H: RouteHook<M>>(
        &mut self,
        wave: Wave<M>,
        steps: &mut Steps<'_, M, H>,
    ) -> Result<(), NetError> {
        let n = self.conns.len();
        match wave {
            Wave::Start => {
                self.broadcast(&RunFrame::<M>::Start)?;
                self.collect(0..n, steps)
            }
            Wave::Nudge { tick } => {
                self.broadcast(&RunFrame::<M>::Nudge { tick })?;
                self.collect(0..n, steps)
            }
            Wave::Deliver { tick, inboxes } => {
                let mut recipients = Vec::with_capacity(inboxes.len());
                for (recipient, msgs) in inboxes {
                    conn_at(&mut self.conns, recipient)?.send(&RunFrame::Deliver { tick, msgs })?;
                    recipients.push(recipient);
                }
                self.collect(recipients, steps)
            }
        }
    }

    fn finish(&mut self, end: &mut Teardown<'_>) -> Result<(), NetError> {
        self.broadcast(&RunFrame::<M>::Stop)?;
        for (index, conn) in self.conns.iter_mut().enumerate() {
            match conn.recv::<RunFrame<M>>().map_err(|e| blame(index, e))? {
                RunFrame::Final {
                    stats,
                    leftover_checks,
                    trace,
                } => {
                    end.agent(AgentId::new(index as u32), leftover_checks, stats);
                    for event in trace {
                        end.sink().record(event);
                    }
                }
                _ => return Err(NetError::UnexpectedFrame { expected: "Final" }),
            }
        }
        Ok(())
    }
}
