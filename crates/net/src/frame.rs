//! Protocol frames.
//!
//! Every v3 frame travels as `[u32 length ‖ version ‖ tag ‖ session:u64
//! ‖ body]`: the length prefix is added by the transport
//! ([`FrameConn`]), while the version byte, tag, and session ID are part
//! of the frame encoding itself, so a captured frame is
//! self-describing. The protocol has three strict phases with disjoint
//! tag spaces:
//!
//! * **setup** ([`SetupFrame`], tags 0–1): `Hello` (agent → coordinator)
//!   and `Assign` (coordinator → agent), exchanged once per connection;
//! * **run** ([`RunFrame`], tags 2–7): `Start`/`Deliver`/`Nudge`/`Stop`
//!   from the coordinator, answered by `Step`/`Final` from the agent;
//! * **service** ([`ServiceFrame`], tags 8–15): the multi-session solve
//!   service's request/response vocabulary (see [`crate::service`]).
//!
//! Decoding a frame from the wrong phase fails with a typed
//! [`WireError::BadTag`] — a desynchronized peer is detected at the
//! first frame, not after undefined behavior.
//!
//! ## Versioning and the session ID
//!
//! Version 3 inserts a `u64` session ID between the tag and the body so
//! one connection can interleave frames of many concurrent sessions
//! (the multi-session solve service). Decoding stays backward
//! compatible: a v2 frame (`[2 ‖ tag ‖ body]`, no session field) is
//! accepted and reads as session 0, the reserved ID for single-session
//! peers. Encoding always emits v3. The session-aware entry points are
//! [`MuxWire::encode_mux`]/[`MuxWire::decode_mux`] and the [`Mux`]
//! wrapper; the plain [`Wire`] impls delegate to them with session 0,
//! so existing single-session code is untouched.
//!
//! [`FrameConn`]: crate::transport::FrameConn
//! [`ServiceFrame`]: crate::service::ServiceFrame

use discsp_core::{VarValue, Wire, WireError, WireReader};
use discsp_runtime::{AgentStats, Envelope, LinkPolicy};
use discsp_trace::TraceEvent;

use crate::topology::AgentSlice;

/// Version byte carried by every frame. Bump on any incompatible change
/// to a frame layout or to the encoding of a type inside one.
/// Version 2 added `record_trace` to `Assign`, the virtual tick to
/// `Deliver`/`Nudge`, and the agent's event trace to `Final`.
/// Version 3 added the `u64` session ID to the header (decode still
/// accepts v2 frames as session 0).
pub const WIRE_VERSION: u8 = 3;

/// The oldest frame version `decode` still accepts. v2 frames carry no
/// session field and decode as [`SESSION_NONE`].
pub const MIN_WIRE_VERSION: u8 = 2;

/// The session ID implied by a v2 frame and used by single-session
/// peers: "not multiplexed".
pub const SESSION_NONE: u64 = 0;

/// Upper bound on one frame's encoded body, enforced on both send and
/// receive: a corrupt length prefix must not provoke a gigabyte
/// allocation.
pub const MAX_FRAME_LEN: u64 = 16 * 1024 * 1024;

pub(crate) fn encode_header(tag: u8, session: u64, out: &mut Vec<u8>) {
    out.push(WIRE_VERSION);
    out.push(tag);
    session.encode(out);
}

pub(crate) fn decode_header(
    r: &mut WireReader<'_>,
    context: &'static str,
) -> Result<(u8, u64), WireError> {
    let version = r.u8(context)?;
    if !(MIN_WIRE_VERSION..=WIRE_VERSION).contains(&version) {
        return Err(WireError::BadVersion {
            got: version,
            expected: WIRE_VERSION,
        });
    }
    let tag = r.u8(context)?;
    let session = if version >= 3 {
        r.u64(context)?
    } else {
        SESSION_NONE
    };
    Ok((tag, session))
}

/// Frame types that carry a session ID in their v3 header.
///
/// Implementors encode as `[version ‖ tag ‖ session ‖ body]`; the plain
/// [`Wire`] impl on the same type delegates here with
/// [`SESSION_NONE`], so session-oblivious peers interoperate for free.
pub trait MuxWire: Sized {
    /// Encodes the frame with an explicit session ID in the header.
    fn encode_mux(&self, session: u64, out: &mut Vec<u8>);

    /// Decodes a frame, returning the session ID from its header
    /// ([`SESSION_NONE`] for v2 frames).
    fn decode_mux(r: &mut WireReader<'_>) -> Result<(u64, Self), WireError>;
}

/// A frame paired with its session ID, for connections that interleave
/// sessions. `Mux<F>` is itself [`Wire`], so it flows through
/// [`FrameConn`] unchanged.
///
/// [`FrameConn`]: crate::transport::FrameConn
#[derive(Debug, Clone, PartialEq)]
pub struct Mux<F> {
    /// The session this frame belongs to.
    pub session: u64,
    /// The frame itself.
    pub frame: F,
}

impl<F> Mux<F> {
    /// Pairs a frame with a session ID.
    pub fn new(session: u64, frame: F) -> Self {
        Mux { session, frame }
    }
}

impl<F: MuxWire> Wire for Mux<F> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.frame.encode_mux(self.session, out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let (session, frame) = F::decode_mux(r)?;
        Ok(Mux { session, frame })
    }
}

/// Handshake-phase frames.
#[derive(Debug, Clone, PartialEq)]
pub enum SetupFrame {
    /// Agent → coordinator: claims a slot in the population.
    Hello {
        /// The agent's index in `0..n`.
        index: u32,
    },
    /// Coordinator → agent: ships the agent its slice of the problem
    /// plus the session parameters, completing the handshake.
    Assign {
        /// Population size.
        n_agents: u32,
        /// The run seed (documents the session; faults are injected on
        /// the coordinator's relay path, not by agents).
        seed: u64,
        /// The link fault policy in force on the relay path.
        policy: LinkPolicy,
        /// Whether the agent should record its local event trace and
        /// ship it home in `Final`.
        record_trace: bool,
        /// This agent's slice of the problem.
        slice: AgentSlice,
    },
}

impl MuxWire for SetupFrame {
    fn encode_mux(&self, session: u64, out: &mut Vec<u8>) {
        match self {
            SetupFrame::Hello { index } => {
                encode_header(0, session, out);
                index.encode(out);
            }
            SetupFrame::Assign {
                n_agents,
                seed,
                policy,
                record_trace,
                slice,
            } => {
                encode_header(1, session, out);
                n_agents.encode(out);
                seed.encode(out);
                policy.encode(out);
                record_trace.encode(out);
                slice.encode(out);
            }
        }
    }

    fn decode_mux(r: &mut WireReader<'_>) -> Result<(u64, Self), WireError> {
        let (tag, session) = decode_header(r, "SetupFrame")?;
        let frame = match tag {
            0 => Ok(SetupFrame::Hello {
                index: r.u32("SetupFrame.Hello.index")?,
            }),
            1 => {
                let n_agents = r.u32("SetupFrame.Assign.n_agents")?;
                let seed = r.u64("SetupFrame.Assign.seed")?;
                let policy = LinkPolicy::decode(r)?;
                let record_trace = bool::decode(r)?;
                let slice = AgentSlice::decode(r)?;
                Ok(SetupFrame::Assign {
                    n_agents,
                    seed,
                    policy,
                    record_trace,
                    slice,
                })
            }
            tag => Err(WireError::BadTag {
                context: "SetupFrame",
                tag,
            }),
        }?;
        Ok((session, frame))
    }
}

impl Wire for SetupFrame {
    fn encode(&self, out: &mut Vec<u8>) {
        self.encode_mux(SESSION_NONE, out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let (_session, frame) = Self::decode_mux(r)?;
        Ok(frame)
    }
}

/// Run-phase frames, generic over the algorithm's message type.
#[derive(Debug, Clone, PartialEq)]
pub enum RunFrame<M> {
    /// Coordinator → agent: announce your initial state.
    Start,
    /// Coordinator → agent: a batch of messages due this virtual tick.
    Deliver {
        /// The virtual tick the batch is delivered at, so the agent can
        /// timestamp its trace events on the coordinator's clock.
        tick: u64,
        /// The batch, in deterministic enqueue order.
        msgs: Vec<Envelope<M>>,
    },
    /// Coordinator → agent: the system stalled; re-announce your state
    /// so views staled by lost traffic heal.
    Nudge {
        /// The virtual tick of the recovery pass.
        tick: u64,
    },
    /// Agent → coordinator: the reply to `Start`/`Deliver`/`Nudge`.
    Step {
        /// Messages the agent sent this activation.
        out: Vec<Envelope<M>>,
        /// Nogood checks performed since the last step.
        checks: u64,
        /// The agent's current assignments (consistent-snapshot input).
        assignments: Vec<VarValue>,
        /// Whether the agent derived the empty nogood.
        insoluble: bool,
    },
    /// Coordinator → agent: the session is over; send `Final` and exit.
    Stop,
    /// Agent → coordinator: end-of-run statistics, so metrics
    /// aggregation survives the process boundary.
    Final {
        /// The agent's accumulated learning/messaging statistics.
        stats: AgentStats,
        /// Checks performed since the last `Step` reply.
        leftover_checks: u64,
        /// The agent's local event stream (steps, value/priority
        /// changes, learned nogoods), empty unless `Assign` requested
        /// recording. The coordinator merges it with the router's
        /// link-level events into the session trace.
        trace: Vec<TraceEvent>,
    },
}

impl<M: Wire> MuxWire for RunFrame<M> {
    fn encode_mux(&self, session: u64, out: &mut Vec<u8>) {
        match self {
            RunFrame::Start => encode_header(2, session, out),
            RunFrame::Deliver { tick, msgs } => {
                encode_header(3, session, out);
                tick.encode(out);
                msgs.encode(out);
            }
            RunFrame::Nudge { tick } => {
                encode_header(4, session, out);
                tick.encode(out);
            }
            RunFrame::Step {
                out: sent,
                checks,
                assignments,
                insoluble,
            } => {
                encode_header(5, session, out);
                sent.encode(out);
                checks.encode(out);
                assignments.encode(out);
                insoluble.encode(out);
            }
            RunFrame::Stop => encode_header(6, session, out),
            RunFrame::Final {
                stats,
                leftover_checks,
                trace,
            } => {
                encode_header(7, session, out);
                stats.encode(out);
                leftover_checks.encode(out);
                trace.encode(out);
            }
        }
    }

    fn decode_mux(r: &mut WireReader<'_>) -> Result<(u64, Self), WireError> {
        let (tag, session) = decode_header(r, "RunFrame")?;
        let frame = match tag {
            2 => Ok(RunFrame::Start),
            3 => Ok(RunFrame::Deliver {
                tick: r.u64("RunFrame.Deliver.tick")?,
                msgs: Vec::<Envelope<M>>::decode(r)?,
            }),
            4 => Ok(RunFrame::Nudge {
                tick: r.u64("RunFrame.Nudge.tick")?,
            }),
            5 => {
                let out = Vec::<Envelope<M>>::decode(r)?;
                let checks = r.u64("RunFrame.Step.checks")?;
                let assignments = Vec::<VarValue>::decode(r)?;
                let insoluble = bool::decode(r)?;
                Ok(RunFrame::Step {
                    out,
                    checks,
                    assignments,
                    insoluble,
                })
            }
            6 => Ok(RunFrame::Stop),
            7 => {
                let stats = AgentStats::decode(r)?;
                let leftover_checks = r.u64("RunFrame.Final.leftover_checks")?;
                let trace = Vec::<TraceEvent>::decode(r)?;
                Ok(RunFrame::Final {
                    stats,
                    leftover_checks,
                    trace,
                })
            }
            tag => Err(WireError::BadTag {
                context: "RunFrame",
                tag,
            }),
        }?;
        Ok((session, frame))
    }
}

impl<M: Wire> Wire for RunFrame<M> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.encode_mux(SESSION_NONE, out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let (_session, frame) = Self::decode_mux(r)?;
        Ok(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use discsp_awc::AwcMessage;
    use discsp_core::{AgentId, Priority, Value, VariableId};

    fn env(from: u32, to: u32) -> Envelope<AwcMessage> {
        Envelope::new(
            AgentId::new(from),
            AgentId::new(to),
            AwcMessage::Ok {
                var: VariableId::new(from),
                value: Value::new(1),
                priority: Priority::new(2),
            },
        )
    }

    #[test]
    fn run_frames_roundtrip() {
        let frames: Vec<RunFrame<AwcMessage>> = vec![
            RunFrame::Start,
            RunFrame::Deliver {
                tick: 12,
                msgs: vec![env(0, 1), env(2, 1)],
            },
            RunFrame::Nudge { tick: 13 },
            RunFrame::Step {
                out: vec![env(1, 0)],
                checks: 17,
                assignments: vec![VarValue::new(VariableId::new(1), Value::new(2))],
                insoluble: false,
            },
            RunFrame::Stop,
            RunFrame::Final {
                stats: AgentStats::default(),
                leftover_checks: 3,
                trace: vec![discsp_trace::TraceEvent::AgentStep {
                    cycle: 12,
                    agent: AgentId::new(1),
                    checks: 17,
                }],
            },
        ];
        for frame in frames {
            let bytes = frame.to_bytes();
            assert_eq!(bytes.first(), Some(&WIRE_VERSION));
            assert_eq!(
                RunFrame::<AwcMessage>::from_bytes(&bytes).as_ref(),
                Ok(&frame)
            );
        }
    }

    #[test]
    fn phases_have_disjoint_tags() {
        // A setup frame decoded as a run frame (and vice versa) fails
        // with BadTag, never misparses.
        let hello = SetupFrame::Hello { index: 3 }.to_bytes();
        assert!(matches!(
            RunFrame::<AwcMessage>::from_bytes(&hello),
            Err(WireError::BadTag {
                context: "RunFrame",
                ..
            })
        ));
        let start = RunFrame::<AwcMessage>::Start.to_bytes();
        assert!(matches!(
            SetupFrame::from_bytes(&start),
            Err(WireError::BadTag {
                context: "SetupFrame",
                ..
            })
        ));
    }

    #[test]
    fn version_mismatch_is_rejected() {
        for bad in [WIRE_VERSION + 1, MIN_WIRE_VERSION - 1, 0] {
            let mut bytes = RunFrame::<AwcMessage>::Start.to_bytes();
            if let Some(first) = bytes.first_mut() {
                *first = bad;
            }
            assert_eq!(
                RunFrame::<AwcMessage>::from_bytes(&bytes),
                Err(WireError::BadVersion {
                    got: bad,
                    expected: WIRE_VERSION,
                })
            );
        }
    }

    #[test]
    fn session_id_roundtrips_through_mux() {
        let frame = Mux::new(0xDEAD_BEEF_CAFE_0001, SetupFrame::Hello { index: 7 });
        let bytes = frame.to_bytes();
        assert_eq!(Mux::<SetupFrame>::from_bytes(&bytes).as_ref(), Ok(&frame));

        let run = Mux::new(42, RunFrame::<AwcMessage>::Nudge { tick: 9 });
        let bytes = run.to_bytes();
        assert_eq!(
            Mux::<RunFrame<AwcMessage>>::from_bytes(&bytes).as_ref(),
            Ok(&run)
        );
    }

    #[test]
    fn plain_wire_impls_imply_session_none() {
        let bytes = SetupFrame::Hello { index: 3 }.to_bytes();
        let mux = Mux::<SetupFrame>::from_bytes(&bytes).expect("v3 frame decodes as mux");
        assert_eq!(mux.session, SESSION_NONE);
        assert_eq!(mux.frame, SetupFrame::Hello { index: 3 });
    }

    #[test]
    fn v2_frames_decode_as_session_none() {
        // A hand-built v2 frame: [version=2 ‖ tag ‖ body], no session
        // field. Both the plain and mux decoders must accept it.
        let mut v2 = vec![2u8, 0u8];
        3u32.encode(&mut v2);
        assert_eq!(
            SetupFrame::from_bytes(&v2),
            Ok(SetupFrame::Hello { index: 3 })
        );
        let mux = Mux::<SetupFrame>::from_bytes(&v2).expect("v2 frame decodes as mux");
        assert_eq!(mux.session, SESSION_NONE);
        assert_eq!(mux.frame, SetupFrame::Hello { index: 3 });

        let mut v2 = vec![2u8, 4u8];
        17u64.encode(&mut v2);
        assert_eq!(
            RunFrame::<AwcMessage>::from_bytes(&v2),
            Ok(RunFrame::Nudge { tick: 17 })
        );
    }

    #[test]
    fn truncated_session_field_is_a_typed_error() {
        // A v3 header cut off inside the session ID must fail with
        // Truncated, never panic or misread the body as the session.
        let full = Mux::new(7, RunFrame::<AwcMessage>::Start).to_bytes();
        for len in 0..full.len() {
            assert!(Mux::<RunFrame<AwcMessage>>::from_bytes(&full[..len]).is_err());
        }
    }
}
