//! Distributed-system substrates for DisCSP algorithms.
//!
//! Every executor runs the same [`DistributedAgent`] implementations and
//! is deterministic: a failing `(seed, LinkPolicy)` pair replays
//! bit-identically.
//!
//! * [`SyncSimulator`] — the synchronous cycle simulator the paper uses
//!   for all measurements (§4): per cycle, every agent reads its inbox,
//!   computes, and sends; `cycle` and `maxcck` metrics are collected here.
//! * [`run_virtual`] — a single-threaded discrete-event executor over the
//!   same agents and the [`Link`] fault layer, whose delay and
//!   reordering policies model the paper's fully asynchronous system.
//! * [`run_sharded`] — the M:N sharded executor: `run_virtual`'s
//!   deterministic semantics with agent activations fanned out to a
//!   fixed pool of worker threads owning slab-pooled per-shard arenas.
//!   Bit-identical to `run_virtual` for any worker count.
//!
//! These, the solve service's sessions and the networked coordinator
//! are adapters over one resumable [`WaveEngine`] with different
//! [`Activate`] backends and clocks, so they share every line of wave
//! accounting, termination and teardown.
//!
//! The [`link`](crate::Link) layer injects seeded drop, duplication,
//! delay, and reordering faults into the wave engine's traffic, with
//! per-link [`SplitMix64`] streams derived from the run seed
//! ([`derive_link_seed`]).
//!
//! Plus deterministic seed derivation ([`SplitMix64`], [`derive_seed`])
//! shared by the experiment harnesses.
//!
//! Every runtime records through the [`TraceSink`] pipeline from
//! `discsp-trace` (re-exported here): the same event schema is emitted
//! by all executors, so traces are schema-comparable across runtimes
//! and auditable with `discsp-trace audit`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agent;
mod engine;
mod error;
mod link;
mod message;
mod pool;
mod recorder;
mod router;
#[cfg(test)]
mod router_model;
mod schedule;
mod seed;
mod shard;
mod sync;
mod wire;

pub use agent::{AgentNote, AgentStats, DistributedAgent, Outbox};
pub use discsp_trace::{
    canonical_sort, render_trace, FaultKind, NullSink, RingBuffer, RuntimeKind, TraceEvent,
    TraceSink,
};
pub use engine::{Activate, Direct, InProcess, RouteHook, Steps, Teardown, Wave, WaveEngine};
pub use error::RuntimeError;
pub use link::{
    derive_link_seed, run_virtual, Copies, Link, LinkPolicy, LinkStats, RouteDecision,
    VirtualConfig, VirtualReport, PPM,
};
pub use message::{Classify, Envelope, MessageClass};
pub use pool::{ShardPlan, Slab};
pub use recorder::StepRecorder;
pub use router::Router;
pub use schedule::{FaultAction, FaultEvent, FaultSchedule, ScheduleParseError};
pub use seed::{derive_seed, SplitMix64};
pub use shard::{run_sharded, ShardConfig};
pub use sync::{CycleRecord, SyncRun, SyncSimulator};
