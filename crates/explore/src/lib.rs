//! Simulation-campaign explorer for the DisCSP runtimes.
//!
//! The deterministic virtual executor makes every fault-injected run a
//! pure function of `(seed, policy)` — which turns bug hunting into
//! search. This crate industrializes that search, FoundationDB-style:
//!
//! * [`campaign`] — sweeps trials across a deterministic link-policy
//!   grid and planted instances, judging every run against four
//!   independent oracle families (trace audit with the
//!   message-conservation identity split out, answer checks against a
//!   centralized [`Backtracker`](discsp_cspsolve::Backtracker) ground
//!   truth, quiescence/deadlock detection, and bit-exact replay on a
//!   second runtime — the sharded executor or a service session);
//! * [`minimize`] — delta-debugs a failing run's recorded fault log
//!   (every lottery run emits one, replayable as a script) down to a
//!   1-minimal fault set that still shows the same violation class;
//! * [`repro`] — serializes minimized failures as line-oriented
//!   fixture files that rebuild and replay bit-identically from a few
//!   integers, for `tests/explore_repros/`;
//! * [`subject`] — the runnable unit: an algorithm (AWC without
//!   learning, complete AWC with resolvent recording, or distributed
//!   breakout) deployed on an instance with known ground truth;
//! * the `discsp-explore` binary — `discsp-explore --algo awc-rslv
//!   --trials 1000` from CI or the command line.
//!
//! Everything reasons in virtual ticks and derives from explicit
//! seeds: a campaign is as reproducible as a single run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod minimize;
pub mod repro;
pub mod subject;

pub use campaign::{
    minimize_finding, policy_grid, reproduces, run_campaign, violations, CampaignConfig,
    CampaignReport, Finding, Violation, MINIMIZE_EVENT_CAP,
};
pub use minimize::{ddmin, MinimizeOutcome};
pub use repro::Repro;
pub use subject::{Algo, GroundTruth, Instance, Runtime, Subject};

#[doc(hidden)]
pub use subject::Sabotage;
