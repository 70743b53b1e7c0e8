//! Answer checking, report comparison and the outcome digest fields.

use discsp_core::{DistributedCsp, Termination, TrialOutcome};
use discsp_runtime::VirtualReport;

use crate::stats::Digest;

/// How one operation ended, as far as correctness is concerned.
pub enum Verdict {
    /// Solved with an assignment that satisfies every constraint.
    Solved,
    /// Hit its cycle or tick limit, or stalled past its nudge budget.
    CutOff,
    /// A wrong answer: an invalid solution, or insoluble on an instance
    /// generated soluble.
    Wrong(String),
}

pub fn verdict(problem: &DistributedCsp, outcome: &TrialOutcome) -> Verdict {
    match (outcome.metrics.termination, &outcome.solution) {
        (Termination::Solved, Some(solution)) if problem.is_solution(solution) => Verdict::Solved,
        (Termination::Solved, _) => {
            Verdict::Wrong("reported Solved without a valid solution".into())
        }
        (Termination::Insoluble, _) => {
            Verdict::Wrong("reported Insoluble on an instance generated soluble".into())
        }
        (Termination::CutOff, _) => Verdict::CutOff,
    }
}

/// Folds one operation into the digest: termination, cycles (ticks),
/// maxcck and agent activations.
pub fn digest_outcome(digest: &mut Digest, outcome: &TrialOutcome, activations: u64) {
    let m = &outcome.metrics;
    digest.add(match m.termination {
        Termination::Solved => 0,
        Termination::Insoluble => 1,
        Termination::CutOff => 2,
    });
    digest.add(m.cycles);
    digest.add(m.maxcck);
    digest.add(activations);
}

/// The first field in which two reports of the same run differ. The
/// trace is compared only when both runs recorded one.
pub fn report_diff(a: &VirtualReport, b: &VirtualReport) -> Option<&'static str> {
    if a.outcome != b.outcome {
        Some("outcome")
    } else if a.ticks != b.ticks {
        Some("ticks")
    } else if a.activations != b.activations {
        Some("activations")
    } else if a.nudges != b.nudges {
        Some("nudges")
    } else if a.fault_log != b.fault_log {
        Some("fault_log")
    } else if !a.trace.is_empty() && !b.trace.is_empty() && a.trace != b.trace {
        Some("trace")
    } else {
        None
    }
}
