//! Golden metric-fidelity tests.
//!
//! The paper's reproduced outputs are check counts (`maxcck`), cycle
//! counts, and message counts. Performance work on the nogood store is
//! only admissible if it leaves these *bit-identical*: the store may
//! evaluate incrementally in wall-clock terms, but it must charge
//! exactly the checks the paper's naive scanning algorithm would
//! perform. The values below were recorded from the naive full-scan
//! implementation (pre-index, pre-cache) and pin that contract down —
//! if any of these tests fails after a store or hot-loop change, the
//! change altered the reproduction, not just its speed.

use discsp_awc::AwcConfig;
use discsp_bench::trial::run_cell;
use discsp_bench::{Algorithm, Family, Protocol};
use discsp_core::RunMetrics;
use discsp_dba::WeightMode;

/// One trial's pinned metrics:
/// (cycles, maxcck, total_checks, ok, nogood, other, nogoods_generated).
type Golden = (u64, u64, u64, u64, u64, u64, u64);

fn protocol() -> Protocol {
    Protocol {
        instances: 2,
        inits: 2,
        cycle_limit: 2_000,
        master_seed: 7,
    }
}

fn observed(family: Family, n: u32, algorithm: Algorithm) -> Vec<Golden> {
    run_cell(family, n, algorithm, &protocol())
        .iter()
        .map(|m: &RunMetrics| {
            (
                m.cycles,
                m.maxcck,
                m.total_checks,
                m.ok_messages,
                m.nogood_messages,
                m.other_messages,
                m.nogoods_generated,
            )
        })
        .collect()
}

fn check(family: Family, n: u32, algorithm: Algorithm, golden: &[Golden]) {
    let observed = observed(family, n, algorithm);
    assert_eq!(
        observed,
        golden,
        "metric drift on {family:?} n={n} {}: the reproduction changed, \
         not just its wall-clock speed",
        algorithm.label()
    );
}

#[test]
fn coloring_awc_resolvent() {
    check(
        Family::Coloring,
        15,
        Algorithm::Awc(AwcConfig::resolvent()),
        &[
            (10, 949, 3649, 437, 47, 50, 16),
            (7, 660, 2518, 287, 48, 52, 16),
            (7, 566, 2351, 286, 33, 20, 11),
            (9, 1011, 4259, 493, 72, 54, 24),
        ],
    );
}

#[test]
fn coloring_awc_mcs() {
    check(
        Family::Coloring,
        15,
        Algorithm::Awc(AwcConfig::mcs()),
        &[
            (10, 2218, 6469, 437, 47, 50, 16),
            (7, 1749, 5263, 287, 48, 52, 16),
            (7, 1259, 4160, 286, 33, 20, 11),
            (9, 2682, 8789, 491, 70, 52, 24),
        ],
    );
}

#[test]
fn coloring_db() {
    check(
        Family::Coloring,
        15,
        Algorithm::Db(WeightMode::PerNogood),
        &[
            (29, 1008, 10332, 1230, 0, 1148, 0),
            (17, 576, 5904, 738, 0, 656, 0),
            (13, 432, 4428, 574, 0, 492, 0),
            (33, 1152, 11808, 1394, 0, 1312, 0),
        ],
    );
}

#[test]
fn sat_awc_resolvent() {
    check(
        Family::Sat,
        12,
        Algorithm::Awc(AwcConfig::resolvent()),
        &[
            (25, 1523, 3748, 698, 113, 4, 32),
            (11, 566, 1593, 429, 62, 4, 17),
            (24, 1485, 3519, 685, 113, 6, 33),
            (4, 105, 318, 174, 8, 2, 2),
        ],
    );
}

#[test]
fn sat_awc_mcs() {
    check(
        Family::Sat,
        12,
        Algorithm::Awc(AwcConfig::mcs()),
        &[
            (25, 4927, 8383, 698, 107, 4, 32),
            (11, 1824, 3933, 417, 52, 4, 16),
            (24, 5549, 8861, 685, 109, 6, 33),
            (4, 211, 534, 174, 8, 2, 2),
        ],
    );
}

/// A forget limit the stores never reach must be a perfect no-op: the
/// forgetting pass runs every review but evicts nothing, so every
/// metric stays bit-identical to the paper's configuration. This pins
/// the "forgetting removes work, it must not charge checks" contract
/// from the other side — the mere presence of the pass is unmetered.
#[test]
fn huge_forget_budget_is_metric_identical_to_no_forgetting() {
    for (family, n) in [(Family::Coloring, 15), (Family::Sat, 12)] {
        let plain = observed(family, n, Algorithm::Awc(AwcConfig::resolvent()));
        let forgetful = observed(
            family,
            n,
            Algorithm::Awc(AwcConfig::resolvent().with_forget_limit(1_000_000)),
        );
        assert_eq!(
            plain, forgetful,
            "an unreachable forget limit altered {family:?} metrics — \
             the forgetting pass is not free"
        );
    }
}

/// With an aggressive forget limit the search itself legitimately
/// changes (evicted nogoods may be re-derived), so no tuple is pinned —
/// but the runs must stay deterministic and complete.
#[test]
fn aggressive_forgetting_is_deterministic() {
    let algorithm = Algorithm::Awc(AwcConfig::resolvent().with_forget_limit(4));
    let first = observed(Family::Coloring, 15, algorithm);
    let replay = observed(Family::Coloring, 15, algorithm);
    assert_eq!(
        first, replay,
        "forgetting-enabled replay diverged — eviction is not deterministic"
    );
    assert_eq!(first.len(), 4, "the 2x2 protocol cell must yield 4 runs");
}

#[test]
fn sat_db() {
    check(
        Family::Sat,
        12,
        Algorithm::Db(WeightMode::PerNogood),
        &[
            (13, 252, 1872, 854, 0, 732, 0),
            (5, 84, 624, 366, 0, 244, 0),
            (9, 136, 1248, 600, 0, 480, 0),
            (17, 272, 2496, 1080, 0, 960, 0),
        ],
    );
}
