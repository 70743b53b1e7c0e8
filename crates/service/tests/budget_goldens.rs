//! Golden pin for budgeted sessions.
//!
//! A session with a finite in-flight budget parks sends in its overflow
//! queue and re-admits them FIFO as the router drains, so its run has no
//! `solve_virtual` twin to be compared against. Instead, each budgeted
//! run is reduced to an FNV-1a digest of everything it reports —
//! metrics, solution, ticks, activations, nudges, waves, the overflow
//! high-water mark, and the full event trace — and the digests are
//! pinned in `budget_goldens.txt`. A change to how the overflow queue
//! plugs into the wave loop shows up here as a digest mismatch. The
//! pinned `overflow_peak` values show the small budgets do park.

use discsp_awc::AwcConfig;
use discsp_core::{Assignment, Value};
use discsp_dba::WeightMode;
use discsp_net::AlgoSpec;
use discsp_probgen::{coloring_to_discsp, paper_coloring};
use discsp_runtime::{LinkPolicy, VirtualConfig};
use discsp_service::{build_pump, SessionPoll, SessionSpec};
use discsp_trace::event_to_json;

const BUDGETS: [u64; 3] = [1, 2, 48];
const INSTANCES: [u64; 2] = [3, 8];

fn spec(algo: AlgoSpec, instance: u64) -> SessionSpec {
    let problem =
        coloring_to_discsp(&paper_coloring(10, 200 + instance)).expect("coloring encodes");
    SessionSpec {
        problem,
        init: Assignment::total((0..10).map(|_| Value::new(0))),
        algo,
        config: VirtualConfig {
            seed: 0xB0D6 ^ instance,
            link: LinkPolicy::lossy(150_000).with_delay(0, 2),
            record_trace: true,
            ..VirtualConfig::default()
        },
    }
}

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        // Field separator, so adjacent fields cannot alias.
        self.0 ^= 0xFF;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
    }

    fn text(&mut self, text: &str) {
        self.bytes(text.as_bytes());
    }
}

/// Runs one budgeted session to completion and renders its golden line.
fn golden_line(label: &str, algo: AlgoSpec, instance: u64, budget: u64) -> String {
    let mut pump = build_pump(&spec(algo, instance), budget).expect("pump");
    while pump.poll().expect("poll") == SessionPoll::Running {}
    let waves = pump.waves();
    let overflow_peak = pump.overflow_peak();
    let report = pump.take_report().expect("finished session has a report");
    let mut fnv = Fnv(0xCBF2_9CE4_8422_2325);
    fnv.text(&format!("{:?}", report.outcome.metrics));
    fnv.text(&format!("{:?}", report.outcome.solution));
    for event in &report.trace {
        fnv.text(&event_to_json(event));
    }
    format!(
        "{label} instance={instance} budget={budget} termination={:?} ticks={} activations={} \
         nudges={} waves={waves} overflow_peak={overflow_peak} events={} digest={:016x}",
        report.outcome.metrics.termination,
        report.ticks,
        report.activations,
        report.nudges,
        report.trace.len(),
        fnv.0,
    )
}

#[test]
fn budgeted_sessions_match_their_pinned_digests() {
    let mut lines = Vec::new();
    for instance in INSTANCES {
        for budget in BUDGETS {
            lines.push(golden_line(
                "awc-rslv",
                AlgoSpec::Awc(AwcConfig::resolvent()),
                instance,
                budget,
            ));
            lines.push(golden_line(
                "dba",
                AlgoSpec::Dba(WeightMode::PerNogood),
                instance,
                budget,
            ));
        }
    }
    let actual = lines.join("\n");
    let pinned = include_str!("budget_goldens.txt").trim_end();
    assert_eq!(
        actual, pinned,
        "budgeted session digests moved; actual lines:\n{actual}"
    );
}
