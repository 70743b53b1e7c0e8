//! The per-layer metrics of a traced run, and the end-to-end metric set.
//!
//! Every run prints the same metric names whatever the workload; a layer
//! a workload does not touch reads 0 (paper-sync never routes, only
//! service-mix has a service). Which workload each layer is read on is
//! documented in `perfbench/README.md`.

use crate::replay::RouterLedger;
use crate::timed::{covered_ns, Tally};

/// One metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Agent, store, learning and executor totals over the traced runs of a
/// workload, built from [`Tally`]s and the run spans around them.
#[derive(Debug, Default)]
pub struct Traced {
    run_ns: u64,
    covered_ns: u64,
    tally: Tally,
    waves: u64,
    nudges: u64,
}

impl Traced {
    /// Adds one executor run spanning `[lo, hi)` on the ledger clock,
    /// with everything its wrapped agents reported.
    pub fn add_run(&mut self, lo: u64, hi: u64, mut tally: Tally, waves: u64, nudges: u64) {
        self.run_ns += hi.saturating_sub(lo);
        self.covered_ns += covered_ns(&tally.spans, lo, hi);
        tally.spans = Vec::new();
        self.tally.absorb(tally);
        self.waves += waves;
        self.nudges += nudges;
    }

    /// Total executor run time in seconds.
    pub fn run_s(&self) -> f64 {
        self.run_ns as f64 / 1e9
    }
}

/// Every per-layer metric. Fields a workload does not fill stay 0.
#[derive(Debug, Default)]
pub struct Layers {
    pub gen_s: f64,
    pub build_s: f64,
    pub traced: Traced,
    pub router: RouterLedger,
    pub service_sweeps: u64,
    pub sweep_us: Vec<f64>,
    pub submit_us: Vec<f64>,
    pub service_busy_share: f64,
    pub pending_peak: u64,
    pub latency_sweeps: Vec<f64>,
    pub session_ms_p99: f64,
    pub max_rate_at_slo: f64,
    pub late_ms_max: f64,
    pub trace_overhead: f64,
}

impl Layers {
    pub fn metrics(&self) -> Vec<Metric> {
        let t = &self.traced;
        let a = &t.tally;
        let generated = a.stats.nogoods_generated as f64;
        let useful = generated - a.stats.redundant_nogoods as f64;
        let self_ns = t.run_ns.saturating_sub(t.covered_ns) as f64;
        let r = &self.router;
        vec![
            ("probgen.gen_s", self.gen_s, "s"),
            ("build.agents_s", self.build_s, "s"),
            ("agent.busy_s", a.busy_ns as f64 / 1e9, "s"),
            (
                "agent.busy_share",
                ratio(t.covered_ns as f64, t.run_ns as f64),
                "ratio",
            ),
            ("agent.activations", a.activations as f64, "count"),
            (
                "agent.ns_per_activation",
                ratio(a.busy_ns as f64, a.activations as f64),
                "ns",
            ),
            ("agent.msgs_out", a.msgs_out as f64, "count"),
            ("store.checks", a.checks as f64, "count"),
            (
                "store.ns_per_check",
                ratio(a.busy_ns as f64, a.checks as f64),
                "ns",
            ),
            ("store.nogoods_held", a.held as f64, "count"),
            ("learn.nogoods", generated, "count"),
            ("learn.useful_ratio", ratio(useful, generated), "ratio"),
            ("learn.max_size", a.stats.largest_nogood as f64, "count"),
            ("learn.forgotten", a.forgotten as f64, "count"),
            ("executor.self_s", self_ns / 1e9, "s"),
            (
                "executor.self_share",
                ratio(self_ns, t.run_ns as f64),
                "ratio",
            ),
            ("executor.waves", t.waves as f64, "count"),
            ("executor.nudges", t.nudges as f64, "count"),
            ("router.routed", r.routed as f64, "count"),
            (
                "router.route_ns",
                ratio(r.route_ns as f64, r.routed as f64),
                "ns",
            ),
            (
                "router.take_due_ns",
                ratio(r.take_due_ns as f64, r.take_dues as f64),
                "ns",
            ),
            ("router.queue_peak", r.queue_peak as f64, "count"),
            ("router.retransmitted", r.retransmitted as f64, "count"),
            ("service.sweeps", self.service_sweeps as f64, "count"),
            (
                "service.sweep_us_p50",
                crate::stats::median(&self.sweep_us),
                "us",
            ),
            (
                "service.sweep_us_p99",
                crate::stats::tail(&self.sweep_us),
                "us",
            ),
            (
                "service.submit_us_p50",
                crate::stats::median(&self.submit_us),
                "us",
            ),
            ("service.busy_share", self.service_busy_share, "ratio"),
            ("service.pending_peak", self.pending_peak as f64, "count"),
            (
                "service.latency_sweeps_p99",
                crate::stats::tail(&self.latency_sweeps),
                "sweeps",
            ),
            ("service.session_ms_p99", self.session_ms_p99, "ms"),
            ("service.max_rate_at_slo", self.max_rate_at_slo, "1/s"),
            ("loadgen.late_ms_max", self.late_ms_max, "ms"),
            ("trace.overhead", self.trace_overhead, "ratio"),
        ]
    }
}
