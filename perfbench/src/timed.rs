//! Outside-in agent timing: a transparent [`DistributedAgent`] wrapper.
//!
//! [`Timed`] delegates every trait method to the wrapped agent and, on the
//! way through, records a wall-clock span per activation plus the counts
//! that cross the trait boundary (checks, outbox growth, notes). Each
//! agent keeps its tally locally — no lock on the activation path — and
//! hands it to the shared [`Ledger`] once, when the runtime drops it, so
//! the wrapper works for executors that consume their agents
//! (`run_virtual`, `run_sharded`) as well as for `SyncSimulator`.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use discsp_awc::{AbtAgent, AwcAgent};
use discsp_core::VarValue;
use discsp_dba::DbaAgent;
use discsp_runtime::{AgentNote, AgentStats, DistributedAgent, Envelope, Outbox};

/// How many nogoods an agent's store holds, read once when the wrapper
/// is dropped.
pub trait Held {
    /// Nogoods currently held (initial constraints plus learned ones).
    fn nogoods_held(&self) -> u64;
}

impl Held for AwcAgent {
    fn nogoods_held(&self) -> u64 {
        self.store().len() as u64
    }
}

impl Held for AbtAgent {
    fn nogoods_held(&self) -> u64 {
        self.store().len() as u64
    }
}

impl Held for DbaAgent {
    /// The breakout learns no nogoods and exposes no store.
    fn nogoods_held(&self) -> u64 {
        0
    }
}

/// What one or more wrapped agents did, summed.
#[derive(Debug, Default)]
pub struct Tally {
    /// Activation spans as `(start, end)` nanoseconds since the ledger's
    /// epoch, from every thread that ran an agent.
    pub spans: Vec<(u64, u64)>,
    /// Time inside `on_start`/`on_batch`/`on_nudge`.
    pub busy_ns: u64,
    /// `on_start` plus `on_batch` calls (the runtimes' activation count).
    pub activations: u64,
    /// `on_nudge` calls.
    pub nudges: u64,
    /// Sum of everything `take_checks` returned.
    pub checks: u64,
    /// Messages the agents queued.
    pub msgs_out: u64,
    /// Learned nogoods evicted, from `NogoodsForgotten` notes.
    pub forgotten: u64,
    /// Nogoods held when the agents were dropped.
    pub held: u64,
    /// The agents' own learning statistics when they were dropped.
    pub stats: AgentStats,
}

impl Tally {
    pub fn absorb(&mut self, other: Tally) {
        self.spans.extend(other.spans);
        self.busy_ns += other.busy_ns;
        self.activations += other.activations;
        self.nudges += other.nudges;
        self.checks += other.checks;
        self.msgs_out += other.msgs_out;
        self.forgotten += other.forgotten;
        self.held += other.held;
        self.stats.absorb(other.stats);
    }
}

/// The shared sink wrapped agents report into, with the clock epoch all
/// their spans are measured from.
#[derive(Debug)]
pub struct Ledger {
    epoch: Instant,
    tally: Mutex<Tally>,
}

impl Ledger {
    /// A fresh ledger whose epoch is now.
    pub fn new() -> Arc<Ledger> {
        Arc::new(Ledger {
            epoch: Instant::now(),
            tally: Mutex::new(Tally::default()),
        })
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Wraps every agent so that it reports here.
    pub fn wrap<A: DistributedAgent + Held>(self: &Arc<Self>, agents: Vec<A>) -> Vec<Timed<A>> {
        agents
            .into_iter()
            .map(|inner| Timed {
                inner,
                ledger: Arc::clone(self),
                tally: Tally::default(),
            })
            .collect()
    }

    /// Takes everything reported so far. Call after the wrapped agents
    /// have been dropped.
    pub fn take(&self) -> Tally {
        std::mem::take(
            &mut *self
                .tally
                .lock()
                .expect("no wrapped agent panics while reporting"),
        )
    }
}

/// A wrapped agent. Behaves exactly like the agent it wraps.
pub struct Timed<A: DistributedAgent + Held> {
    inner: A,
    ledger: Arc<Ledger>,
    tally: Tally,
}

impl<A: DistributedAgent + Held> Timed<A> {
    /// Runs one activation under a span, counting what it queued.
    fn activation(
        &mut self,
        out: &mut Outbox<A::Message>,
        step: impl FnOnce(&mut A, &mut Outbox<A::Message>),
    ) {
        let queued = out.len();
        let start = self.ledger.now_ns();
        step(&mut self.inner, out);
        let end = self.ledger.now_ns();
        self.tally.spans.push((start, end));
        self.tally.busy_ns += end - start;
        self.tally.msgs_out += out.len().saturating_sub(queued) as u64;
    }
}

impl<A: DistributedAgent + Held> DistributedAgent for Timed<A> {
    type Message = A::Message;

    fn id(&self) -> discsp_core::AgentId {
        self.inner.id()
    }

    fn on_start(&mut self, out: &mut Outbox<Self::Message>) {
        self.tally.activations += 1;
        self.activation(out, |agent, out| agent.on_start(out));
    }

    fn on_batch(&mut self, inbox: Vec<Envelope<Self::Message>>, out: &mut Outbox<Self::Message>) {
        self.tally.activations += 1;
        self.activation(out, |agent, out| agent.on_batch(inbox, out));
    }

    fn assignments(&self) -> Vec<VarValue> {
        self.inner.assignments()
    }

    fn take_checks(&mut self) -> u64 {
        let checks = self.inner.take_checks();
        self.tally.checks += checks;
        checks
    }

    fn stats(&self) -> AgentStats {
        self.inner.stats()
    }

    fn detected_insoluble(&self) -> bool {
        self.inner.detected_insoluble()
    }

    fn on_nudge(&mut self, out: &mut Outbox<Self::Message>) {
        self.tally.nudges += 1;
        self.activation(out, |agent, out| agent.on_nudge(out));
    }

    fn current_priority(&self) -> Option<u64> {
        self.inner.current_priority()
    }

    fn drain_notes(&mut self) -> Vec<AgentNote> {
        let notes = self.inner.drain_notes();
        for note in &notes {
            if let AgentNote::NogoodsForgotten { count } = note {
                self.tally.forgotten += count;
            }
        }
        notes
    }
}

impl<A: DistributedAgent + Held> Drop for Timed<A> {
    fn drop(&mut self) {
        let mut tally = std::mem::take(&mut self.tally);
        tally.held = self.inner.nogoods_held();
        tally.stats = self.inner.stats();
        // A poisoned ledger means another agent panicked; that panic is
        // the failure to report, so this tally is dropped silently.
        if let Ok(mut shared) = self.ledger.tally.lock() {
            shared.absorb(tally);
        }
    }
}

/// Nanoseconds of `[lo, hi)` covered by at least one span. Spans may come
/// from several threads and overlap in any way.
pub fn covered_ns(spans: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = spans
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = current {
        covered += ce - cs;
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;
    use discsp_awc::{AwcConfig, AwcSolver};
    use discsp_core::{AgentId, Assignment, DistributedCsp, Value};
    use discsp_dba::DbaSolver;
    use discsp_probgen::{coloring_to_discsp, paper_coloring};
    use discsp_runtime::{
        run_sharded, run_virtual, LinkPolicy, ShardConfig, SyncSimulator, VirtualConfig,
        VirtualReport,
    };

    use crate::check::report_diff;

    fn coloring(n: u32, seed: u64) -> (DistributedCsp, Assignment) {
        let problem = coloring_to_discsp(&paper_coloring(n, seed)).expect("encodes");
        let init = Assignment::total((0..n).map(|_| Value::new(0)));
        (problem, init)
    }

    fn abt_agents(problem: &DistributedCsp, init: &Assignment) -> Vec<AbtAgent> {
        (0..problem.num_agents())
            .map(|a| {
                let id = AgentId::new(a as u32);
                let var = problem.vars_of_agent(id)[0];
                let neighbors = problem
                    .neighbors(var)
                    .iter()
                    .map(|&v| (v, problem.owner(v)))
                    .collect();
                let value = init.get(var).expect("total assignment");
                let nogoods = problem.nogoods_of(var).cloned().collect();
                AbtAgent::new(id, var, problem.domain(var), value, nogoods, neighbors)
            })
            .collect()
    }

    fn config(seed: u64, link: LinkPolicy, stop_on_first_solution: bool) -> VirtualConfig {
        VirtualConfig {
            seed,
            link,
            stop_on_first_solution,
            record_trace: true,
            ..VirtualConfig::default()
        }
    }

    /// Runs `agents` plain and wrapped; the reports, traces included, must
    /// be identical, and the wrapper's counts must match the report's.
    fn assert_transparent<A: DistributedAgent + Held + Send>(
        agents: impl Fn() -> Vec<A>,
        problem: &DistributedCsp,
        config: &VirtualConfig,
    ) -> VirtualReport {
        let plain = run_virtual(agents(), problem, config).expect("plain run");
        let ledger = Ledger::new();
        let wrapped = run_virtual(ledger.wrap(agents()), problem, config).expect("wrapped run");
        assert_eq!(report_diff(&plain, &wrapped), None);
        assert_eq!(plain.trace, wrapped.trace);
        let tally = ledger.take();
        assert_eq!(tally.activations, plain.activations);
        assert_eq!(tally.nudges, plain.nudges * problem.num_agents() as u64);
        assert_eq!(tally.checks, plain.outcome.metrics.total_checks);
        assert_eq!(
            tally.stats.nogoods_generated,
            plain.outcome.metrics.nogoods_generated
        );
        assert_eq!(tally.spans.len() as u64, tally.activations + tally.nudges);

        // The sharded trace differs from the virtual one in its RunEnd
        // runtime stamp only; compare everything else.
        let untraced = VirtualConfig {
            record_trace: false,
            ..config.clone()
        };
        let shard = ShardConfig::with_base(untraced, 2);
        let sharded =
            run_sharded(Ledger::new().wrap(agents()), problem, &shard).expect("sharded run");
        assert_eq!(report_diff(&plain, &sharded), None);
        plain
    }

    #[test]
    fn wrapped_awc_runs_match_plain_ones_on_every_runtime() {
        let (problem, init) = coloring(24, 3);
        let solver = AwcSolver::new(AwcConfig::resolvent().with_forget_limit(4));
        let agents = || solver.build_agents(&problem, &init).expect("builds");
        let report = assert_transparent(agents, &problem, &config(5, LinkPolicy::perfect(), false));
        assert!(
            report.outcome.metrics.nogoods_generated > 0,
            "the run must learn"
        );

        let plain = SyncSimulator::new(agents()).run(&problem).expect("sync");
        let ledger = Ledger::new();
        let wrapped = SyncSimulator::new(ledger.wrap(agents()))
            .run(&problem)
            .expect("sync");
        assert_eq!(plain.outcome, wrapped.outcome);
        assert_eq!(ledger.take().checks, plain.outcome.metrics.total_checks);
    }

    #[test]
    fn wrapped_lossy_awc_run_with_nudges_matches_plain() {
        let (problem, init) = coloring(24, 4);
        let solver = AwcSolver::new(AwcConfig::mcs());
        let agents = || solver.build_agents(&problem, &init).expect("builds");
        let report = assert_transparent(
            agents,
            &problem,
            &config(9, LinkPolicy::lossy(200_000), false),
        );
        assert!(report.nudges > 0, "the lossy run must exercise on_nudge");
        assert!(report.outcome.metrics.messages_retransmitted > 0);
    }

    #[test]
    fn wrapped_dba_and_abt_runs_match_plain_ones() {
        let (problem, init) = coloring(24, 5);
        let dba = || {
            DbaSolver::new()
                .build_agents(&problem, &init)
                .expect("builds")
        };
        assert_transparent(dba, &problem, &config(2, LinkPolicy::perfect(), true));
        let abt = || abt_agents(&problem, &init);
        let report = assert_transparent(abt, &problem, &config(2, LinkPolicy::perfect(), false));
        assert!(report.outcome.solution.is_some());
    }

    #[test]
    fn covered_time_is_the_union_of_spans_from_two_threads() {
        // Thread A: [0,10) [20,30); thread B: [5,25) [40,50); run [0,60).
        let spans = [(0, 10), (20, 30), (5, 25), (40, 50)];
        assert_eq!(covered_ns(&spans, 0, 60), 40);
        // Clipped to the run span [8, 45).
        assert_eq!(covered_ns(&spans, 8, 45), 22 + 5);
        // Touching spans merge without double counting.
        assert_eq!(covered_ns(&[(0, 5), (5, 9)], 0, 20), 9);
        assert_eq!(covered_ns(&[], 0, 20), 0);
    }

    #[test]
    fn spans_recorded_on_two_threads_share_one_clock() {
        let ledger = Ledger::new();
        let barrier = std::sync::Barrier::new(2);
        let lo = ledger.now_ns();
        let spans: Vec<(u64, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        let start = ledger.now_ns();
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        (start, ledger.now_ns())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("thread"))
                .collect()
        });
        let hi = ledger.now_ns();
        let busy: u64 = spans.iter().map(|&(s, e)| e - s).sum();
        let covered = covered_ns(&spans, lo, hi);
        // Both threads slept at once after the barrier: the union is far
        // less than the sum, and no longer than the longer span plus the
        // gap between their starts.
        let longest = spans.iter().map(|&(s, e)| e - s).max().expect("two spans");
        let skew = spans[0].0.abs_diff(spans[1].0);
        assert!(covered < busy);
        assert!(covered >= longest);
        assert!(covered <= longest + skew);
    }
}
