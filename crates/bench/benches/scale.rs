//! Scale benchmark: the M:N sharded executor on large planted coloring
//! instances.
//!
//! `run_sharded` multiplexes the population onto a fixed worker pool,
//! so 10^5 agents need only a handful of threads. This bench drives the
//! distributed breakout over `paper_coloring` instances of
//! 10^5–3×10^5 agents, started from a
//! lightly perturbed planted solution so the repair is real work with
//! a bounded, size-tracked wave count (AWC's repair cost from the same
//! init is wildly seed-dependent), and reports the two numbers the
//! executor exists for: **agents per second** (activations retired per
//! wall-clock second) and **bytes per agent** (live heap bytes of the
//! built population divided by its size). The bytes are counted by this
//! binary's global allocator, which tallies only while `build_agents`
//! runs, so the timed solve is not instrumented. A resident-set delta
//! taken across cells in one process shrinks from cell to cell as the
//! allocator reuses freed memory, so it is not used.
//!
//! Writes `BENCH_scale.json` at the repo root. Set
//! `DISCSP_BENCH_SMOKE=1` for the CI smoke matrix (10^4 agents, fewer
//! worker counts) — the snapshot is then left untouched.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::time::Instant;

use discsp_core::{Assignment, Termination, Value};
use discsp_dba::DbaSolver;
use discsp_probgen::{coloring_to_discsp, paper_coloring};
use discsp_runtime::{run_sharded, ShardConfig, SplitMix64, VirtualConfig};

/// Global allocator that counts live heap bytes while [`COUNTING`] is
/// set, and otherwise only forwards to the system allocator.
struct LiveBytes;

static COUNTING: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicI64 = AtomicI64::new(0);

fn count(delta: i64) {
    if COUNTING.load(Ordering::Relaxed) {
        LIVE.fetch_add(delta, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` unchanged; the counters are
// plain atomics and never allocate.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

/// Runs `build` and returns its result with the heap bytes it left live.
fn live_bytes_of<T>(build: impl FnOnce() -> T) -> (T, i64) {
    LIVE.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let built = build();
    COUNTING.store(false, Ordering::Relaxed);
    (built, LIVE.load(Ordering::Relaxed))
}

/// One agent in 64 starts off the planted color, so ~1.5% of the
/// population (plus their neighborhoods) has genuine repair work while
/// the run still terminates in a handful of waves at any size.
const PERTURB_ONE_IN: u64 = 64;

fn smoke() -> bool {
    std::env::var_os("DISCSP_BENCH_SMOKE").is_some()
}

/// `(agents, workers)` cells. Full mode sweeps worker counts at 10^5
/// and runs a 3×10^5 headline row; smoke keeps CI under a minute.
///
/// Why the headline is not 10^6: the executor's per-activation cost is
/// nearly flat (≈250k activations/s at 10^5 and ≈280k at 3×10^5 with
/// 8 workers on a 2-vCPU host), but the *workload's* breakout wave count
/// grows with the population (20 waves at 10^5, 100 at 3×10^5) and
/// every wave activates all n agents, so a 10^6 solve runs for many
/// minutes. A built `DbaAgent` holds ≈3.3 KB of heap at every size in
/// the matrix, so a million agents build in ≈3 GB before the solve
/// grows their caches; solve *time* at that size is an open
/// workload/locality problem, not an executor ceiling.
fn matrix() -> Vec<(u32, usize)> {
    if smoke() {
        vec![(10_000, 1), (10_000, 4)]
    } else {
        vec![(100_000, 1), (100_000, 4), (100_000, 8), (300_000, 8)]
    }
}

struct Row {
    agents: u32,
    workers: usize,
    ticks: u64,
    activations: u64,
    solve_secs: f64,
    agents_per_sec: f64,
    activations_per_sec: f64,
    bytes_per_agent: f64,
}

fn run_cell(agents: u32, workers: usize) -> Row {
    let instance = paper_coloring(agents, 11);
    let problem = coloring_to_discsp(&instance).expect("encode");

    // Perturb a deterministic 1-in-64 slice of the planted coloring.
    let mut rng = SplitMix64::new(agents as u64 ^ 0x5ca1_ab1e);
    let init = Assignment::total(instance.planted.iter().map(|&c| {
        if rng.next_below(PERTURB_ONE_IN) == 0 {
            Value::new((c + 1) % 3)
        } else {
            Value::new(c)
        }
    }));

    let config = ShardConfig::with_base(
        VirtualConfig {
            seed: 7,
            stop_on_first_solution: true,
            ..VirtualConfig::default()
        },
        workers,
    );
    // Timed like `DbaSolver::solve_sharded`: build plus run.
    let start = Instant::now();
    let (population, built_bytes) = live_bytes_of(|| {
        DbaSolver::new()
            .build_agents(&problem, &init)
            .expect("one variable per agent")
    });
    let report = run_sharded(population, &problem, &config).expect("sharded run");
    let solve_secs = start.elapsed().as_secs_f64();

    assert_eq!(
        report.outcome.metrics.termination,
        Termination::Solved,
        "{agents} agents / {workers} workers: scale instance must solve"
    );
    let solution = report.outcome.solution.expect("solved");
    assert!(problem.is_solution(&solution));

    Row {
        agents,
        workers,
        ticks: report.ticks,
        activations: report.activations,
        solve_secs,
        agents_per_sec: f64::from(agents) / solve_secs,
        activations_per_sec: report.activations as f64 / solve_secs,
        bytes_per_agent: built_bytes as f64 / f64::from(agents),
    }
}

fn write_snapshot(rows: &[Row]) {
    let mut json = String::from(
        "{\n  \"bench\": \"scale\",\n  \"executor\": \"run_sharded\",\n  \"results\": [\n",
    );
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 < rows.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{\"agents\": {}, \"workers\": {}, \"ticks\": {}, \"activations\": {}, \
             \"solve_secs\": {:.3}, \"agents_per_sec\": {:.0}, \
             \"activations_per_sec\": {:.0}, \"bytes_per_agent\": {:.0}}}{sep}\n",
            r.agents,
            r.workers,
            r.ticks,
            r.activations,
            r.solve_secs,
            r.agents_per_sec,
            r.activations_per_sec,
            r.bytes_per_agent
        ));
    }
    json.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");
    let mut f = std::fs::File::create(path).expect("create BENCH_scale.json");
    f.write_all(json.as_bytes())
        .expect("write BENCH_scale.json");
    println!("[wrote {path}]");
}

fn main() {
    let mut rows = Vec::new();
    for (agents, workers) in matrix() {
        let row = run_cell(agents, workers);
        println!(
            "scale/{}agents/{}workers: {:.3}s, {} ticks, {:.0} agents/s, \
             {:.0} activations/s, {:.0} bytes/agent",
            row.agents,
            row.workers,
            row.solve_secs,
            row.ticks,
            row.agents_per_sec,
            row.activations_per_sec,
            row.bytes_per_agent
        );
        rows.push(row);
    }
    if smoke() {
        println!("[smoke mode: snapshot not written]");
    } else {
        write_snapshot(&rows);
    }
    println!("benchmarks completed");
}
