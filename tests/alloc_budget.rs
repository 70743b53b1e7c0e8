//! Allocation budget of building an agent population.
//!
//! A counting global allocator tallies allocator calls and live heap
//! blocks while `build_agents` runs on a 2000-agent paper coloring. An
//! agent's heap footprint is a small fixed set of `Vec`s, so building
//! one costs a handful of allocator calls and dropping it about as many
//! frees. Before the store's dedupe chains, the per-variable mention
//! lists and the DBA agent's dense wave buffers, a `DbaAgent` cost 69.3
//! calls and left 31.6 live blocks, and an `AwcAgent` cost 62.9 calls.
//!
//! One `#[test]` only: the counters are process-wide, so a second test
//! running concurrently would pollute them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use discsp::prelude::*;
use discsp_probgen::{coloring_to_discsp, paper_coloring};

struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` unchanged; the counters are
// plain atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            CALLS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            CALLS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            CALLS.fetch_add(1, Ordering::Relaxed);
            REALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ENABLED.load(Ordering::Relaxed) {
            FREES.fetch_add(1, Ordering::Relaxed);
        }
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocator calls and blocks left live, per agent, while `build` runs.
fn per_agent<T>(agents: usize, build: impl FnOnce() -> T) -> (T, f64, f64) {
    CALLS.store(0, Ordering::Relaxed);
    REALLOCS.store(0, Ordering::Relaxed);
    FREES.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
    let built = build();
    ENABLED.store(false, Ordering::Relaxed);
    let calls = CALLS.load(Ordering::Relaxed);
    // A reallocation is a call but never changes the block count.
    let fresh = calls - REALLOCS.load(Ordering::Relaxed);
    let live = fresh.saturating_sub(FREES.load(Ordering::Relaxed));
    let agents = agents as f64;
    (built, calls as f64 / agents, live as f64 / agents)
}

#[test]
fn building_an_agent_costs_a_handful_of_allocations() {
    const AGENTS: u32 = 2000;
    let problem = coloring_to_discsp(&paper_coloring(AGENTS, 3)).expect("encodes");
    let init = Assignment::total((0..AGENTS).map(|_| Value::new(0)));
    let n = AGENTS as usize;

    let (dba, dba_calls, dba_live) = per_agent(n, || {
        DbaSolver::new()
            .build_agents(&problem, &init)
            .expect("one variable per agent")
    });
    let (awc, awc_calls, _) = per_agent(n, || {
        AwcSolver::new(AwcConfig::resolvent())
            .build_agents(&problem, &init)
            .expect("one variable per agent")
    });
    assert_eq!((dba.len(), awc.len()), (n, n));
    println!("DbaAgent: {dba_calls:.1} calls, {dba_live:.1} live blocks per agent");
    println!("AwcAgent: {awc_calls:.1} calls per agent");
    assert!(
        dba_calls <= 20.0,
        "DbaAgent build: {dba_calls:.1} calls per agent"
    );
    assert!(
        dba_live <= 14.0,
        "DbaAgent build: {dba_live:.1} live blocks per agent"
    );
    assert!(
        awc_calls <= 25.0,
        "AwcAgent build: {awc_calls:.1} calls per agent"
    );
}
