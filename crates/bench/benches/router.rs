//! Router micro-benchmark: wall-clock nanoseconds per `Router::route`
//! and per `Router::take_due`.
//!
//! Traffic has the distributed breakout's shape on a `paper_coloring`
//! constraint graph (3 colours, 2.7n edges, mean degree 5.4): each wave
//! every agent sends one message to every neighbour — `ok?` and
//! `improve` waves alternating — and the wave's deliveries are then
//! taken tick by tick. Cells cross 10^3 and 2×10^4 agents with a
//! perfect link and a link dropping 2% of messages (drops are parked
//! and flushed every fourth wave, as a stall-recovery pass would).
//! Envelopes are built before the clock starts, so `route_ns` is the
//! router alone; each cell is repeated and the median repetition
//! reported.
//!
//! Writes `BENCH_router.json` at the repo root: this run's rows under
//! `"after"`, with the `"before"` rows (the calendar-queue router's
//! predecessor, measured by this bench on the same host) carried over
//! from the existing file. Set `DISCSP_BENCH_SMOKE=1` for the CI smoke
//! matrix (10^3 agents, one repetition) — the snapshot is then left
//! untouched.

use std::io::Write as _;
use std::time::Instant;

use discsp_bench::report::snapshot_rows;
use discsp_core::{AgentId, Value, VariableId};
use discsp_dba::DbaMessage;
use discsp_probgen::paper_coloring;
use discsp_runtime::{Envelope, LinkPolicy, Router};

/// Breakout waves per repetition.
const WAVES: u64 = 12;

const SNAPSHOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_router.json");

fn smoke() -> bool {
    std::env::var_os("DISCSP_BENCH_SMOKE").is_some()
}

fn matrix() -> Vec<(u32, &'static str, LinkPolicy)> {
    let sizes: &[u32] = if smoke() { &[1_000] } else { &[1_000, 20_000] };
    let mut cells = Vec::new();
    for &agents in sizes {
        cells.push((agents, "perfect", LinkPolicy::perfect()));
        cells.push((agents, "lossy_2pct", LinkPolicy::lossy(20_000)));
    }
    cells
}

fn repetitions() -> usize {
    if smoke() {
        1
    } else {
        7
    }
}

/// One repetition's totals.
struct Sample {
    routes: u64,
    route_ns: u64,
    take_dues: u64,
    take_due_ns: u64,
    delivered: u64,
}

impl Sample {
    fn ns_per_route(&self) -> f64 {
        self.route_ns as f64 / self.routes as f64
    }

    fn ns_per_take_due(&self) -> f64 {
        self.take_due_ns as f64 / self.take_dues as f64
    }
}

fn run_once(neighbors: &[Vec<u32>], policy: LinkPolicy) -> Sample {
    let mut router: Router<DbaMessage> = Router::new(neighbors.len(), policy, 7, false);
    let mut sample = Sample {
        routes: 0,
        route_ns: 0,
        take_dues: 0,
        take_due_ns: 0,
        delivered: 0,
    };
    let mut now = 0;
    for wave in 0..WAVES {
        let mut sends = Vec::new();
        for (from, peers) in neighbors.iter().enumerate() {
            let payload = if wave % 2 == 0 {
                DbaMessage::Ok {
                    var: VariableId::new(from as u32),
                    value: Value::new((wave % 3) as u16),
                }
            } else {
                DbaMessage::Improve {
                    improve: wave,
                    eval: from as u64,
                }
            };
            for &to in peers {
                sends.push(Envelope::new(
                    AgentId::new(from as u32),
                    AgentId::new(to),
                    payload,
                ));
            }
        }
        sample.routes += sends.len() as u64;
        let start = Instant::now();
        for env in sends {
            router.route(now, env).expect("every agent is in range");
        }
        sample.route_ns += start.elapsed().as_nanos() as u64;
        if wave % 4 == 3 {
            router.flush_parked(now);
        }
        while let Some(due) = router.next_due() {
            now = now.max(due);
            let start = Instant::now();
            let inboxes = router.take_due(due, now);
            sample.take_due_ns += start.elapsed().as_nanos() as u64;
            sample.take_dues += 1;
            sample.delivered += inboxes
                .into_iter()
                .map(|(_, inbox)| inbox.len() as u64)
                .sum::<u64>();
        }
    }
    sample
}

struct Row {
    agents: u32,
    policy: &'static str,
    routes: u64,
    delivered: u64,
    take_dues: u64,
    route_ns: f64,
    take_due_ns: f64,
    take_due_ns_per_msg: f64,
}

fn run_cell(agents: u32, policy_name: &'static str, policy: LinkPolicy) -> Row {
    let instance = paper_coloring(agents, 11);
    let mut neighbors: Vec<Vec<u32>> = vec![Vec::new(); agents as usize];
    for (u, w) in instance.graph.edges() {
        neighbors[u as usize].push(w);
        neighbors[w as usize].push(u);
    }
    let mut samples: Vec<Sample> = (0..repetitions())
        .map(|_| run_once(&neighbors, policy))
        .collect();
    samples.sort_by(|a, b| a.ns_per_route().total_cmp(&b.ns_per_route()));
    let route = &samples[samples.len() / 2];
    let route_ns = route.ns_per_route();
    let (routes, delivered, take_dues) = (route.routes, route.delivered, route.take_dues);
    samples.sort_by(|a, b| a.ns_per_take_due().total_cmp(&b.ns_per_take_due()));
    let take = &samples[samples.len() / 2];
    Row {
        agents,
        policy: policy_name,
        routes,
        delivered,
        take_dues,
        route_ns,
        take_due_ns: take.ns_per_take_due(),
        take_due_ns_per_msg: take.take_due_ns as f64 / take.delivered as f64,
    }
}

fn render(r: &Row) -> String {
    format!(
        "{{\"agents\": {}, \"policy\": \"{}\", \"routes\": {}, \"delivered\": {}, \"take_dues\": {}, \"route_ns\": {:.1}, \"take_due_ns\": {:.0}, \"take_due_ns_per_msg\": {:.1}}}",
        r.agents,
        r.policy,
        r.routes,
        r.delivered,
        r.take_dues,
        r.route_ns,
        r.take_due_ns,
        r.take_due_ns_per_msg
    )
}

fn write_snapshot(rows: &[Row]) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let section = |lines: Vec<String>| -> String {
        let rows: Vec<String> = lines.iter().map(|line| format!("    {line}\n")).collect();
        rows.join(",").replace("\n,", ",\n")
    };
    let json = format!(
        "{{\n  \"bench\": \"router\",\n  \"traffic\": \"paper_coloring breakout waves, {WAVES} per repetition, median of {} repetitions\",\n  \"nproc\": {nproc},\n  \"before\": [\n{}  ],\n  \"after\": [\n{}  ]\n}}\n",
        repetitions(),
        section(snapshot_rows(SNAPSHOT, "before")),
        section(rows.iter().map(render).collect()),
    );
    let mut f = std::fs::File::create(SNAPSHOT).expect("create BENCH_router.json");
    f.write_all(json.as_bytes())
        .expect("write BENCH_router.json");
}

fn main() {
    let mut rows = Vec::new();
    for (agents, name, policy) in matrix() {
        let row = run_cell(agents, name, policy);
        println!(
            "router/{agents}/{name}: {:.1} ns/route, {:.0} ns/take_due ({:.1} ns/msg), {} routes",
            row.route_ns, row.take_due_ns, row.take_due_ns_per_msg, row.routes
        );
        rows.push(row);
    }
    if smoke() {
        println!("[smoke mode: snapshot not written]");
    } else {
        write_snapshot(&rows);
        println!("wrote {SNAPSHOT}");
    }
    println!("benchmarks completed");
}
