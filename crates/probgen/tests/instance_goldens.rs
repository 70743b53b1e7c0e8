//! Golden pin for the paper's instance streams.
//!
//! Every table in EXPERIMENTS.md is a pure function of the instances
//! `paper_coloring`, `paper_sat3` and `paper_one_sat3` draw from their
//! seeds, so a change to the generators — or to the random-number
//! stream under them — silently moves every published number. Each
//! generator is pinned here at fixed `(n, seed)` pairs by an FNV-1a
//! digest of a canonical byte encoding of the whole instance: sizes,
//! every edge or clause in order, and the planted solution.

use discsp_probgen::{paper_coloring, paper_one_sat3, paper_sat3, ColoringInstance, SatInstance};

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn u32(&mut self, x: u32) {
        self.bytes(&x.to_le_bytes());
    }
}

fn coloring_digest(instance: &ColoringInstance) -> u64 {
    let mut fnv = Fnv::new();
    fnv.u32(instance.graph.num_nodes());
    fnv.u32(u32::from(instance.colors));
    for (u, w) in instance.graph.edges() {
        fnv.u32(u);
        fnv.u32(w);
    }
    for &color in &instance.planted {
        fnv.u32(u32::from(color));
    }
    fnv.0
}

fn sat_digest(instance: &SatInstance) -> u64 {
    let mut fnv = Fnv::new();
    fnv.u32(instance.cnf.num_vars());
    for clause in instance.cnf.clauses() {
        fnv.u32(clause.lits().len() as u32);
        for lit in clause.lits() {
            fnv.u32(lit.var);
            fnv.bytes(&[u8::from(lit.positive)]);
        }
    }
    for &value in &instance.planted {
        fnv.bytes(&[u8::from(value)]);
    }
    fnv.bytes(&[u8::from(instance.verified_unique)]);
    fnv.0
}

/// Compares every `(label, n, seed, size, digest)` row against its pin
/// and reports all mismatches at once, each as the line to paste in.
fn check(rows: &[(&str, u32, u64, usize, u64)], actual: impl Fn(u32, u64) -> (usize, u64)) {
    let mut drift = Vec::new();
    for &(label, n, seed, size, digest) in rows {
        let (got_size, got_digest) = actual(n, seed);
        if (got_size, got_digest) != (size, digest) {
            drift.push(format!(
                "(\"{label}\", {n}, {seed}, {got_size}, 0x{got_digest:016x}),"
            ));
        }
    }
    assert!(
        drift.is_empty(),
        "instance streams moved:\n{}",
        drift.join("\n")
    );
}

#[test]
fn paper_coloring_stream_is_pinned() {
    check(
        &[
            ("paper_coloring", 30, 1, 81, 0x5dd4_f04c_1919_230e),
            ("paper_coloring", 90, 20_000_419, 243, 0x7b8a_0c5b_5941_dd3f),
            ("paper_coloring", 150, 7, 405, 0xa15c_155b_6c2b_2ee8),
        ],
        |n, seed| {
            let instance = paper_coloring(n, seed);
            (instance.graph.num_edges(), coloring_digest(&instance))
        },
    );
}

#[test]
fn paper_sat3_stream_is_pinned() {
    check(
        &[
            ("paper_sat3", 20, 1, 86, 0x5b13_3a86_2ad4_69e5),
            ("paper_sat3", 50, 20_000_419, 215, 0x95b0_6d2a_e7ba_720e),
            ("paper_sat3", 100, 7, 430, 0xcc45_4cf7_7723_3b17),
        ],
        |n, seed| {
            let instance = paper_sat3(n, seed);
            (instance.cnf.clauses().len(), sat_digest(&instance))
        },
    );
}

#[test]
fn paper_one_sat3_stream_is_pinned() {
    check(
        &[
            ("paper_one_sat3", 20, 1, 68, 0x8303_2290_c201_dd9c),
            ("paper_one_sat3", 50, 20_000_419, 170, 0xc399_7ae2_0331_410f),
            ("paper_one_sat3", 100, 7, 340, 0x8608_0fa9_c3c2_57df),
        ],
        |n, seed| {
            let instance = paper_one_sat3(n, seed);
            (instance.cnf.clauses().len(), sat_digest(&instance))
        },
    );
}
