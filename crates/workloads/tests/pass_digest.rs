//! Pins the exact output of the instrumenter and the check optimizer.
//!
//! Every suite proxy and a fixed set of `generate_source` programs go
//! through each instrumentation mechanism (plus the §7 adaptive variant)
//! and each optimization level. A row digests everything the passes hand
//! to the runtime: the printed module, every function's value-type table
//! and debug locations, the instrumentation counters, the optimizer
//! summary and the load-time signing directives. The expected digests
//! live in `pass_digest.expected`, one `row digest` line each. A mismatch
//! lists every differing row in that format.

use rsti_core::DEFAULT_ECV_THRESHOLD;
use rsti_core::{instrument, instrument_adaptive, optimize_module, Mechanism, OptLevel};
use rsti_ir::Module;
use rsti_workloads::{all_workloads, generate_source, AstGenConfig};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `generate_source` seeds in the corpus.
const GEN_SEEDS: std::ops::Range<u64> = 0..16;

const MECHS: [&str; 5] = ["stwc", "stc", "stl", "parts", "adaptive"];

/// FNV-1a, 64-bit: stable across platforms and toolchains.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn instrumented(m: &Module, mech: &str) -> rsti_core::InstrumentedProgram {
    match mech {
        "stwc" => instrument(m, Mechanism::Stwc),
        "stc" => instrument(m, Mechanism::Stc),
        "stl" => instrument(m, Mechanism::Stl),
        "parts" => instrument(m, Mechanism::Parts),
        "adaptive" => instrument_adaptive(m, DEFAULT_ECV_THRESHOLD),
        other => unreachable!("unknown mechanism {other}"),
    }
}

fn row_digest(m: &Module, mech: &str, level: OptLevel) -> u64 {
    let mut p = instrumented(m, mech);
    let summary = optimize_module(&mut p.module, level);
    let mut text = rsti_ir::print_module(&p.module);
    for f in &p.module.funcs {
        let _ = writeln!(text, "types {} {:?}", f.name, f.value_types);
        for b in &f.blocks {
            let locs: Vec<_> = b.insts.iter().map(|n| n.loc).collect();
            let _ = writeln!(text, "locs {:?} {:?}", locs, b.term_loc);
        }
    }
    let _ = writeln!(text, "{:?}", p.stats);
    let _ = writeln!(text, "{summary:?}");
    let _ = writeln!(text, "{:?}", p.global_signing);
    fnv1a(text.as_bytes())
}

fn corpus() -> Vec<(String, Module)> {
    let mut v: Vec<(String, Module)> = all_workloads()
        .iter()
        .map(|w| (w.name.replace(' ', "_"), w.module()))
        .collect();
    for seed in GEN_SEEDS {
        let src = generate_source(seed, AstGenConfig::default());
        let m = rsti_frontend::compile(&src, "gen").unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        v.push((format!("gen{seed}"), m));
    }
    v
}

#[test]
fn instrument_and_optimize_output_is_pinned() {
    let expected: BTreeMap<&str, &str> = include_str!("pass_digest.expected")
        .lines()
        .filter_map(|l| l.split_once(' '))
        .collect();
    let mut actual = BTreeMap::new();
    for (name, m) in corpus() {
        for mech in MECHS {
            for level in OptLevel::ALL {
                let row = format!("{name}/{mech}/{}", level.label());
                actual.insert(row, format!("{:016x}", row_digest(&m, mech, level)));
            }
        }
    }
    let mut diff = String::new();
    for (row, d) in &actual {
        if expected.get(row.as_str()) != Some(&d.as_str()) {
            let _ = writeln!(diff, "{row} {d}");
        }
    }
    for row in expected.keys() {
        if !actual.contains_key(*row) {
            let _ = writeln!(diff, "missing row {row}");
        }
    }
    assert!(
        diff.is_empty(),
        "pass output changed on {} row(s):\n{diff}",
        diff.lines().count()
    );
}
