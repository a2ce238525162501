//! Compiler-pipeline throughput: MiniC parse+lower, STI analysis, the
//! instrumentation pass (the paper's §5 compile-time component) and each
//! optimizer level.

use rsti_bench::timing::bench;
use rsti_core::{Mechanism, OptLevel};
use std::hint::black_box;

fn main() {
    let w = rsti_workloads::spec2006()
        .into_iter()
        .find(|w| w.name == "perlbench")
        .unwrap();
    let src = w.source.clone();
    bench("compile_perlbench_proxy", || rsti_frontend::compile(black_box(&src), "p").unwrap());
    let m = w.module();
    bench("analyze_stwc", || rsti_core::analyze(black_box(&m), Mechanism::Stwc));
    for mech in Mechanism::ALL {
        bench(&format!("instrument_{}", mech.name()), || {
            rsti_core::instrument(black_box(&m), mech)
        });
    }
    // The optimizer rewrites its input, so every iteration optimizes a
    // fresh clone of one STWC-instrumented module; `clone_instrumented`
    // times the clone (and drop) alone, to subtract.
    let p = rsti_core::instrument(&m, Mechanism::Stwc);
    bench("clone_instrumented", || black_box(&p.module).clone());
    for level in [OptLevel::BlockLocal, OptLevel::Cfg, OptLevel::Ipo] {
        bench(&format!("optimize_{}", level.label()), || {
            let mut module = black_box(&p.module).clone();
            rsti_core::optimize_module(&mut module, level);
            module
        });
    }
}
