//! Ground truth built without the server: reference outputs, the
//! cycle-model pass, engine parity, and response checking.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use rsti_core::{
    check_sites, instrument, instrument_adaptive, optimize_module, optimize_program_at,
};
use rsti_core::{InstrumentedProgram, DEFAULT_ECV_THRESHOLD};
use rsti_serve::proto::{parse_json, Json, MechSel};
use rsti_vm::{ExecBackend, ExecResult, Image, Status, Vm};

use crate::stream::{Axes, Cmd};

/// Fuel per run: the server's default budget.
pub fn fuel() -> u64 {
    rsti_serve::ServeConfig::default().fuel
}

/// What a run produced, in the terms a response reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// `exit N` or `trap: ...`.
    pub status: String,
    /// Printed lines.
    pub output: Vec<String>,
    /// Model cycles.
    pub cycles: u64,
    /// Instructions executed.
    pub insts: u64,
    /// Dynamic PAC signs.
    pub signs: u64,
    /// Dynamic PAC auths.
    pub auths: u64,
}

impl Outcome {
    /// The outcome of a VM run.
    pub fn of(r: &ExecResult) -> Outcome {
        Outcome {
            status: match &r.status {
                Status::Exited(c) => format!("exit {c}"),
                Status::Trapped(t) => format!("trap: {t}"),
            },
            output: r.output.clone(),
            cycles: r.cycles,
            insts: r.insts,
            signs: r.pac_signs,
            auths: r.pac_auths,
        }
    }
}

/// Runs an image once under the server's fuel budget, timing `Vm::new`
/// plus `run`.
pub fn timed_run(img: &Image) -> (ExecResult, u64) {
    let t = Instant::now();
    let mut vm = Vm::new(img);
    vm.set_fuel(fuel());
    let r = vm.run();
    (r, ns_since(t))
}

/// Nanoseconds since `t`.
pub fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The reference output of a program: uninstrumented, unoptimized, on
/// the interpreter, never through the server. It must exit 0.
pub fn reference(src: &str) -> Result<Vec<String>, String> {
    let m = rsti_frontend::compile(src, "<reference>").map_err(|e| format!("reference: {e}"))?;
    let (r, _) = timed_run(&Image::baseline_owned(m));
    match r.status {
        Status::Exited(0) => Ok(r.output),
        s => Err(format!("reference run ended with {s:?}")),
    }
}

/// Instruments a module the way the server does for `mech`.
pub fn instrument_as(m: &rsti_ir::Module, mech: MechSel) -> Result<InstrumentedProgram, String> {
    match mech {
        MechSel::Fixed(mech) => Ok(instrument(m, mech)),
        MechSel::Adaptive => Ok(instrument_adaptive(m, DEFAULT_ECV_THRESHOLD)),
        MechSel::Baseline => Err("the benchmark sends no baseline requests".into()),
    }
}

/// Deterministic counts and host timings for one distinct key.
#[derive(Debug, Clone)]
pub struct KeyModel {
    /// The protected run (identical on both engines, checked).
    pub protected: Outcome,
    /// Cycles of the same program, uninstrumented, optimized at the same
    /// level: the Fig. 9 denominator.
    pub base_cycles: u64,
    /// Check sites the optimizer removed (`OptSummary::total`).
    pub removed: u64,
    /// Call sites the optimizer inlined.
    pub inlined: u64,
    /// IR instructions after optimization.
    pub ir_insts: u64,
    /// Static check sites after optimization.
    pub checks_static: u64,
    /// Protected execute time, `[interp, compiled]`.
    pub exec_ns: [u64; 2],
    /// Baseline execute time, `[interp, compiled]` (traced runs only).
    pub base_ns: [u64; 2],
    /// `Image::precompile` time of the protected image.
    pub translate_ns: u64,
    /// On the key's own engine: `[unarmed, profiler, recorder]` execute
    /// time (traced runs only).
    pub armed_ns: [u64; 3],
}

/// Index of an engine in `[interp, compiled]` arrays.
pub fn engine_index(e: ExecBackend) -> usize {
    match e {
        ExecBackend::Interp => 0,
        ExecBackend::Compiled => 1,
    }
}

/// Builds one key through the public pipeline calls and runs it.
///
/// The protected image runs on both engines, which must agree on status,
/// output, cycles, instructions and PAC counts. The baseline is the same
/// module through `optimize_module` at the key's level, as Fig. 9 does.
/// The server's `mech: baseline` skips the optimizer at every level, so
/// its responses are not this denominator. `traced` adds the host
/// timings only the per-layer report needs.
pub fn model_key(src: &str, ax: Axes, traced: bool) -> Result<KeyModel, String> {
    let module = rsti_frontend::compile(src, "<model>").map_err(|e| format!("compile: {e}"))?;
    let mut base = module.clone();
    optimize_module(&mut base, ax.opt);
    let mut p = instrument_as(&module, ax.mech)?;
    let summary = optimize_program_at(&mut p, ax.opt);
    let ir_insts = p.module.inst_count() as u64;
    let checks_static = check_sites(&p.module).len() as u64;
    let interp = Image::from_instrumented_owned(p);
    let compiled = interp.clone().with_exec(ExecBackend::Compiled);
    let t = Instant::now();
    compiled.precompile();
    let translate_ns = ns_since(t);
    let (ri, ti) = timed_run(&interp);
    let (rc, tc) = timed_run(&compiled);
    let protected = Outcome::of(&ri);
    if Outcome::of(&rc) != protected {
        return Err(format!(
            "engine parity: interp {:?} vs compiled {:?}",
            protected,
            Outcome::of(&rc)
        ));
    }
    if !ri.audit.is_empty() {
        return Err(format!("audit record on a benign program: {}", ri.audit[0].to_json()));
    }
    let base_interp = Image::baseline_owned(base);
    let base_compiled = base_interp.clone().with_exec(ExecBackend::Compiled);
    base_compiled.precompile();
    let (rb, bc) = timed_run(&base_compiled);
    let mut base_ns = [0, bc];
    let mut armed_ns = [0; 3];
    if traced {
        base_ns[0] = timed_run(&base_interp).1;
        let own = if ax.exec == ExecBackend::Compiled { &compiled } else { &interp };
        armed_ns[0] = [ti, tc][engine_index(ax.exec)];
        for (slot, img) in [(1, own.clone().with_attr()), (2, own.clone().with_record())] {
            let (r, ns) = timed_run(&img);
            if r.cycles != ri.cycles || r.insts != ri.insts {
                return Err("arming the profiler or recorder changed the run".into());
            }
            armed_ns[slot] = ns;
        }
    }
    Ok(KeyModel {
        protected,
        base_cycles: rb.cycles,
        removed: summary.total() as u64,
        inlined: summary.inlined as u64,
        ir_insts,
        checks_static,
        exec_ns: [ti, tc],
        base_ns,
        translate_ns,
        armed_ns,
    })
}

/// Maps `f` over `items` on two worker threads, keeping input order.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let mut out: Vec<(usize, R)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        mine.push((i, f(item)));
                    }
                    mine
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("a benchmark worker panicked")).collect()
    });
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, r)| r).collect()
}

/// A checked response: its outcome and whether it was a cache hit.
#[derive(Debug, Clone)]
pub struct Checked {
    /// What the server reported.
    pub outcome: Outcome,
    /// `"cache":"hit"`.
    pub hit: bool,
}

fn num(v: &Json, field: &str) -> Result<u64, String> {
    v.get(field).and_then(Json::as_u64).ok_or_else(|| format!("response lacks {field:?}"))
}

/// Reads what a successful `run`/`profile` response reports.
pub fn parse_outcome(resp: &str) -> Result<(Json, Checked), String> {
    let v = parse_json(resp).map_err(|e| format!("unparsable response ({e})"))?;
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("error response: {resp}"));
    }
    let output = match v.get("output") {
        Some(Json::Arr(items)) => {
            items.iter().map(|s| s.as_str().unwrap_or("").to_string()).collect()
        }
        _ => return Err("response lacks \"output\"".into()),
    };
    let checked = Checked {
        outcome: Outcome {
            status: v.get("status").and_then(Json::as_str).unwrap_or("<none>").to_string(),
            output,
            cycles: num(&v, "cycles")?,
            insts: num(&v, "insts")?,
            signs: num(&v, "pac_signs")?,
            auths: num(&v, "pac_auths")?,
        },
        hit: v.get("cache").and_then(Json::as_str) == Some("hit"),
    };
    Ok((v, checked))
}

/// Checks one `run`/`profile` response against the reference output. A
/// request fails on `ok:false`, a status other than `exit 0`, output that
/// differs from the reference, any audit record, or any incident.
pub fn check_response(resp: &str, reference: &[String], cmd: Cmd) -> Result<Checked, String> {
    let (v, checked) = parse_outcome(resp)?;
    let out = &checked.outcome;
    if out.status != "exit 0" {
        return Err(format!("status {:?}", out.status));
    }
    if out.output != reference {
        return Err(format!("output {:?} differs from reference {reference:?}", out.output));
    }
    if !matches!(v.get("audit"), Some(Json::Arr(a)) if a.is_empty()) {
        return Err("audit record on a benign program".into());
    }
    if !matches!(v.get("incident"), None | Some(Json::Null)) {
        return Err("incident on a benign program".into());
    }
    if cmd == Cmd::Record && v.get("incident").is_none() {
        return Err("recorded run without an \"incident\" field".into());
    }
    if cmd == Cmd::Profile && !matches!(v.get("attr"), Some(Json::Arr(a)) if !a.is_empty()) {
        return Err("profile response without attribution rows".into());
    }
    Ok(checked)
}

/// Whether a warm-up `compile` response succeeded.
pub fn check_compile(resp: &str) -> Result<(), String> {
    match parse_json(resp) {
        Ok(v) if v.get("ok").and_then(Json::as_bool) == Some(true) => Ok(()),
        _ => Err(format!("warm-up compile failed: {resp}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::cold_request;

    #[test]
    fn model_pass_repeats_exactly_and_engines_agree() {
        // `model_key` itself fails on any interp/compiled difference.
        for i in 0..6 {
            let r = cold_request(11, i);
            let a = model_key(&r.source, r.axes, false).expect("first pass");
            let b = model_key(&r.source, r.axes, false).expect("second pass");
            assert_eq!(a.protected, b.protected);
            assert_eq!(a.protected.output, reference(&r.source).expect("reference"));
            assert_eq!(
                (a.base_cycles, a.removed, a.inlined, a.ir_insts, a.checks_static),
                (b.base_cycles, b.removed, b.inlined, b.ir_insts, b.checks_static)
            );
        }
    }

    #[test]
    fn response_checks_catch_each_failure_kind() {
        let ok = r#"{"ok":true,"cache":"hit","status":"exit 0","output":["7"],"audit":[],"cycles":5,"insts":4,"pac_signs":1,"pac_auths":2}"#;
        let c = check_response(ok, &["7".to_string()], Cmd::Run).expect("passes");
        assert!(c.hit);
        assert_eq!((c.outcome.cycles, c.outcome.auths), (5, 2));
        let want = ["7".to_string()];
        for (resp, needle) in [
            (r#"{"ok":false,"error":"x"}"#, "error response"),
            (&ok.replace("exit 0", "exit 1"), "status"),
            (&ok.replace("[\"7\"]", "[\"8\"]"), "differs from reference"),
            (&ok.replace("\"audit\":[]", "\"audit\":[{}]"), "audit"),
            (&ok.replace("\"audit\":[]", "\"audit\":[],\"incident\":{}"), "incident"),
        ] {
            let e = check_response(resp, &want, Cmd::Run).expect_err(resp);
            assert!(e.contains(needle), "{resp} -> {e}");
        }
        assert!(check_response(ok, &want, Cmd::Record).is_err(), "record needs an incident field");
        assert!(check_response(ok, &want, Cmd::Profile).is_err(), "profile needs attribution rows");
    }
}
