//! Interpreter ≡ compiled-engine parity, as executable claims.
//!
//! The closure-threaded engine promises to be *observably identical* to
//! the interpreter — that is what lets the interpreter serve as its
//! differential oracle. These tests pin the promise down for every trap
//! class and for the accounting: both engines must produce equal
//! [`ExecResult`]s (status, output, events, cycles, instructions, PAC
//! counters, site counts, audit records) on the same image and the same
//! attacker actions.

use rsti_core::{Mechanism, OptLevel};
use rsti_ir::{BlockId, Terminator};
use rsti_vm::{Backend, ExecBackend, ExecResult, Image, RunStop, Status, Trap, Vm};

/// Runs one image under one engine, applying `attack` at the `fire` pause
/// point when given.
fn run_one(
    img: &Image,
    exec: ExecBackend,
    fuel: u64,
    attack: Option<&dyn Fn(&mut Vm)>,
) -> ExecResult {
    let img = img.clone().with_exec(exec);
    let mut vm = Vm::new(&img);
    vm.set_fuel(fuel);
    match attack {
        None => vm.run(),
        Some(f) => {
            assert_eq!(vm.run_to_function("fire"), RunStop::Entered, "{}", exec.label());
            f(&mut vm);
            vm.finish()
        }
    }
}

/// Asserts both engines agree on an image, returns the (shared) result.
fn assert_parity(
    img: &Image,
    fuel: u64,
    attack: Option<&dyn Fn(&mut Vm)>,
    label: &str,
) -> ExecResult {
    let interp = run_one(img, ExecBackend::Interp, fuel, attack);
    let compiled = run_one(img, ExecBackend::Compiled, fuel, attack);
    assert_eq!(interp, compiled, "backend divergence: {label}");
    compiled
}

fn instrumented(src: &str, mech: Mechanism, opt: OptLevel) -> Image {
    let m = rsti_frontend::compile(src, "parity").expect("compiles");
    let mut p = rsti_core::instrument(&m, mech);
    rsti_core::optimize_program_at(&mut p, opt);
    Image::from_instrumented(&p)
}

fn baseline(src: &str) -> Image {
    let m = rsti_frontend::compile(src, "parity").expect("compiles");
    Image::baseline(&m)
}

const VICTIM: &str = r#"
    void benign() { }
    void gadget() { print_str("gadget"); }
    struct obj { long pad; void (*fp)(); };
    struct obj* g_obj;
    void fire() { g_obj->fp(); }
    int main() {
        g_obj = (struct obj*) malloc(sizeof(struct obj));
        g_obj->fp = benign;
        fire();
        return 0;
    }
"#;

/// A compute-heavy program touching arithmetic, memory, branches, calls,
/// and printing — the parity workhorse for clean runs.
const MIXED: &str = r#"
    int fib(int n) {
        if (n < 2) { return n; }
        return fib(n - 1) + fib(n - 2);
    }
    int main() {
        int* buf = (int*) malloc(64 * 4);
        int i = 0;
        while (i < 64) {
            buf[i] = i * 3 - 1;
            i = i + 1;
        }
        long sum = 0;
        i = 0;
        while (i < 64) {
            sum = sum + buf[i];
            i = i + 1;
        }
        print_int(sum);
        print_int(fib(12));
        double x = 1.5;
        double y = x * 4.0 + 0.25;
        print_int((int) y);
        free(buf);
        return 0;
    }
"#;

// ---- trap-class parity table ----------------------------------------------

/// PAC violation parity, per mechanism, both enforcement backends: the
/// attacker swaps the signed function pointer for a raw gadget address at
/// the `fire` pause point; every configuration must diverge-free report
/// the same `PacAuthFailure` (or `PpAuthFailure`), same audit record,
/// same line, same counters.
#[test]
fn pac_violation_parity_per_mechanism() {
    let corrupt: &dyn Fn(&mut Vm) = &|vm| {
        let obj = vm.heap_live()[0].0;
        let gadget = vm.func_addr("gadget").unwrap();
        vm.attacker_write_u64(obj + 8, gadget).unwrap();
    };
    for mech in Mechanism::ALL {
        for opt in OptLevel::ALL {
            for enforce in [Backend::PacInPointer, Backend::MacTable] {
                let img = instrumented(VICTIM, mech, opt).with_backend(enforce);
                let label = format!("{mech:?}/{opt:?}/{enforce:?}");
                let r = assert_parity(&img, 10_000_000, Some(corrupt), &label);
                assert!(
                    matches!(
                        r.status,
                        Status::Trapped(
                            Trap::PacAuthFailure { .. }
                                | Trap::PpAuthFailure { .. }
                                | Trap::NonCanonicalCall { .. }
                        )
                    ),
                    "{label}: corruption not detected: {:?}",
                    r.status
                );
                assert_eq!(r.audit.len(), usize::from(r.status != Status::Exited(0) && matches!(r.status, Status::Trapped(ref t) if t.is_detection())), "{label}");
            }
        }
    }
}

/// StackOverflow parity: unbounded recursion overflows the frame limit
/// identically under both engines.
#[test]
fn stack_overflow_parity() {
    let src = r#"
        int down(int n) { return down(n + 1); }
        int main() { return down(0); }
    "#;
    let r = assert_parity(&baseline(src), 50_000_000, None, "stack-overflow");
    assert_eq!(
        std::mem::discriminant(match &r.status {
            Status::Trapped(t) => t,
            s => panic!("expected trap, got {s:?}"),
        }),
        std::mem::discriminant(&Trap::StackOverflow)
    );
}

/// Alloca-exhaustion StackOverflow parity (the stack-segment variant).
#[test]
fn alloca_overflow_parity() {
    let src = r#"
        int grow(int n) {
            long slab[4096];
            slab[0] = n;
            return grow(n + (int) slab[0] - n + 1);
        }
        int main() { return grow(0); }
    "#;
    let r = assert_parity(&baseline(src), 50_000_000, None, "alloca-overflow");
    assert!(
        matches!(r.status, Status::Trapped(Trap::StackOverflow)),
        "{:?}",
        r.status
    );
}

/// HeapExhausted parity: a malloc loop drains the arena identically.
#[test]
fn heap_exhausted_parity() {
    let src = r#"
        int main() {
            int i = 0;
            while (i < 100000) {
                char* p = (char*) malloc(65536);
                p[0] = 1;
                i = i + 1;
            }
            return 0;
        }
    "#;
    let r = assert_parity(&baseline(src), 50_000_000, None, "heap-exhausted");
    assert!(
        matches!(r.status, Status::Trapped(Trap::HeapExhausted)),
        "{:?}",
        r.status
    );
}

/// Segment-error parity: a store through a null pointer faults with the
/// same `Mem` trap (function name included) under both engines.
#[test]
fn null_deref_parity() {
    let src = r#"
        int main() {
            int* p = null;
            *p = 7;
            return 0;
        }
    "#;
    let r = assert_parity(&baseline(src), 1_000_000, None, "null-deref");
    assert!(matches!(r.status, Status::Trapped(Trap::Mem { .. })), "{:?}", r.status);
}

/// Division-by-zero parity (trap carries the function name).
#[test]
fn div_by_zero_parity() {
    let src = r#"
        int main() {
            int d = 4;
            int z = d - 4;
            return 12 / z;
        }
    "#;
    let r = assert_parity(&baseline(src), 1_000_000, None, "div-zero");
    assert!(matches!(r.status, Status::Trapped(Trap::DivByZero { .. })), "{:?}", r.status);
}

/// BadProgram parity: reaching `unreachable` (here: a terminator swapped
/// in post-compile) renders the identical message under both engines.
#[test]
fn unreachable_parity() {
    let mut m = rsti_frontend::compile("int main() { return 0; }", "parity").unwrap();
    let main = m.func_by_name("main").unwrap();
    m.funcs[main.0 as usize].blocks[0].term = Terminator::Unreachable;
    let r = assert_parity(&Image::baseline(&m), 1_000_000, None, "unreachable");
    assert!(
        matches!(&r.status, Status::Trapped(Trap::BadProgram(s)) if s.contains("unreachable")),
        "{:?}",
        r.status
    );
}

/// BadProgram parity: a branch to a missing block reports the same
/// message from the compiled driver's block lookup as from `step`.
#[test]
fn missing_block_parity() {
    let mut m = rsti_frontend::compile("int main() { return 0; }", "parity").unwrap();
    let main = m.func_by_name("main").unwrap();
    m.funcs[main.0 as usize].blocks[0].term = Terminator::Br(BlockId(99));
    let r = assert_parity(&Image::baseline(&m), 1_000_000, None, "missing-block");
    assert!(
        matches!(&r.status, Status::Trapped(Trap::BadProgram(s)) if s.contains("missing block")),
        "{:?}",
        r.status
    );
}

// ---- accounting parity -----------------------------------------------------

/// The block entry/exit charge is backend-neutral: clean runs report
/// identical `cycles` (the `cycle_model_total`) and `insts` across
/// engines, for every mechanism × opt level — the regression test for
/// the shared `charge_block_transfer` site.
#[test]
fn cycle_model_total_is_backend_neutral() {
    for src in [MIXED, VICTIM] {
        let b = baseline(src);
        assert_parity(&b, 50_000_000, None, "baseline accounting");
        for mech in Mechanism::ALL {
            for opt in OptLevel::ALL {
                let img = instrumented(src, mech, opt);
                let label = format!("accounting {mech:?}/{opt:?}");
                let r = assert_parity(&img, 50_000_000, None, &label);
                assert!(r.status.is_exit(), "{label}: {:?}", r.status);
                assert!(r.cycles > 0 && r.insts > 0, "{label}");
            }
        }
    }
}

/// Fuel exhaustion is charge-exact: cutting the budget to an arbitrary
/// point mid-run leaves both engines with the same instruction and cycle
/// totals — the compiled engine's pre-charge/rollback bookkeeping cannot
/// drift from per-op charging even when the budget expires mid-block.
///
/// The observed image (attribution with a prime sampling period, plus the
/// recorder) runs out of fuel mid-block too: its profile must match the
/// interpreter's although the block counters saw a partial block.
#[test]
fn fuel_exhaustion_accounting_parity() {
    let plain = baseline(MIXED);
    let observed =
        instrumented(MIXED, Mechanism::Stwc, OptLevel::None).with_attr_sampling(97).with_record();
    for (what, img) in [("plain", &plain), ("observed", &observed)] {
        for fuel in [1, 7, 50, 333, 1234, 2500] {
            let label = format!("{what} fuel={fuel}");
            let r = assert_parity(img, fuel, None, &label);
            assert!(
                matches!(r.status, Status::Trapped(Trap::FuelExhausted)),
                "{label}: {:?}",
                r.status
            );
            assert_eq!(r.insts, fuel, "{label}: exhaustion must stop exactly at the budget");
        }
    }
}

/// Watchpoint pause/resume works identically: pausing at `fire`, reading
/// attacker-visible state, and finishing produces the same result — the
/// compiled driver's single-block mode must see every block entry.
#[test]
fn watchpoint_resume_parity() {
    let img = instrumented(VICTIM, Mechanism::Stwc, OptLevel::Cfg);
    let benign: &dyn Fn(&mut Vm) = &|vm| {
        // Pause, look, touch nothing: the run must stay clean.
        assert!(!vm.heap_live().is_empty());
    };
    let r = assert_parity(&img, 10_000_000, Some(benign), "watch-resume");
    assert_eq!(r.status, Status::Exited(0));
}

/// MacTable clean-run parity: sign/auth round trips through the shadow
/// MAC table leave identical counters.
#[test]
fn mac_table_clean_run_parity() {
    for mech in Mechanism::ALL {
        let img = instrumented(VICTIM, mech, OptLevel::BlockLocal).with_backend(Backend::MacTable);
        let r = assert_parity(&img, 10_000_000, None, &format!("mac-clean {mech:?}"));
        assert_eq!(r.status, Status::Exited(0), "{mech:?}");
    }
}

/// The compiled engine reports the same per-site dynamic PA profile.
#[test]
fn site_count_parity_under_stl() {
    let img = instrumented(VICTIM, Mechanism::Stl, OptLevel::None);
    let r = assert_parity(&img, 10_000_000, None, "stl-sites");
    assert!(r.site_counts.iter().sum::<u64>() > 0, "STL run exercised no PA sites");
}

// ---- violation forensics parity -------------------------------------------

/// Audit records agree field by field — not just on the trap message —
/// between the engines, for every mechanism × enforcement backend. The
/// `ExecResult` equality in `assert_parity` subsumes this, but spelling
/// each field out keeps a divergence diagnosable (and pins the claim even
/// if `ExecResult`'s derive ever changes).
#[test]
fn audit_record_full_field_parity() {
    let corrupt: &dyn Fn(&mut Vm) = &|vm| {
        let obj = vm.heap_live()[0].0;
        let gadget = vm.func_addr("gadget").unwrap();
        vm.attacker_write_u64(obj + 8, gadget).unwrap();
    };
    for mech in Mechanism::ALL {
        for enforce in [Backend::PacInPointer, Backend::MacTable] {
            let img = instrumented(VICTIM, mech, OptLevel::Cfg).with_backend(enforce);
            let label = format!("{mech:?}/{enforce:?}");
            let i = run_one(&img, ExecBackend::Interp, 10_000_000, Some(corrupt));
            let c = run_one(&img, ExecBackend::Compiled, 10_000_000, Some(corrupt));
            assert_eq!(i.audit.len(), c.audit.len(), "{label}: audit count");
            for (a, b) in i.audit.iter().zip(&c.audit) {
                assert_eq!(a.mechanism, b.mechanism, "{label}: mechanism");
                assert_eq!(a.modifier, b.modifier, "{label}: modifier");
                assert_eq!(a.site, b.site, "{label}: site");
                assert_eq!(a.func, b.func, "{label}: func");
                assert_eq!(a.line, b.line, "{label}: line");
                assert_eq!(a.inst, b.inst, "{label}: inst");
                assert_eq!(a.detail, b.detail, "{label}: detail");
            }
        }
    }
}

/// With the flight recorder armed, an RSTI detection synthesizes an
/// incident, and the whole incident — lineage, event window, model-cycle
/// timestamps — is bit-identical across engines (it rides on the
/// `ExecResult` equality in `assert_parity`). Non-RSTI traps (e.g. a
/// non-canonical call under a PAC-bit-breaking corruption) produce none.
/// Each configuration runs with the recorder alone and again with
/// attribution riding along at a prime sampling period: the failing auth
/// traps mid-block, and its site and function each record the trap.
#[test]
fn incident_parity_per_mechanism() {
    let corrupt: &dyn Fn(&mut Vm) = &|vm| {
        let obj = vm.heap_live()[0].0;
        let gadget = vm.func_addr("gadget").unwrap();
        vm.attacker_write_u64(obj + 8, gadget).unwrap();
    };
    let mut incidents = 0;
    for mech in Mechanism::ALL {
        for opt in OptLevel::ALL {
            for enforce in [Backend::PacInPointer, Backend::MacTable] {
                for attr in [None, Some(97)] {
                    let img = instrumented(VICTIM, mech, opt).with_backend(enforce).with_record();
                    let img = match attr {
                        Some(every) => img.with_attr_sampling(every),
                        None => img,
                    };
                    let label = format!("{mech:?}/{opt:?}/{enforce:?}/attr={attr:?}");
                    let r = assert_parity(&img, 10_000_000, Some(corrupt), &label);
                    let detected =
                        matches!(&r.status, Status::Trapped(t) if t.is_detection());
                    assert_eq!(
                        r.incident.is_some(),
                        detected,
                        "{label}: incident iff RSTI detection"
                    );
                    let Some(inc) = &r.incident else { continue };
                    incidents += 1;
                    if let Some(p) = &r.attr {
                        let traps = p.sites.iter().map(|s| s.traps).sum::<u64>();
                        assert_eq!(traps, 1, "{label}: site traps");
                        let fire = p.funcs.iter().find(|f| f.name == "fire").expect("fire");
                        assert_eq!(fire.traps, 1, "{label}: function traps");
                    }
                    assert_eq!(inc.mechanism, mech.name(), "{label}");
                    assert!(
                        inc.check_site.starts_with("fire:"),
                        "{label}: failing check site names the victim function, got {:?}",
                        inc.check_site
                    );
                    assert!(!inc.window.is_empty(), "{label}: event window present");
                    assert_eq!(
                        inc.window.last().map(|e| e.kind.as_str()),
                        Some("auth_fail"),
                        "{label}: window closes with the failing auth"
                    );
                    // The raw overwrite planted a never-signed value: lineage
                    // must come up empty and the verdict must say so.
                    assert!(inc.lineage.is_none(), "{label}: raw write has no sign lineage");
                    assert!(inc.verdict().contains("never signed"), "{label}: {}", inc.verdict());
                }
            }
        }
    }
    assert!(incidents > 0, "no configuration produced an incident");
}

/// Recorder inertness: with `--record` off the result — cycles, insts,
/// counters, audit — is bit-identical to a build that never arms the
/// recorder, under both engines (the PR 7 attr-off discipline).
#[test]
fn recorder_off_is_inert() {
    for exec in [ExecBackend::Interp, ExecBackend::Compiled] {
        let plain = instrumented(MIXED, Mechanism::Stwc, OptLevel::Cfg).with_exec(exec);
        let armed = plain.clone().with_record();
        let off = Vm::new(&plain).run();
        let on = Vm::new(&armed).run();
        assert_eq!(off.status, on.status, "{}", exec.label());
        assert_eq!(off.output, on.output, "{}", exec.label());
        assert_eq!(off.cycles, on.cycles, "{}: recorder must not change the cycle model", exec.label());
        assert_eq!(off.insts, on.insts, "{}", exec.label());
        assert_eq!(off.pac_signs, on.pac_signs, "{}", exec.label());
        assert_eq!(off.pac_auths, on.pac_auths, "{}", exec.label());
        assert_eq!(off.site_counts, on.site_counts, "{}", exec.label());
        assert_eq!(off.audit, on.audit, "{}", exec.label());
        // A clean run never synthesizes an incident, armed or not.
        assert_eq!(off.incident, None, "{}", exec.label());
        assert_eq!(on.incident, None, "{}", exec.label());
    }
}

/// A replayed (previously signed, wrong-context) pointer resolves to its
/// sign site: the attacker copies the signed bits from one slot over
/// another, and the incident's lineage names the original sign event
/// while the verdict calls out the modifier mismatch — identically under
/// both engines.
#[test]
fn replay_incident_carries_sign_lineage() {
    let src = r#"
        struct alpha { long v; };
        struct beta { long v; };
        struct alpha* ga;
        struct beta* gb;
        long fire() { return ga->v + gb->v; }
        int main() {
            ga = (struct alpha*) malloc(sizeof(struct alpha));
            gb = (struct beta*) malloc(sizeof(struct beta));
            ga->v = 1;
            gb->v = 2;
            return (int) fire();
        }
    "#;
    let replay: &dyn Fn(&mut Vm) = &|vm| {
        // Substitute the signed beta pointer into alpha's slot: a replay
        // of a legitimately signed value into the wrong context.
        let src_a = vm.global_addr("gb").unwrap();
        let dst_a = vm.global_addr("ga").unwrap();
        let bytes = vm.attacker_read(src_a, 8).unwrap();
        vm.attacker_write(dst_a, &bytes).unwrap();
    };
    let img = instrumented(src, Mechanism::Stwc, OptLevel::None).with_record();
    let r = assert_parity(&img, 10_000_000, Some(replay), "replay-lineage");
    assert!(
        matches!(&r.status, Status::Trapped(t) if t.is_detection()),
        "{:?}",
        r.status
    );
    let inc = r.incident.expect("detection synthesizes an incident");
    let lin = inc.lineage.as_ref().expect("replayed value was legitimately signed");
    assert_eq!(lin.func, "main", "signed while main initialized the globals");
    assert!(lin.cycle < inc.cycle, "sign precedes the failing auth");
    assert_ne!(lin.modifier, inc.presented_modifier, "cross-type replay");
    assert!(inc.verdict().contains("modifier mismatch"), "{}", inc.verdict());
}

// ---- observed-run parity: block counters vs per-op observation ------------

/// A call mid-block whose caller resumes at a non-zero index with check
/// sites after the call (`make` returns, then `o->fp` is signed and
/// authenticated in the same block), and an external builtin that
/// returns `Next` mid-block ahead of more sites.
const RESUME: &str = r#"
    extern long ext_hash(char* s);
    void benign() { print_str("benign"); }
    struct obj { long pad; void (*fp)(); };
    struct obj* make() { return (struct obj*) malloc(sizeof(struct obj)); }
    int main() {
        int i = 0;
        long acc = 0;
        while (i < 40) {
            struct obj* o = make();
            o->fp = benign;
            long h = ext_hash("key");
            o->pad = h + i;
            o->fp();
            acc = acc + o->pad;
            free(o);
            i = i + 1;
        }
        print_int(acc);
        return 0;
    }
"#;

/// A lost-type double pointer (§4.7.7): `sink`'s parameter load is a
/// `pp_auth`, right after a call in the same block. Stripping the CE tag
/// from the spilled parameter while `fire` runs makes that `pp_auth` trap
/// before it authenticates — a trapping op that performs fewer auths than
/// a completed one.
const PP_VICTIM: &str = r#"
    struct node { int key; };
    void fire() { }
    long sink(void** pp) {
        fire();
        void* inner = *pp;
        return 0;
    }
    int main() {
        struct node* p = (struct node*) malloc(sizeof(struct node));
        sink((void**) &p);
        return 0;
    }
"#;

/// Whether some block of `img` holds a call of the given kind followed by
/// a check site — the shape the counter model must resume exactly.
fn has_site_after_call(img: &Image, external: bool) -> bool {
    use rsti_ir::Inst;
    let m = &img.module;
    m.funcs.iter().flat_map(|f| &f.blocks).any(|b| {
        let call = b.insts.iter().position(|n| match &n.inst {
            Inst::Call { callee, .. } => m.funcs[callee.0 as usize].is_external == external,
            _ => false,
        });
        call.is_some_and(|c| {
            b.insts[c + 1..].iter().any(|n| {
                matches!(
                    n.inst,
                    Inst::PacSign { .. } | Inst::PacAuth { .. } | Inst::PacStrip { .. }
                )
            })
        })
    })
}

/// Attribution + recorder parity on the shapes the compiled engine's
/// block counters must get exactly right, at sample periods that put
/// boundaries inside blocks (1 samples at every charge; a prime period
/// lands mid-block and several times in one block): a block resumed
/// after a call with sites after it, an external builtin returning
/// `Next` mid-block, and a `pp_auth` that traps before authenticating.
/// (Fuel spent mid-block and a failing `pac_auth` mid-block are inputs
/// of `fuel_exhaustion_accounting_parity` and
/// `incident_parity_per_mechanism`.) Profile, incident and every other
/// result field must match the interpreter's.
#[test]
fn observed_edge_case_parity() {
    let strip_tag: &dyn Fn(&mut Vm) = &|vm| {
        let slot = vm.local_addr("pp").unwrap();
        let bytes: [u8; 8] = vm.attacker_read(slot, 8).unwrap().try_into().unwrap();
        let raw = u64::from_le_bytes(bytes) & 0x00FF_FFFF_FFFF_FFFF;
        vm.attacker_write_u64(slot, raw).unwrap();
    };
    let resume = instrumented(RESUME, Mechanism::Stwc, OptLevel::Cfg);
    assert!(has_site_after_call(&resume, false), "premise: a site follows an internal call");
    assert!(has_site_after_call(&resume, true), "premise: a site follows an external call");
    type Case<'a> = (String, Image, Option<&'a dyn Fn(&mut Vm)>);
    let mut cases: Vec<Case> = Vec::new();
    for enforce in [Backend::PacInPointer, Backend::MacTable] {
        cases.push((format!("resume/{enforce:?}"), resume.clone().with_backend(enforce), None));
        let pp = instrumented(PP_VICTIM, Mechanism::Stwc, OptLevel::None).with_backend(enforce);
        cases.push((format!("pp-trap/{enforce:?}"), pp, Some(strip_tag)));
    }
    for (label, img, attack) in &cases {
        for every in [1, 97, 4096] {
            let img = img.clone().with_attr_sampling(every).with_record();
            let label = format!("{label}/every={every}");
            let r = assert_parity(&img, 10_000_000, *attack, &label);
            let p = r.attr.as_ref().expect("attr profile");
            if attack.is_none() {
                assert_eq!(r.status, Status::Exited(0), "{label}");
                assert!(p.samples > 0, "{label}: sampler never fired");
                continue;
            }
            assert!(matches!(&r.status, Status::Trapped(t) if t.is_detection()), "{label}");
            assert!(r.incident.is_some(), "{label}: incident");
            let sink = p.funcs.iter().find(|f| f.name == "sink").expect("sink");
            assert_eq!(sink.traps, 1, "{label}: function traps");
            let trapped: Vec<_> = p.sites.iter().filter(|s| s.traps > 0).collect();
            assert_eq!(trapped.len(), 1, "{label}: one trapping site");
            assert_eq!((trapped[0].site.kind, trapped[0].traps), ("pp_auth", 1), "{label}");
            assert_eq!(trapped[0].auths, 0, "{label}: the pp_auth trapped before authenticating");
        }
    }
}
