//! The RSTI instrumentation pass.
//!
//! Rewrites a module so that every pointer load/store is guarded by PA
//! (§4.7):
//!
//! * **on-store signing** — a pointer value is signed with its storage's
//!   RSTI-type modifier immediately before the store, so pointers at rest
//!   in memory always carry a PAC;
//! * **on-load authentication** — a pointer is authenticated right after
//!   the load with the same modifier; a corrupted or substituted pointer
//!   poisons and the first use traps ("the authenticated address is always
//!   in a register", §4.7.2 — registers are outside the attacker's reach);
//! * **cast / argument re-signing** — STWC re-signs pointer arguments that
//!   were cast (§4.6); STL re-signs *every* pointer argument because the
//!   location changes; STC needs neither (compatible classes are merged);
//! * **external-call stripping** — PACs are stripped before pointers enter
//!   uninstrumented code (§7);
//! * **pointer-to-pointer CE/FE** — lost-type double-pointer arguments are
//!   wrapped in `pp_add`/`pp_sign`/`pp_add_tbi`, and the receiving
//!   parameter's loads use `pp_auth` (§4.7.7);
//! * **static initializers** — pointer-typed globals initialized with
//!   function or string addresses are recorded so the loader (the VM)
//!   signs them before `main` runs.

use crate::ptr2ptr::{plan_pp_with, PpPlan};
use crate::sti::{analyze_with, Mechanism, StiAnalysis};
use crate::storage::{fresh, operand_type, root_of_value, storage_of_addr, DefMap, StorageKey};
use rsti_ir::{
    BasicBlock, DebugLoc, FuncId, Function, GlobalId, GlobalInit, Inst, InstNode, Module,
    Operand, PacKey, PacSite, Terminator, TypeId, ValueId, VarId,
};

/// Instrumentation-site counters (per module). These are the quantities
/// the paper correlates with overhead (§6.3.2: Pearson 0.75–0.8 between
/// instrumented load/stores and slowdown).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InstrumentStats {
    /// On-store signs inserted.
    pub signs_on_store: usize,
    /// On-load authentications inserted.
    pub auths_on_load: usize,
    /// STWC cast-boundary re-sign pairs (each pair = 1 auth + 1 sign).
    pub cast_resigns: usize,
    /// STL argument re-sign pairs.
    pub arg_resigns: usize,
    /// PAC strips before external calls.
    pub strips: usize,
    /// `pp_add`/`pp_sign`/`pp_add_tbi` triples inserted.
    pub pp_signs: usize,
    /// `pp_auth` loads inserted.
    pub pp_auths: usize,
}

impl InstrumentStats {
    /// Total PA operations inserted (the cost driver).
    pub fn total_pac_ops(&self) -> usize {
        self.signs_on_store
            + self.auths_on_load
            + 2 * self.cast_resigns
            + 2 * self.arg_resigns
            + self.strips
            + 3 * self.pp_signs
            + self.pp_auths
    }
}

/// Load-time signing directive for a pointer-typed global with a non-zero
/// initializer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalSign {
    /// The global to sign.
    pub global: GlobalId,
    /// Key to sign with.
    pub key: PacKey,
    /// Static modifier.
    pub modifier: u64,
    /// Whether to XOR the global's own address into the modifier (STL).
    pub mix_location: bool,
}

/// An instrumented program: the rewritten module plus everything the
/// runtime needs.
#[derive(Debug, Clone)]
pub struct InstrumentedProgram {
    /// The rewritten module.
    pub module: Module,
    /// Mechanism used.
    pub mechanism: Mechanism,
    /// The analysis the instrumentation was derived from (computed on the
    /// original module; storage keys remain valid).
    pub analysis: StiAnalysis,
    /// The pointer-to-pointer plan.
    pub pp_plan: PpPlan,
    /// Site counters.
    pub stats: InstrumentStats,
    /// Globals the loader must sign before `main`.
    pub global_signing: Vec<GlobalSign>,
}

/// When the runtime modifier mixes the slot address (`&p`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LocPolicy {
    /// Never (STC, STWC, PARTS).
    Never,
    /// Every site (STL).
    Always,
    /// Only storage whose RSTI-type has more members than the threshold —
    /// the paper's §7 adaptive proposal.
    ClassesLargerThan(usize),
}

impl LocPolicy {
    fn applies(&self, analysis: &StiAnalysis, key: StorageKey) -> bool {
        match self {
            LocPolicy::Never => false,
            LocPolicy::Always => true,
            LocPolicy::ClassesLargerThan(t) => analysis
                .class_of(key)
                .map(|c| c.members.len() > *t)
                .unwrap_or(false),
        }
    }
}

/// Fallback modifier for storage with no analysis class (should not occur
/// in practice; kept total for robustness).
fn fallback_modifier(m: &Module, ty: TypeId) -> u64 {
    let mut h: u64 = 0x2545F4914F6CDD1D;
    for b in m.types.display(ty).bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Instruments `m` under `mechanism`. The input module must not already be
/// instrumented.
pub fn instrument(m: &Module, mechanism: Mechanism) -> InstrumentedProgram {
    let defs = DefMap::per_function(m);
    let analysis = analyze_with(m, mechanism, &defs);
    let pp_plan = if mechanism == Mechanism::Parts {
        PpPlan::default()
    } else {
        plan_pp_with(m, &analysis, &defs)
    };
    let loc_policy = if mechanism.uses_location() {
        LocPolicy::Always
    } else {
        LocPolicy::Never
    };
    finish_instrument(m, &defs, mechanism, analysis, pp_plan, loc_policy)
}

/// The paper's §7 adaptive variant: STWC everywhere, plus STL-style
/// location binding for storage whose equivalence class exceeds
/// `ecv_threshold` members (e.g. xalancbmk's 122-variable class).
/// Costs sit between STWC and STL; large-class substitution is closed.
pub fn instrument_adaptive(m: &Module, ecv_threshold: usize) -> InstrumentedProgram {
    let defs = DefMap::per_function(m);
    let analysis = analyze_with(m, Mechanism::Stwc, &defs);
    let pp_plan = plan_pp_with(m, &analysis, &defs);
    finish_instrument(
        m,
        &defs,
        Mechanism::Stwc,
        analysis,
        pp_plan,
        LocPolicy::ClassesLargerThan(ecv_threshold),
    )
}

fn finish_instrument(
    m: &Module,
    defs: &[DefMap<'_>],
    mechanism: Mechanism,
    analysis: StiAnalysis,
    pp_plan: PpPlan,
    loc_policy: LocPolicy,
) -> InstrumentedProgram {
    let tel = rsti_telemetry::global();
    let _span = tel.span(rsti_telemetry::Phase::Instrument);
    let mut rw = Rewriter {
        m,
        mechanism,
        analysis: &analysis,
        pp_plan: &pp_plan,
        loc_policy,
        stats: InstrumentStats::default(),
        fallback: vec![None; m.types.len()],
    };
    let funcs = m
        .funcs
        .iter()
        .enumerate()
        .map(|(fi, f)| {
            if f.is_external {
                f.clone()
            } else {
                rw.rewrite_function(FuncId(fi as u32), f, &defs[fi])
            }
        })
        .collect();

    // Static pointer initializers must be signed at load time.
    let mut global_signing = Vec::new();
    for (gi, g) in m.globals.iter().enumerate() {
        let gid = GlobalId(gi as u32);
        if !m.types.is_ptr(g.ty) {
            continue;
        }
        if matches!(g.init, GlobalInit::FuncAddr(_) | GlobalInit::Str(_)) {
            let key = StorageKey::Var(g.var);
            let (modifier, code) = match analysis.class_of(key) {
                Some(c) => (c.modifier, c.code_ptr),
                None => (rw.fallback_modifier(g.ty), m.types.is_func_ptr(g.ty)),
            };
            global_signing.push(GlobalSign {
                global: gid,
                key: if code { PacKey::Ia } else { PacKey::Da },
                modifier,
                mix_location: loc_policy.applies(&analysis, key),
            });
        }
    }
    let stats = rw.stats;
    let out = Module {
        name: m.name.clone(),
        types: m.types.clone(),
        funcs,
        globals: m.globals.clone(),
        strings: m.strings.clone(),
        vars: m.vars.clone(),
    };

    debug_assert!(
        rsti_ir::verify_module(&out).is_ok(),
        "instrumentation produced ill-formed IR: {:#?}",
        rsti_ir::verify_module(&out).err()
    );

    use rsti_telemetry::CounterId;
    tel.add(CounterId::SignsInserted, (stats.signs_on_store + stats.cast_resigns
        + stats.arg_resigns + stats.pp_signs) as u64);
    tel.add(CounterId::AuthsInserted, (stats.auths_on_load + stats.cast_resigns
        + stats.arg_resigns + stats.pp_auths) as u64);
    tel.add(CounterId::StripsInserted, stats.strips as u64);
    tel.add(CounterId::PpSitesInserted, (stats.pp_signs + stats.pp_auths) as u64);

    InstrumentedProgram { module: out, mechanism, analysis, pp_plan, stats, global_signing }
}

/// A sign→auth round-trip of `value` under one `(key, modifier)`: the
/// boundary re-sign model. Returns the authenticated value.
fn push_resign(
    out: &mut Vec<InstNode>,
    tys: &mut Vec<TypeId>,
    value: Operand,
    ty: TypeId,
    (key, modifier): (PacKey, u64),
    site: PacSite,
    loc: Option<DebugLoc>,
) -> ValueId {
    let signed = fresh(tys, ty);
    out.push(InstNode {
        inst: Inst::PacSign { result: signed, value, key, modifier, loc: None, site },
        loc,
    });
    let authed = fresh(tys, ty);
    out.push(InstNode {
        inst: Inst::PacAuth {
            result: authed,
            value: signed.into(),
            key,
            modifier,
            loc: None,
            site,
        },
        loc,
    });
    authed
}

/// The module-wide context of one instrumentation run.
struct Rewriter<'a> {
    m: &'a Module,
    mechanism: Mechanism,
    analysis: &'a StiAnalysis,
    pp_plan: &'a PpPlan,
    loc_policy: LocPolicy,
    stats: InstrumentStats,
    /// [`fallback_modifier`] per `TypeId`, computed on first use: it hashes
    /// the type's spelling, and every cast or indirect call asks again.
    fallback: Vec<Option<u64>>,
}

impl Rewriter<'_> {
    fn fallback_modifier(&mut self, ty: TypeId) -> u64 {
        let m = self.m;
        match self.fallback.get_mut(ty.0 as usize) {
            Some(slot) => *slot.get_or_insert_with(|| fallback_modifier(m, ty)),
            None => fallback_modifier(m, ty),
        }
    }

    /// The (key, modifier) pair for a storage key.
    fn class_info(&mut self, key: StorageKey, ty: TypeId) -> (PacKey, u64) {
        match self.analysis.class_of(key) {
            Some(c) => (if c.code_ptr { PacKey::Ia } else { PacKey::Da }, c.modifier),
            None => (
                if self.m.types.is_func_ptr(ty) { PacKey::Ia } else { PacKey::Da },
                self.fallback_modifier(ty),
            ),
        }
    }

    fn rewrite_function(
        &mut self,
        fid: FuncId,
        f: &Function,
        defs: &DefMap<'_>,
    ) -> Function {
        let m = self.m;
        let mechanism = self.mechanism;
        let mut tys = f.value_types.clone();
        let tagged_param_key = |v: VarId| self.pp_plan.tagged_params.contains(&v);
        let mut blocks = Vec::with_capacity(f.blocks.len());

        for blk in &f.blocks {
            let mut out = Vec::with_capacity(blk.insts.len() * 2);
            let mut term = blk.term.clone();

            for node in &blk.insts {
                let loc = node.loc;
                match &node.inst {
                    Inst::Store { value, ptr } => {
                        let vty = operand_type(m, f, value);
                        if !m.types.is_ptr(vty) {
                            out.push(node.clone());
                            continue;
                        }
                        let key = storage_of_addr(m, f, defs, ptr);
                        // Spill of a tagged universal double-pointer
                        // parameter: the value arrives already pp-signed
                        // and tagged; store it untouched so the tag
                        // survives in memory.
                        if let StorageKey::Var(v) = key {
                            if tagged_param_key(v) {
                                let root = root_of_value(m, f, defs, value);
                                if root.key == Some(key) && !root.casted {
                                    out.push(node.clone());
                                    continue;
                                }
                            }
                        }
                        let (pac_key, modifier) = self.class_info(key, vty);
                        let use_loc = self.loc_policy.applies(self.analysis, key);
                        let signed = fresh(&mut tys, vty);
                        out.push(InstNode {
                            inst: Inst::PacSign {
                                result: signed,
                                value: value.clone(),
                                key: pac_key,
                                modifier,
                                loc: use_loc.then(|| ptr.clone()),
                                site: PacSite::OnStore,
                            },
                            loc,
                        });
                        self.stats.signs_on_store += 1;
                        out.push(InstNode {
                            inst: Inst::Store { value: signed.into(), ptr: ptr.clone() },
                            loc,
                        });
                    }
                    Inst::Load { result, ptr, ty } => {
                        if !m.types.is_ptr(*ty) {
                            out.push(node.clone());
                            continue;
                        }
                        let key = storage_of_addr(m, f, defs, ptr);
                        let raw = fresh(&mut tys, *ty);
                        out.push(InstNode {
                            inst: Inst::Load { result: raw, ptr: ptr.clone(), ty: *ty },
                            loc,
                        });
                        if let StorageKey::Var(v) = key {
                            if tagged_param_key(v) {
                                out.push(InstNode {
                                    inst: Inst::PpAuth {
                                        result: *result,
                                        value: raw.into(),
                                        key: PacKey::Da,
                                    },
                                    loc,
                                });
                                self.stats.pp_auths += 1;
                                continue;
                            }
                        }
                        let (pac_key, modifier) = self.class_info(key, *ty);
                        let use_loc = self.loc_policy.applies(self.analysis, key);
                        out.push(InstNode {
                            inst: Inst::PacAuth {
                                result: *result,
                                value: raw.into(),
                                key: pac_key,
                                modifier,
                                loc: use_loc.then(|| ptr.clone()),
                                site: PacSite::OnLoad,
                            },
                            loc,
                        });
                        self.stats.auths_on_load += 1;
                    }
                    Inst::BitCast { result, value, to } => {
                        out.push(node.clone());
                        // §4.6: STWC "authenticates and re-signs pointers
                        // when casts happen"; STL does too (plus location).
                        // STC merged the classes, so the cast is free;
                        // PARTS only knows the element type and does
                        // nothing either.
                        let is_const = !matches!(value, Operand::Value(_));
                        if matches!(mechanism, Mechanism::Stwc | Mechanism::Stl)
                            && m.types.is_ptr(*to)
                            && !is_const
                        {
                            let class = (PacKey::Da, self.fallback_modifier(*to));
                            // Later uses still read the original result id;
                            // the round-trip models the re-signing cost
                            // without rewiring the dataflow (its output
                            // equals its input on the clean in-register
                            // value).
                            push_resign(
                                &mut out,
                                &mut tys,
                                (*result).into(),
                                *to,
                                class,
                                PacSite::CastResign,
                                loc,
                            );
                            self.stats.cast_resigns += 1;
                        }
                    }
                    Inst::Call { result, callee, args } => {
                        let callee_f = m.func(*callee);
                        let mut new_args = Vec::with_capacity(args.len());
                        for (i, a) in args.iter().enumerate() {
                            let aty = operand_type(m, f, a);
                            if !m.types.is_ptr(aty) {
                                new_args.push(a.clone());
                                continue;
                            }
                            if callee_f.is_external {
                                // §7: strip before entering uninstrumented
                                // code.
                                let stripped = fresh(&mut tys, aty);
                                out.push(InstNode {
                                    inst: Inst::PacStrip { result: stripped, value: a.clone() },
                                    loc,
                                });
                                self.stats.strips += 1;
                                new_args.push(stripped.into());
                                continue;
                            }
                            let root = root_of_value(m, f, defs, a);
                            let orig_ty = root.root_ty.unwrap_or(aty);
                            let lost = root.casted
                                && orig_ty != aty
                                && m.types.ptr_depth(orig_ty) >= 2
                                && mechanism != Mechanism::Parts;
                            if lost {
                                // Figure 7 sequence: pp_add, pp_sign,
                                // pp_add_tbi.
                                if let Some(site) = self
                                    .pp_plan
                                    .sites
                                    .iter()
                                    .find(|s| s.func == fid && s.original_ty == orig_ty)
                                {
                                    out.push(InstNode {
                                        inst: Inst::PpAdd {
                                            ce: site.ce,
                                            fe_modifier: site.fe_modifier,
                                        },
                                        loc,
                                    });
                                    let signed = fresh(&mut tys, aty);
                                    out.push(InstNode {
                                        inst: Inst::PpSign {
                                            result: signed,
                                            value: a.clone(),
                                            ce: site.ce,
                                            key: PacKey::Da,
                                        },
                                        loc,
                                    });
                                    let tagged = fresh(&mut tys, aty);
                                    out.push(InstNode {
                                        inst: Inst::PpAddTbi {
                                            result: tagged,
                                            value: signed.into(),
                                            ce: site.ce,
                                        },
                                        loc,
                                    });
                                    self.stats.pp_signs += 1;
                                    new_args.push(tagged.into());
                                    continue;
                                }
                            }
                            // Boundary re-signing: STWC on casted args; STL
                            // on every pointer arg (the location changes).
                            let resign = match mechanism {
                                Mechanism::Stwc => root.casted,
                                Mechanism::Stl => true,
                                Mechanism::Stc | Mechanism::Parts => false,
                            };
                            if resign {
                                let pkey = callee_f
                                    .params
                                    .get(i)
                                    .and_then(|(_, v)| *v)
                                    .map(StorageKey::Var);
                                let class = match pkey {
                                    Some(k) => self.class_info(k, aty),
                                    None => (PacKey::Da, self.fallback_modifier(aty)),
                                };
                                let site = if mechanism == Mechanism::Stl && !root.casted {
                                    self.stats.arg_resigns += 1;
                                    PacSite::ArgResign
                                } else {
                                    self.stats.cast_resigns += 1;
                                    PacSite::CastResign
                                };
                                let authed = push_resign(
                                    &mut out,
                                    &mut tys,
                                    a.clone(),
                                    aty,
                                    class,
                                    site,
                                    loc,
                                );
                                new_args.push(authed.into());
                                continue;
                            }
                            new_args.push(a.clone());
                        }
                        out.push(InstNode {
                            inst: Inst::Call { result: *result, callee: *callee, args: new_args },
                            loc,
                        });
                    }
                    Inst::CallIndirect { result, callee, args, sig } => {
                        let mut new_args = Vec::with_capacity(args.len());
                        for a in args.iter() {
                            let aty = operand_type(m, f, a);
                            let resign = m.types.is_ptr(aty)
                                && match mechanism {
                                    Mechanism::Stl => true,
                                    Mechanism::Stwc => root_of_value(m, f, defs, a).casted,
                                    _ => false,
                                };
                            if !resign {
                                new_args.push(a.clone());
                                continue;
                            }
                            // The callee is dynamic: bind to the argument's
                            // static-type class (all the compiler can know).
                            let class = (PacKey::Da, self.fallback_modifier(aty));
                            let authed = push_resign(
                                &mut out,
                                &mut tys,
                                a.clone(),
                                aty,
                                class,
                                PacSite::ArgResign,
                                loc,
                            );
                            self.stats.arg_resigns += 1;
                            new_args.push(authed.into());
                        }
                        out.push(InstNode {
                            inst: Inst::CallIndirect {
                                result: *result,
                                callee: callee.clone(),
                                sig: sig.clone(),
                                args: new_args,
                            },
                            loc,
                        });
                    }
                    _ => out.push(node.clone()),
                }
            }
            // STL: a returned pointer changes location (callee frame →
            // caller), so it is re-signed at the boundary like an argument
            // (§4.6).
            if mechanism == Mechanism::Stl {
                if let Terminator::Ret(Some(op)) = &blk.term {
                    let rty = operand_type(m, f, op);
                    if m.types.is_ptr(rty) {
                        let class = (PacKey::Da, self.fallback_modifier(rty));
                        let authed = push_resign(
                            &mut out,
                            &mut tys,
                            op.clone(),
                            rty,
                            class,
                            PacSite::ArgResign,
                            blk.term_loc,
                        );
                        self.stats.arg_resigns += 1;
                        term = Terminator::Ret(Some(authed.into()));
                    }
                }
            }
            blocks.push(BasicBlock { insts: out, term, term_loc: blk.term_loc });
        }
        Function {
            name: f.name.clone(),
            sig: f.sig.clone(),
            params: f.params.clone(),
            blocks,
            value_types: tys,
            is_external: f.is_external,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsti_frontend::compile;
    use rsti_ir::{Inst, Operand};

    const PROG: &str = r#"
        struct ctx { void (*send_file)(int x); };
        void foo(struct ctx* c) { }
        void baz(struct ctx* c) { foo(c); }
        void foo2(void* v_ctx) { foo((struct ctx*) v_ctx); }
        int main() {
            struct ctx* c = (struct ctx*) malloc(sizeof(struct ctx));
            foo2((void*) c);
            baz(c);
            return 0;
        }
    "#;

    #[test]
    fn all_pointer_stores_signed_and_loads_authed() {
        let m = compile(PROG, "p").unwrap();
        let p = instrument(&m, Mechanism::Stwc);
        // Every pointer store in the instrumented module is preceded by a
        // PacSign whose result feeds the store.
        for (_, f) in p.module.funcs() {
            let mut prev: Option<&Inst> = None;
            for n in f.insts() {
                if let Inst::Store { value, .. } = &n.inst {
                    let vty = match value {
                        Operand::Value(v) => f.value_type(*v),
                        Operand::ConstInt(_, t) | Operand::Null(t) => *t,
                        _ => continue,
                    };
                    if p.module.types.is_ptr(vty) {
                        assert!(
                            matches!(prev, Some(Inst::PacSign { .. })),
                            "unsigned pointer store in {}",
                            f.name
                        );
                    }
                }
                prev = Some(&n.inst);
            }
        }
        assert!(p.stats.signs_on_store > 0);
        assert!(p.stats.auths_on_load > 0);
        rsti_ir::verify_module(&p.module).unwrap();
    }

    #[test]
    fn mechanism_cost_ordering_matches_paper() {
        let m = compile(PROG, "p").unwrap();
        let stc = instrument(&m, Mechanism::Stc).stats.total_pac_ops();
        let stwc = instrument(&m, Mechanism::Stwc).stats.total_pac_ops();
        let stl = instrument(&m, Mechanism::Stl).stats.total_pac_ops();
        assert!(stc <= stwc, "STC ({stc}) must not exceed STWC ({stwc})");
        assert!(stwc < stl, "STWC ({stwc}) must be cheaper than STL ({stl})");
    }

    #[test]
    fn stwc_resigns_cast_arguments_stl_resigns_all() {
        let m = compile(PROG, "p").unwrap();
        let stwc = instrument(&m, Mechanism::Stwc);
        assert!(stwc.stats.cast_resigns > 0, "{:?}", stwc.stats);
        assert_eq!(stwc.stats.arg_resigns, 0);
        let stc = instrument(&m, Mechanism::Stc);
        assert_eq!(stc.stats.cast_resigns, 0, "{:?}", stc.stats);
        let stl = instrument(&m, Mechanism::Stl);
        assert!(stl.stats.arg_resigns + stl.stats.cast_resigns > stwc.stats.cast_resigns);
    }

    #[test]
    fn stl_loads_carry_location_operands() {
        let m = compile(PROG, "p").unwrap();
        let p = instrument(&m, Mechanism::Stl);
        let mut found = false;
        for (_, f) in p.module.funcs() {
            for n in f.insts() {
                if let Inst::PacAuth { loc: Some(_), .. } = n.inst {
                    found = true;
                }
            }
        }
        assert!(found, "STL must mix &p into modifiers");
        // STWC must not.
        let p = instrument(&m, Mechanism::Stwc);
        for (_, f) in p.module.funcs() {
            for n in f.insts() {
                if let Inst::PacAuth { loc, site, .. } = &n.inst {
                    assert!(loc.is_none(), "unexpected location in STWC at {site:?}");
                }
            }
        }
    }

    #[test]
    fn external_calls_strip_pointer_args() {
        let src = r#"
            extern void syslog(char* msg);
            int main() {
                char* s = "x";
                syslog(s);
                return 0;
            }
        "#;
        let m = compile(src, "p").unwrap();
        let p = instrument(&m, Mechanism::Stwc);
        assert_eq!(p.stats.strips, 1);
        let main = p.module.func_by_name("main").unwrap();
        assert!(p
            .module
            .func(main)
            .insts()
            .any(|n| matches!(n.inst, Inst::PacStrip { .. })));
    }

    #[test]
    fn lost_type_double_pointer_args_get_pp_instrumentation() {
        let src = r#"
            struct node { int key; }
            ;
            void sink(void** pp) {
                void* inner = *pp;
            }
            int main() {
                struct node* p = (struct node*) malloc(sizeof(struct node));
                sink((void**) &p);
                return 0;
            }
        "#;
        let m = compile(src, "p").unwrap();
        let p = instrument(&m, Mechanism::Stwc);
        assert_eq!(p.stats.pp_signs, 1, "{:?}", p.stats);
        assert!(p.stats.pp_auths >= 1, "{:?}", p.stats);
        let main = p.module.func_by_name("main").unwrap();
        let seq: Vec<&Inst> = p.module.func(main).insts().map(|n| &n.inst).collect();
        let add = seq.iter().position(|i| matches!(i, Inst::PpAdd { .. })).unwrap();
        let sgn = seq.iter().position(|i| matches!(i, Inst::PpSign { .. })).unwrap();
        let tbi = seq.iter().position(|i| matches!(i, Inst::PpAddTbi { .. })).unwrap();
        assert!(add < sgn && sgn < tbi, "Figure 7 ordering: pp_add, pp_sign, pp_add_tbi");
    }

    #[test]
    fn globals_with_code_pointer_initializers_are_load_signed() {
        let src = r#"
            void handler() { }
            void (*g_hook)() = handler;
            int main() {
                g_hook();
                return 0;
            }
        "#;
        let m = compile(src, "p").unwrap();
        let p = instrument(&m, Mechanism::Stwc);
        assert_eq!(p.global_signing.len(), 1);
        assert_eq!(p.global_signing[0].key, PacKey::Ia, "code pointers use the I-key");
        assert!(!p.global_signing[0].mix_location);
        let p = instrument(&m, Mechanism::Stl);
        assert!(p.global_signing[0].mix_location, "STL mixes the global's address");
    }

    #[test]
    fn parts_baseline_skips_pp_and_resigns() {
        let m = compile(PROG, "p").unwrap();
        let p = instrument(&m, Mechanism::Parts);
        assert_eq!(p.stats.cast_resigns, 0);
        assert_eq!(p.stats.arg_resigns, 0);
        assert_eq!(p.stats.pp_signs, 0);
        assert!(p.stats.signs_on_store > 0, "PARTS still signs data pointers");
    }

    #[test]
    fn adaptive_cost_sits_between_stwc_and_stl() {
        let m = compile(PROG, "p").unwrap();
        let stwc = instrument(&m, Mechanism::Stwc).stats.total_pac_ops();
        let stl = instrument(&m, Mechanism::Stl).stats.total_pac_ops();
        // Threshold 0: every class is "hot" → every site gets a location,
        // but arg re-signing stays STWC-shaped, so cost <= STL.
        let adaptive = instrument_adaptive(&m, 0).stats.total_pac_ops();
        assert!(adaptive >= stwc, "adaptive {adaptive} < stwc {stwc}");
        assert!(adaptive <= stl, "adaptive {adaptive} > stl {stl}");
        // A huge threshold degenerates to plain STWC.
        let lax = instrument_adaptive(&m, usize::MAX).stats.total_pac_ops();
        assert_eq!(lax, stwc);
    }

    #[test]
    fn adaptive_binds_location_only_on_hot_classes() {
        // Six same-fact globals form one hot class; a lone pointer stays
        // location-free.
        let src = r#"
            struct s { long v; };
            struct s* a; struct s* b; struct s* c;
            struct s* d; struct s* e; struct s* f;
            int* lone;
            void touch() {
                a = (struct s*) malloc(8); b = a; c = a; d = a; e = a; f = a;
                lone = (int*) malloc(4);
            }
            int main() { touch(); return 0; }
        "#;
        let m = compile(src, "p").unwrap();
        let p = instrument_adaptive(&m, 4);
        let mut with_loc = 0;
        let mut without_loc = 0;
        for (_, f) in p.module.funcs() {
            for n in f.insts() {
                if let Inst::PacSign { loc, site: PacSite::OnStore, .. } = &n.inst {
                    if loc.is_some() {
                        with_loc += 1;
                    } else {
                        without_loc += 1;
                    }
                }
            }
        }
        assert!(with_loc >= 6, "hot-class stores bind the location: {with_loc}");
        assert!(without_loc >= 1, "the lone pointer stays plain: {without_loc}");
    }

    #[test]
    fn instrumented_modules_always_verify() {
        for mech in Mechanism::ALL {
            let m = compile(PROG, "p").unwrap();
            let p = instrument(&m, mech);
            rsti_ir::verify_module(&p.module)
                .unwrap_or_else(|e| panic!("{mech}: {e:?}"));
        }
    }
}
