//! Storage keys: identifying *which variable* a pointer load/store touches.
//!
//! The paper's pass knows, for every instrumented load/store, which source
//! variable is being accessed — "every load/store has this LLVM metadata"
//! (§4.4). We recover the same fact by walking the definition chain of the
//! address operand back to its root: an `alloca` (local/param), a global, a
//! struct-field GEP, or — for accesses through a loaded pointer, where no
//! named variable is statically known — the *declared type* of the storage,
//! which is exactly what the IR gives the LLVM pass in that case.

use rsti_ir::{
    FuncId, Function, Inst, Operand, StructId, TypeId, Module, ValueId, VarId,
};

/// Identifies the storage a pointer access touches. This is the unit the
/// STI analysis assigns RSTI-types to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StorageKey {
    /// A named variable (local, parameter, or global) with debug info.
    Var(VarId),
    /// A struct field (field-sensitive analysis, §4.7.4).
    Field(StructId, u32),
    /// Anonymous storage reached through a pointer: all the IR knows is the
    /// declared type of what is stored there.
    TypeOf(TypeId),
}

/// Per-function map from value to its defining instruction, for def-chain
/// walks: a table indexed by [`ValueId`]. Instrumentation builds one per
/// function and shares it between fact collection, the pointer-to-pointer
/// plan and the rewrite.
pub struct DefMap<'f> {
    defs: Vec<Option<&'f Inst>>,
}

impl<'f> DefMap<'f> {
    /// Builds the def map of a function.
    pub fn new(f: &'f Function) -> Self {
        let mut defs = vec![None; f.value_types.len()];
        for node in f.insts() {
            if let Some(r) = node.inst.result() {
                let i = r.0 as usize;
                if i >= defs.len() {
                    defs.resize(i + 1, None);
                }
                defs[i] = Some(&node.inst);
            }
        }
        DefMap { defs }
    }

    /// One def map per function of `m`, indexed by `FuncId` (empty for
    /// externals).
    pub fn per_function(m: &'f Module) -> Vec<DefMap<'f>> {
        m.funcs.iter().map(DefMap::new).collect()
    }

    /// The defining instruction of `v`, if `v` is not a parameter.
    pub fn def(&self, v: ValueId) -> Option<&'f Inst> {
        self.defs.get(v.0 as usize).copied().flatten()
    }
}

/// A fresh value of type `ty`, appended to a function's value-type table
/// `tys`.
pub(crate) fn fresh(tys: &mut Vec<TypeId>, ty: TypeId) -> ValueId {
    let id = ValueId(tys.len() as u32);
    tys.push(ty);
    id
}

/// Resolves the storage key for an *address* operand (the `ptr` of a
/// load/store). `m` supplies global debug info; `f` the function.
pub fn storage_of_addr(
    m: &Module,
    f: &Function,
    defs: &DefMap<'_>,
    addr: &Operand,
) -> StorageKey {
    match addr {
        Operand::GlobalAddr(gid, _) => StorageKey::Var(m.global(*gid).var),
        Operand::Value(v) => storage_of_value_addr(m, f, defs, *v, 0),
        // Constant addresses (null, function addresses, strings) are not
        // variable storage; classify by pointee type.
        other => anon_of_operand(m, f, other),
    }
}

fn anon_of_operand(m: &Module, f: &Function, op: &Operand) -> StorageKey {
    let ty = operand_type(m, f, op);
    StorageKey::TypeOf(m.types.pointee(ty).unwrap_or(ty))
}

/// Type of an operand in the context of `f`.
pub fn operand_type(_m: &Module, f: &Function, op: &Operand) -> TypeId {
    match op {
        Operand::Value(v) => f.value_type(*v),
        Operand::ConstInt(_, t)
        | Operand::ConstFloat(_, t)
        | Operand::Null(t)
        | Operand::FuncAddr(_, t)
        | Operand::GlobalAddr(_, t)
        | Operand::Str(_, t) => *t,
    }
}

fn storage_of_value_addr(
    m: &Module,
    f: &Function,
    defs: &DefMap<'_>,
    v: ValueId,
    depth: u32,
) -> StorageKey {
    if depth > 64 {
        // Defensive: cyclic chains cannot occur in verified IR, but never
        // loop unboundedly.
        return StorageKey::TypeOf(f.value_type(v));
    }
    let Some(inst) = defs.def(v) else {
        // A parameter used directly as an address: anonymous storage typed
        // by its pointee.
        let ty = f.value_type(v);
        return StorageKey::TypeOf(m.types.pointee(ty).unwrap_or(ty));
    };
    match inst {
        Inst::Alloca { var: Some(var), .. } => StorageKey::Var(*var),
        Inst::Alloca { ty, var: None, .. } => StorageKey::TypeOf(*ty),
        Inst::FieldAddr { struct_id, field, .. } => {
            StorageKey::Field(*struct_id, *field as u32)
        }
        Inst::IndexAddr { base, .. } => match base {
            Operand::Value(b) => storage_of_value_addr(m, f, defs, *b, depth + 1),
            other => storage_of_addr(m, f, defs, other),
        },
        Inst::BitCast { value, .. } => match value {
            Operand::Value(b) => storage_of_value_addr(m, f, defs, *b, depth + 1),
            other => storage_of_addr(m, f, defs, other),
        },
        Inst::PacAuth { value, .. } | Inst::PacSign { value, .. } | Inst::PacStrip { value, .. } => {
            match value {
                Operand::Value(b) => storage_of_value_addr(m, f, defs, *b, depth + 1),
                other => storage_of_addr(m, f, defs, other),
            }
        }
        // Address arrived through a load (e.g. `*pp` used as an address),
        // a call result, or malloc: anonymous storage of the pointee type.
        _ => {
            let ty = f.value_type(v);
            StorageKey::TypeOf(m.types.pointee(ty).unwrap_or(ty))
        }
    }
}

/// Resolves the *root variable* a pointer **value** (not address) was last
/// loaded from, together with whether a pointer cast lies on the def chain.
/// Used for the flow graph (scope analysis) and for cast/argument
/// instrumentation decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueRoot {
    /// The storage the value was read from, when statically known.
    pub key: Option<StorageKey>,
    /// Static type of the storage the value was read from.
    pub root_ty: Option<TypeId>,
    /// Whether a `BitCast` lies between the root and this value.
    pub casted: bool,
    /// `true` when the value is the *address of* the rooted storage
    /// (`&p`), rather than the value loaded from it. An escaping address
    /// means the storage becomes reachable anonymously, which demotes the
    /// variable into its type's anonymous class (see `rsti-core::sti`).
    pub is_address: bool,
}

/// Computes the [`ValueRoot`] of a pointer value operand.
pub fn root_of_value(
    m: &Module,
    f: &Function,
    defs: &DefMap<'_>,
    op: &Operand,
) -> ValueRoot {
    match op {
        Operand::Value(v) => root_of_value_id(m, f, defs, *v, false, 0),
        other => root_of_const_operand(m, other, false),
    }
}

/// Root of a constant operand. `&g` on a global is an address-of exactly
/// like `&x` on a local: the storage escapes and accesses through the
/// aliasing pointer can only be checked against the type-level class, so
/// the global must be demoted the same way (missing this signs stores to
/// the global with its own class while aliased loads authenticate against
/// the anonymous class — a false PAC trap on benign programs).
fn root_of_const_operand(m: &Module, op: &Operand, casted: bool) -> ValueRoot {
    match op {
        Operand::GlobalAddr(gid, ty) => ValueRoot {
            key: Some(StorageKey::Var(m.global(*gid).var)),
            root_ty: Some(*ty),
            casted,
            is_address: true,
        },
        // Other constants (null, ints, function addresses, strings) have no
        // variable storage root.
        _ => ValueRoot { key: None, root_ty: None, casted, is_address: false },
    }
}

fn root_of_value_id(
    m: &Module,
    f: &Function,
    defs: &DefMap<'_>,
    v: ValueId,
    casted: bool,
    depth: u32,
) -> ValueRoot {
    if depth > 64 {
        return ValueRoot { key: None, root_ty: None, casted, is_address: false };
    }
    let Some(inst) = defs.def(v) else {
        // Parameter value: its root is the parameter variable itself.
        for (pv, var) in &f.params {
            if *pv == v {
                if let Some(var) = var {
                    return ValueRoot {
                        key: Some(StorageKey::Var(*var)),
                        root_ty: Some(f.value_type(v)),
                        casted,
                        is_address: false,
                    };
                }
            }
        }
        return ValueRoot { key: None, root_ty: None, casted, is_address: false };
    };
    match inst {
        Inst::Load { ptr, ty, .. } => {
            let key = storage_of_addr(m, f, defs, ptr);
            ValueRoot { key: Some(key), root_ty: Some(*ty), casted, is_address: false }
        }
        Inst::BitCast { value, .. } => match value {
            Operand::Value(b) => root_of_value_id(m, f, defs, *b, true, depth + 1),
            other => root_of_const_operand(m, other, true),
        },
        Inst::PacAuth { value, .. } | Inst::PacSign { value, .. } => match value {
            Operand::Value(b) => root_of_value_id(m, f, defs, *b, casted, depth + 1),
            other => root_of_const_operand(m, other, casted),
        },
        Inst::IndexAddr { base: Operand::Value(b), .. } => {
            root_of_value_id(m, f, defs, *b, casted, depth + 1)
        }
        Inst::IndexAddr { base, .. } => root_of_const_operand(m, base, casted),
        // &local, &global, &field: the value *is* the address of that
        // storage — root it there so `&p` passed around links p's class.
        Inst::Alloca { var: Some(var), .. } => ValueRoot {
            key: Some(StorageKey::Var(*var)),
            root_ty: Some(f.value_type(v)),
            casted,
            is_address: true,
        },
        Inst::FieldAddr { struct_id, field, .. } => ValueRoot {
            key: Some(StorageKey::Field(*struct_id, *field as u32)),
            root_ty: Some(f.value_type(v)),
            casted,
            is_address: true,
        },
        _ => ValueRoot { key: None, root_ty: None, casted, is_address: false },
    }
}

/// Convenience: the storage key of a function id (used to look up callee
/// parameter variables).
pub fn param_keys(m: &Module, fid: FuncId) -> Vec<Option<StorageKey>> {
    m.func(fid)
        .params
        .iter()
        .map(|(_, var)| var.map(StorageKey::Var))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsti_frontend::compile;

    #[test]
    fn resolves_local_global_field_and_anon() {
        let m = compile(
            r#"
            struct ctx { void* data; };
            int* g;
            void f(struct ctx* c, int** pp) {
                int* local = null;
                local = *pp;       // store to Var(local); load through pp -> anon
                c->data = local;   // store to Field(ctx,data)
                g = local;         // store to Var(g)
            }
            int main() { return 0; }
        "#,
            "t",
        )
        .unwrap();
        let fid = m.func_by_name("f").unwrap();
        let f = m.func(fid);
        let defs = DefMap::new(f);

        let mut seen_var_local = false;
        let mut seen_field = false;
        let mut seen_global = false;
        let mut seen_anon = false;
        for node in f.insts() {
            match &node.inst {
                Inst::Store { ptr, .. } => match storage_of_addr(&m, f, &defs, ptr) {
                    StorageKey::Var(v) => {
                        let name = &m.var(v).name;
                        if name == "local" {
                            seen_var_local = true;
                        }
                        if name == "g" {
                            seen_global = true;
                        }
                    }
                    StorageKey::Field(sid, idx) => {
                        let def = m.types.struct_def(sid);
                        assert_eq!(def.name, "ctx");
                        assert_eq!(def.fields[idx as usize].name, "data");
                        seen_field = true;
                    }
                    StorageKey::TypeOf(_) => {}
                },
                Inst::Load { ptr, .. } => {
                    if let StorageKey::TypeOf(t) = storage_of_addr(&m, f, &defs, ptr) {
                        // load of *pp goes through anonymous int* storage
                        if m.types.display(t) == "int*" {
                            seen_anon = true;
                        }
                    }
                }
                _ => {}
            }
        }
        assert!(seen_var_local && seen_field && seen_global && seen_anon);
    }

    #[test]
    fn value_roots_track_casts() {
        let m = compile(
            r#"
            void take(void* v) {}
            int main() {
                int* p = null;
                take(p);
                return 0;
            }
        "#,
            "t",
        )
        .unwrap();
        let fid = m.func_by_name("main").unwrap();
        let f = m.func(fid);
        let defs = DefMap::new(f);
        let call = f
            .insts()
            .find_map(|n| match &n.inst {
                Inst::Call { args, .. } => Some(args[0].clone()),
                _ => None,
            })
            .unwrap();
        let root = root_of_value(&m, f, &defs, &call);
        assert!(root.casted, "implicit int*->void* conversion is a cast");
        match root.key {
            Some(StorageKey::Var(v)) => assert_eq!(m.var(v).name, "p"),
            other => panic!("unexpected root {other:?}"),
        }
    }
}
