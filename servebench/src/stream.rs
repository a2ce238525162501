//! Seeded request streams: what the server sees for each workload.
//!
//! Every stream is an infinite, deterministic function of `(seed, i)`.
//! Client threads pull the next `i` from a shared counter, so the requests
//! a run sends are always a prefix of its stream, whichever client sends
//! them.

use rsti_core::{Mechanism, OptLevel};
use rsti_rng::Rng64;
use rsti_serve::proto::MechSel;
use rsti_telemetry::json_str;
use rsti_vm::ExecBackend;
use rsti_workloads::kernels::{self as k, Kernel};
use rsti_workloads::nbench_kernels as nk;
use rsti_workloads::AstGenConfig;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every request is a program never seen before.
    ColdPipeline,
    /// A fixed key set, all cache hits, on the compiled engine.
    WarmCompiled,
    /// The same key set on the interpreter.
    WarmInterp,
    /// The compiled key set, alternating `profile` and recorded `run`.
    WarmObserve,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ColdPipeline,
        Workload::WarmCompiled,
        Workload::WarmInterp,
        Workload::WarmObserve,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdPipeline => "cold-pipeline",
            Workload::WarmCompiled => "warm-compiled",
            Workload::WarmInterp => "warm-interp",
            Workload::WarmObserve => "warm-observe",
        }
    }

    /// Looks a workload up by its `--workload` name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The engine every request of a warm workload runs on.
    pub fn warm_exec(self) -> ExecBackend {
        match self {
            Workload::WarmInterp => ExecBackend::Interp,
            _ => ExecBackend::Compiled,
        }
    }
}

/// What a request asks of the server beyond its cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmd {
    /// Build and cache only (the warm-up pass).
    Compile,
    /// Build on a miss, then execute.
    Run,
    /// `run` with the flight recorder armed.
    Record,
    /// Execute with the attribution profiler armed.
    Profile,
}

/// The cache-key axes of a request (enforcement is always `pac`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Axes {
    /// Mechanism.
    pub mech: MechSel,
    /// Optimizer level.
    pub opt: OptLevel,
    /// Execution engine.
    pub exec: ExecBackend,
}

/// Renders one request line. Warm requests name a suite proxy, as
/// `samples/serve_batch.jsonl` does; cold requests carry their source.
/// No `id` is sent, so repeated warm requests get byte-identical replies.
pub fn request_line(cmd: Cmd, program: ProgramRef<'_>, ax: Axes) -> String {
    let (cmd, record) = match cmd {
        Cmd::Compile => ("compile", false),
        Cmd::Run => ("run", false),
        Cmd::Record => ("run", true),
        Cmd::Profile => ("profile", false),
    };
    let program = match program {
        ProgramRef::Workload(name) => format!("\"workload\":{}", json_str(name)),
        ProgramRef::Source(src) => format!("\"source\":{}", json_str(src)),
    };
    format!(
        "{{\"cmd\":\"{cmd}\",{program},\"mech\":\"{}\",\"opt\":\"{}\",\"exec\":\"{}\",\"enforce\":\"pac\"{}}}",
        ax.mech.label(),
        ax.opt.label(),
        ax.exec.label(),
        if record { ",\"record\":true" } else { "" },
    )
}

/// How a request names its program.
#[derive(Debug, Clone, Copy)]
pub enum ProgramRef<'a> {
    /// A suite proxy, resolved by the server.
    Workload(&'a str),
    /// Inline MiniC source.
    Source(&'a str),
}

fn rng_for(seed: u64, stream: u64, i: u64) -> Rng64 {
    Rng64::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ stream.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
            ^ i.wrapping_mul(0x1656_67B1_9E37_79F9),
    )
}

fn shuffle<T>(rng: &mut Rng64, v: &mut [T]) {
    for i in 0..v.len() {
        let j = i + rng.gen_range(0, (v.len() - i) as u64) as usize;
        v.swap(i, j);
    }
}

fn perm(rng: &mut Rng64, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    shuffle(rng, &mut v);
    v
}

// ---------------------------------------------------------------------------
// Warm workloads
// ---------------------------------------------------------------------------

/// Distinct keys in a warm workload; fits the default 128-entry cache.
pub const WARM_KEYS: usize = 96;
/// Mechanisms a warm key is drawn from.
pub const WARM_MECHS: [Mechanism; 4] =
    [Mechanism::Stwc, Mechanism::Stc, Mechanism::Stl, Mechanism::Parts];
/// Optimizer levels a warm key is drawn from.
pub const WARM_OPTS: [OptLevel; 2] = [OptLevel::Cfg, OptLevel::Ipo];

/// One warm cache key: a suite proxy under one mechanism and level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmKey {
    /// Index into `rsti_workloads::all_workloads()`.
    pub proxy: usize,
    /// Mechanism.
    pub mech: Mechanism,
    /// Optimizer level.
    pub opt: OptLevel,
}

/// Draws the [`WARM_KEYS`] distinct keys of a warm workload.
///
/// The draw is stratified so that two seeds ask for comparable work:
/// every proxy appears at least once and the rest appear twice (second
/// key at the other level). Proxies are ranked by how many `->` their
/// source holds (then by length), a fixed stand-in for their pointer
/// density, and cut into groups of four; each
/// group spreads the four mechanisms and two levels over its members in a
/// seeded order, and the twice-drawn proxies are spread evenly over the
/// groups. Without this, which mechanism lands on the few pointer-heavy
/// proxies decides most of `model_overhead_pct`.
///
/// # Panics
/// Panics unless `WARM_KEYS / 2 <= sources.len() <= WARM_KEYS`.
pub fn warm_keys(seed: u64, sources: &[&str]) -> Vec<WarmKey> {
    let n = sources.len();
    assert!(
        (WARM_KEYS / 2..=WARM_KEYS).contains(&n),
        "{n} proxies cannot make {WARM_KEYS} keys of at most two per proxy"
    );
    let mut rng = rng_for(seed, 1, 0);
    let weight = |p: usize| std::cmp::Reverse((sources[p].matches("->").count(), sources[p].len()));
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&p| (weight(p), p));
    let mut keys = Vec::with_capacity(WARM_KEYS);
    let mut primary_opt = vec![OptLevel::Cfg; n];
    for group in order.chunks(4) {
        let mechs = perm(&mut rng, 4);
        let opts = perm(&mut rng, 4);
        for (i, &p) in group.iter().enumerate() {
            let opt = WARM_OPTS[opts[i] / 2];
            primary_opt[p] = opt;
            keys.push(WarmKey { proxy: p, mech: WARM_MECHS[mechs[i]], opt });
        }
    }
    let groups: Vec<&[usize]> = order.chunks(4).collect();
    let mut need = WARM_KEYS - n;
    let mut twice = Vec::with_capacity(need);
    for (gi, group) in groups.iter().enumerate() {
        let take = need.div_ceil(groups.len() - gi).min(group.len());
        let pick = perm(&mut rng, group.len());
        twice.extend(pick[..take].iter().map(|&i| group[i]));
        need -= take;
    }
    twice.sort_by_key(|&p| (weight(p), p));
    for group in twice.chunks(4) {
        let mechs = perm(&mut rng, 4);
        for (i, &p) in group.iter().enumerate() {
            let opt = if primary_opt[p] == OptLevel::Cfg { OptLevel::Ipo } else { OptLevel::Cfg };
            keys.push(WarmKey { proxy: p, mech: WARM_MECHS[mechs[i]], opt });
        }
    }
    keys
}

/// The timed lines of a warm workload: one per key, or two for
/// `warm-observe` (`profile`, then `run` with `record`). Line `j` asks for
/// key `j / lines_per_key`.
pub fn warm_lines(w: Workload, keys: &[WarmKey], proxy_names: &[&str]) -> Vec<String> {
    let cmds: &[Cmd] =
        if w == Workload::WarmObserve { &[Cmd::Profile, Cmd::Record] } else { &[Cmd::Run] };
    keys.iter()
        .flat_map(|k| {
            cmds.iter().map(move |&c| {
                request_line(c, ProgramRef::Workload(proxy_names[k.proxy]), warm_axes(w, k))
            })
        })
        .collect()
}

/// The warm-up pass: one `compile` per key, which builds and caches the
/// image (translation included on the compiled engine) without running it.
pub fn warm_up_lines(w: Workload, keys: &[WarmKey], proxy_names: &[&str]) -> Vec<String> {
    keys.iter()
        .map(|k| {
            request_line(Cmd::Compile, ProgramRef::Workload(proxy_names[k.proxy]), warm_axes(w, k))
        })
        .collect()
}

/// The axes of a warm key on workload `w`.
pub fn warm_axes(w: Workload, k: &WarmKey) -> Axes {
    Axes { mech: MechSel::Fixed(k.mech), opt: k.opt, exec: w.warm_exec() }
}

/// Command of timed line `j` on workload `w`.
pub fn warm_cmd(w: Workload, j: usize) -> Cmd {
    match (w, j % 2) {
        (Workload::WarmObserve, 0) => Cmd::Profile,
        (Workload::WarmObserve, _) => Cmd::Record,
        _ => Cmd::Run,
    }
}

/// Request `i` of a warm stream over `lines` timed lines: passes over the
/// lines, each pass in a fresh seeded order.
pub struct WarmOrder {
    seed: u64,
    lines: usize,
    pass: u64,
    order: Vec<usize>,
}

impl WarmOrder {
    /// The order for `lines` lines under `seed`.
    pub fn new(seed: u64, lines: usize) -> Self {
        WarmOrder { seed, lines, pass: u64::MAX, order: Vec::new() }
    }

    /// The line index of request `i`.
    pub fn line(&mut self, i: u64) -> usize {
        let pass = i / self.lines as u64;
        if pass != self.pass {
            self.order = perm(&mut rng_for(self.seed, 2, pass), self.lines);
            self.pass = pass;
        }
        self.order[(i % self.lines as u64) as usize]
    }
}

// ---------------------------------------------------------------------------
// The cold workload
// ---------------------------------------------------------------------------

/// Mechanisms a cold request is drawn from.
pub const COLD_MECHS: [MechSel; 5] = [
    MechSel::Fixed(Mechanism::Stwc),
    MechSel::Fixed(Mechanism::Stc),
    MechSel::Fixed(Mechanism::Stl),
    MechSel::Fixed(Mechanism::Parts),
    MechSel::Adaptive,
];

/// Requests per balanced cold block: every combination of mechanism (5),
/// level (2), engine (2) and program kind (2) exactly once, in a seeded
/// order.
pub const COLD_BLOCK: u64 = 40;

/// Kernel families a cold composite draws from.
const FAMILIES: [fn(&str, u32, u32) -> Kernel; 19] = [
    k::list_kernel,
    k::dispatch_kernel,
    k::string_kernel,
    k::numeric_kernel,
    k::float_kernel,
    k::graph_kernel,
    k::server_kernel,
    k::interp_kernel,
    k::tree_kernel,
    nk::numeric_sort,
    nk::string_sort,
    nk::bitfield,
    nk::fp_emulation,
    nk::fourier,
    nk::assignment,
    nk::idea,
    nk::huffman,
    nk::neural_net,
    nk::lu_decomposition,
];

/// One cold request: its axes and its (never repeated) source.
#[derive(Debug, Clone)]
pub struct ColdReq {
    /// Cache-key axes.
    pub axes: Axes,
    /// The MiniC source.
    pub source: String,
}

impl ColdReq {
    /// The line the server sees.
    pub fn line(&self) -> String {
        request_line(Cmd::Run, ProgramRef::Source(&self.source), self.axes)
    }
}

/// Request `i` of the cold stream under `seed`.
///
/// Half the programs are composites of 6–18 distinct kernel families at
/// `iters = 1` (big code, short run); half come from the AST generator
/// (vtables, fn-ptr fields, `long**`, `void*` punning, escaping locals).
/// Every source embeds `i`, so no two requests of a stream share a key.
pub fn cold_request(seed: u64, i: u64) -> ColdReq {
    let combo =
        perm(&mut rng_for(seed, 3, i / COLD_BLOCK), COLD_BLOCK as usize)[(i % COLD_BLOCK) as usize];
    let [kind, engine, level, mech] = [combo % 2, combo / 2 % 2, combo / 4 % 2, combo / 8];
    let composite = kind == 0;
    let exec = [ExecBackend::Interp, ExecBackend::Compiled][engine];
    let opt = WARM_OPTS[level];
    let mech = COLD_MECHS[mech];
    let mut rng = rng_for(seed, 4, i);
    let source = if composite {
        let n = rng.gen_range(6, 19) as usize;
        let fams = perm(&mut rng, FAMILIES.len());
        let kernels: Vec<Kernel> = fams[..n]
            .iter()
            .enumerate()
            .map(|(a, &f)| FAMILIES[f](&format!("c{i}k{a}"), rng.gen_range(3, 9) as u32, 1))
            .collect();
        k::assemble(&kernels)
    } else {
        let cfg = AstGenConfig {
            structs: rng.gen_range(2, 5) as u32,
            hooks: rng.gen_range(2, 5) as u32,
            funcs: rng.gen_range(3, 8) as u32,
            stmts_per_func: rng.gen_range(4, 9) as u32,
            ..AstGenConfig::default()
        };
        format!("long uniq{i};\n{}", rsti_workloads::generate_source(rng.next_u64(), cfg))
    };
    ColdReq { axes: Axes { mech, opt, exec }, source }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsti_serve::proto::cache_key;
    use rsti_vm::Backend;
    use std::collections::HashSet;

    fn sources() -> Vec<String> {
        rsti_workloads::all_workloads().into_iter().map(|w| w.source).collect()
    }

    fn draw(seed: u64) -> Vec<WarmKey> {
        let sources = sources();
        warm_keys(seed, &sources.iter().map(String::as_str).collect::<Vec<_>>())
    }

    fn key_of(src: &str, ax: Axes) -> u128 {
        cache_key(src, ax.mech, ax.opt, ax.exec, Backend::PacInPointer)
    }

    #[test]
    fn one_seed_gives_one_stream_and_seeds_differ() {
        let cold = |seed| (0..60).map(|i| cold_request(seed, i).line()).collect::<Vec<_>>();
        assert_eq!(cold(5), cold(5));
        assert_ne!(cold(5), cold(6));
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
        let order = |seed| {
            let mut o = WarmOrder::new(seed, WARM_KEYS);
            (0..500).map(|i| o.line(i)).collect::<Vec<_>>()
        };
        assert_eq!(order(5), order(5));
        assert_ne!(order(5), order(6));
    }

    #[test]
    fn cold_keys_are_all_distinct_and_blocks_are_balanced() {
        let reqs: Vec<ColdReq> = (0..2 * COLD_BLOCK).map(|i| cold_request(9, i)).collect();
        let keys: HashSet<u128> = reqs.iter().map(|r| key_of(&r.source, r.axes)).collect();
        assert_eq!(keys.len(), reqs.len());
        for block in reqs.chunks(COLD_BLOCK as usize) {
            let combos: HashSet<String> = block
                .iter()
                .map(|r| format!("{:?}{}", r.axes, r.source.starts_with("long uniq")))
                .collect();
            assert_eq!(combos.len(), COLD_BLOCK as usize);
        }
    }

    #[test]
    fn warm_key_sets_are_distinct_and_fit_the_default_cache() {
        let ws = rsti_workloads::all_workloads();
        let names: Vec<&str> = ws.iter().map(|w| w.name).collect();
        let cap = rsti_serve::ServeConfig::default().cache_cap;
        for seed in 0..20 {
            let keys = draw(seed);
            assert_eq!(keys.len(), WARM_KEYS);
            assert!(keys.len() <= cap);
            for w in [Workload::WarmCompiled, Workload::WarmInterp, Workload::WarmObserve] {
                let distinct: HashSet<u128> =
                    keys.iter().map(|k| key_of(&ws[k.proxy].source, warm_axes(w, k))).collect();
                assert_eq!(distinct.len(), WARM_KEYS, "seed {seed} {w:?}");
                let lines = warm_lines(w, &keys, &names);
                assert_eq!(lines.len() % WARM_KEYS, 0);
            }
            for p in 0..ws.len() {
                assert!(keys.iter().any(|k| k.proxy == p), "proxy {p} missing at seed {seed}");
            }
        }
    }

    #[test]
    fn every_request_line_parses_with_its_axes() {
        let ws = rsti_workloads::all_workloads();
        let names: Vec<&str> = ws.iter().map(|w| w.name).collect();
        let keys = draw(3);
        let mut lines = warm_lines(Workload::WarmObserve, &keys, &names);
        lines.extend(warm_up_lines(Workload::WarmInterp, &keys, &names));
        lines.extend((0..COLD_BLOCK).map(|i| cold_request(3, i).line()));
        for line in &lines {
            rsti_serve::proto::Request::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        }
        let observe = rsti_serve::proto::Request::parse(&lines[1]).expect("parses");
        assert!(observe.record && observe.exec == ExecBackend::Compiled);
    }
}
