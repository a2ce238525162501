//! Serve-path benchmark: MiniC source → `Image` → `ExecResult` through one
//! in-process `rsti_serve::Server`, driven closed-loop by two clients.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload warm-compiled --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` is a separate
//! run that replays each request through the public layer calls and
//! prints the per-layer metrics. Either way the last stdout line is one
//! JSON object: `{"correct","attempted","failed","metrics"}`.

mod model;
mod stats;
mod stream;
mod trace;

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use rsti_pac::{KeyId, PacUnit};
use rsti_rng::Rng64;
use rsti_serve::{ServeConfig, Server};
use rsti_vm::ExecBackend;

use model::{check_compile, check_response, engine_index, model_key, ns_since, par_map};
use model::{parse_outcome, reference, Checked, KeyModel, Outcome};
use stream::{cold_request, warm_axes, warm_cmd, warm_keys, warm_lines, warm_up_lines};
use stream::{Axes, Cmd, WarmKey, WarmOrder, Workload};
use trace::{Clock, Replayer, Span};

/// Closed-loop clients, one per core of the reference box.
const CLIENTS: usize = 2;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Cold set-up is only server construction, so it is repeated more.
const COLD_SETUP_REPS: usize = 1001;
/// Leading cold requests in the cycle-model pass.
const COLD_MODEL_PASS: u64 = 480;

/// Command-line arguments.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (expected {})", names.join("|"))
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// A warm workload's inputs, drawn from the seed before anything is timed.
struct Warm {
    proxies: Vec<rsti_workloads::Workload>,
    keys: Vec<WarmKey>,
    lines: Vec<String>,
    warm_up: Vec<String>,
}

impl Warm {
    fn new(w: Workload, seed: u64) -> Warm {
        let proxies = rsti_workloads::all_workloads();
        let sources: Vec<&str> = proxies.iter().map(|p| p.source.as_str()).collect();
        let names: Vec<&str> = proxies.iter().map(|p| p.name).collect();
        let keys = warm_keys(seed, &sources);
        let lines = warm_lines(w, &keys, &names);
        let warm_up = warm_up_lines(w, &keys, &names);
        Warm { proxies, keys, lines, warm_up }
    }

    fn lines_per_key(&self) -> usize {
        self.lines.len() / self.keys.len()
    }

    fn source_of_line(&self, j: usize) -> &str {
        &self.proxies[self.keys[j / self.lines_per_key()].proxy].source
    }
}

struct Bench {
    workload: Workload,
    seed: u64,
    warm: Option<Warm>,
}

impl Bench {
    /// Request `i` of the stream: its line, its source, and (warm only)
    /// its timed-line index.
    fn request(&self, i: u64, order: &mut WarmOrder) -> (Cow<'_, str>, Cow<'_, str>, usize) {
        match &self.warm {
            Some(w) => {
                let j = order.line(i);
                (Cow::Borrowed(&w.lines[j]), Cow::Borrowed(w.source_of_line(j)), j)
            }
            None => {
                let r = cold_request(self.seed, i);
                (Cow::Owned(r.line()), Cow::Owned(r.source), 0)
            }
        }
    }

    fn order(&self) -> WarmOrder {
        WarmOrder::new(self.seed, self.warm.as_ref().map_or(1, |w| w.lines.len()))
    }

    /// The distinct keys of one pass, with their sources: the warm key
    /// set, or the first [`COLD_MODEL_PASS`] cold requests.
    fn model_specs(&self) -> Vec<(String, Axes)> {
        match &self.warm {
            Some(w) => w
                .keys
                .iter()
                .map(|k| (w.proxies[k.proxy].source.clone(), warm_axes(self.workload, k)))
                .collect(),
            None => (0..COLD_MODEL_PASS)
                .map(|i| {
                    let r = cold_request(self.seed, i);
                    (r.source, r.axes)
                })
                .collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// Driving the server
// ---------------------------------------------------------------------------

/// One answered request.
struct Sample {
    /// Stream index.
    i: u64,
    /// Timed-line index (warm workloads).
    line: usize,
    lat_ns: u64,
    /// Completion time since the phase started.
    end_ns: u64,
    resp: String,
}

/// What a closed-loop phase produced.
#[derive(Default)]
struct Phase {
    samples: Vec<Sample>,
    elapsed_s: f64,
    spans: Vec<Span>,
    replay_errors: Vec<String>,
}

/// Sets up a server: construction, plus the warm-up pass for warm
/// workloads. Returns the server, the seconds it took, and warm-up
/// failures.
fn set_up(
    bench: &Bench,
    tracer: Option<(&Clock, &Replayer, &mut Vec<Span>)>,
) -> (Server, f64, Vec<String>) {
    let t = Instant::now();
    let server = std::hint::black_box(Server::new(ServeConfig::default()));
    let mut errors = Vec::new();
    if let Some(w) = &bench.warm {
        match tracer {
            None => {
                for line in &w.warm_up {
                    if let Err(e) = check_compile(&server.handle_line(line)) {
                        errors.push(e);
                    }
                }
            }
            Some((clock, replayer, spans)) => {
                for (j, line) in w.warm_up.iter().enumerate() {
                    let req = WARM_UP_ID + j as u64;
                    let start = clock.now();
                    let resp = server.handle_line(line);
                    spans.push(request_span(req, "compile", start, clock.now()));
                    if let Err(e) = check_compile(&resp) {
                        errors.push(e);
                    }
                    let src = &w.proxies[w.keys[j].proxy].source;
                    if let Err(e) = replayer.replay(clock, spans, req, line, src) {
                        errors.push(format!("replay: {e}"));
                    }
                }
            }
        }
    }
    (server, t.elapsed().as_secs_f64(), errors)
}

/// Span ids of warm-up requests start here; timed requests use their
/// stream index.
const WARM_UP_ID: u64 = 1 << 40;

fn request_span(req: u64, tag: &'static str, start_ns: u64, end_ns: u64) -> Span {
    Span { req, name: "request", parent: "", tag, start_ns, end_ns, work: 0 }
}

/// Runs the closed loop for `seconds`: each client sends its next request
/// only after the previous reply. Requests come from the shared stream
/// position `next`.
fn drive(
    bench: &Bench,
    server: &Server,
    next: &AtomicU64,
    seconds: f64,
    tracer: Option<(&Clock, &Replayer)>,
) -> Phase {
    let start = Instant::now();
    let deadline = start + std::time::Duration::from_secs_f64(seconds);
    let per_client: Vec<(Phase, Instant)> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Phase::default();
                    let mut order = bench.order();
                    let mut last = Instant::now();
                    while Instant::now() < deadline {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let (line, source, j) = bench.request(i, &mut order);
                        let t = Instant::now();
                        let span_start = tracer.map(|(c, _)| c.now());
                        let resp = server.handle_line(&line);
                        let lat_ns = ns_since(t);
                        last = Instant::now();
                        let end_ns = ns_since(start);
                        if let (Some((clock, replayer)), Some(s0)) = (tracer, span_start) {
                            let tag = tag_of(bench, j);
                            mine.spans.push(request_span(i, tag, s0, s0 + lat_ns));
                            if let Err(e) = replay_matches(
                                clock,
                                replayer,
                                &mut mine.spans,
                                i,
                                &line,
                                &source,
                                &resp,
                            ) {
                                mine.replay_errors.push(format!("request {i}: {e}"));
                            }
                        }
                        mine.samples.push(Sample { i, line: j, lat_ns, end_ns, resp });
                    }
                    (mine, last)
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().expect("a client thread panicked")).collect()
    });
    let mut phase = Phase::default();
    let mut end = start;
    for (p, last) in per_client {
        end = end.max(last);
        phase.samples.extend(p.samples);
        phase.spans.extend(p.spans);
        phase.replay_errors.extend(p.replay_errors);
    }
    phase.samples.sort_by_key(|s| s.i);
    phase.elapsed_s = end.duration_since(start).as_secs_f64();
    phase
}

fn tag_of(bench: &Bench, j: usize) -> &'static str {
    match bench.warm.as_ref().map(|_| warm_cmd(bench.workload, j)) {
        Some(Cmd::Profile) => "profile",
        Some(Cmd::Record) => "record",
        _ => "run",
    }
}

/// Replays one answered request and checks that the replay's run matches
/// the server's response.
fn replay_matches(
    clock: &Clock,
    replayer: &Replayer,
    spans: &mut Vec<Span>,
    i: u64,
    line: &str,
    source: &str,
    resp: &str,
) -> Result<(), String> {
    let replayed = replayer.replay(clock, spans, i, line, source)?.ok_or("replay did not run")?;
    let (_, served) = parse_outcome(resp)?;
    let replayed = Outcome::of(&replayed);
    if served.outcome != replayed {
        return Err(format!("replay {replayed:?} differs from response {:?}", served.outcome));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Checking
// ---------------------------------------------------------------------------

/// The correctness verdict over every timed request plus the model pass.
#[derive(Default)]
struct Verdict {
    failed: usize,
    hits: usize,
    /// Request failures, then determinism and engine-parity failures.
    reasons: Vec<String>,
    /// Determinism and engine-parity failures.
    check_failures: usize,
    models: Vec<KeyModel>,
}

/// Checks every timed response, and runs the cycle-model pass.
///
/// The model pass doubles as the determinism check: each distinct key is
/// built a second time through the public calls and run on both engines,
/// and what the server reported for it must match exactly.
fn verify(bench: &Bench, samples: &[Sample], traced: bool) -> Verdict {
    let specs = bench.model_specs();
    let models = par_map(&specs, |(src, ax)| model_key(src, *ax, traced));
    // Each sample's check, and the model-pass key its outcome must match
    // (once per warm line, for each cold request in the pass).
    let checked: Vec<(Option<usize>, Result<Checked, String>)> = match &bench.warm {
        Some(w) => {
            let used: BTreeSet<usize> = w.keys.iter().map(|k| k.proxy).collect();
            let used: Vec<usize> = used.into_iter().collect();
            let refs: BTreeMap<usize, Result<Vec<String>, String>> = used
                .iter()
                .copied()
                .zip(par_map(&used, |&p| reference(&w.proxies[p].source)))
                .collect();
            // Warm replies to one line must be byte-identical, so only the
            // first is checked in full.
            let mut first: BTreeMap<usize, (&str, Result<Checked, String>)> = BTreeMap::new();
            samples
                .iter()
                .map(|s| {
                    let key = s.line / w.lines_per_key();
                    let mut is_first = false;
                    let (first_resp, verdict) = first.entry(s.line).or_insert_with(|| {
                        is_first = true;
                        let verdict = refs[&w.keys[key].proxy].clone().and_then(|out| {
                            check_response(&s.resp, &out, warm_cmd(bench.workload, s.line))
                        });
                        (s.resp.as_str(), verdict)
                    });
                    let verdict = if *first_resp == s.resp {
                        verdict.clone()
                    } else {
                        Err("response differs from the first one for the same line".into())
                    };
                    (is_first.then_some(key), verdict)
                })
                .collect()
        }
        None => par_map(samples, |s| {
            let src = cold_request(bench.seed, s.i).source;
            let key = (s.i < COLD_MODEL_PASS).then_some(s.i as usize);
            (key, reference(&src).and_then(|out| check_response(&s.resp, &out, Cmd::Run)))
        }),
    };
    let mut v = Verdict::default();
    for (s, (key, c)) in samples.iter().zip(checked) {
        match c {
            Ok(c) => {
                v.hits += usize::from(c.hit);
                if let Some(Ok(m)) = key.map(|k| &models[k]) {
                    if c.outcome != m.protected {
                        v.check_failures += 1;
                        v.reasons.push(format!(
                            "request {}: server reported {:?}, the direct pipeline {:?}",
                            s.i, c.outcome, m.protected
                        ));
                    }
                }
            }
            Err(e) => {
                v.failed += 1;
                v.reasons.push(format!("request {}: {e}", s.i));
            }
        }
    }
    for (k, m) in models.into_iter().enumerate() {
        match m {
            Ok(m) => v.models.push(m),
            Err(e) => {
                v.check_failures += 1;
                v.reasons.push(format!("key {k}: {e}"));
            }
        }
    }
    v
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// The deterministic counts of one pass over the distinct keys.
#[derive(Debug, Default)]
struct Counts {
    cycles: u64,
    base_cycles: u64,
    signs: u64,
    auths: u64,
    insts: u64,
    removed: u64,
    inlined: u64,
    ir_insts: u64,
    checks_static: u64,
}

fn counts(models: &[KeyModel]) -> Counts {
    let mut c = Counts::default();
    for m in models {
        c.cycles += m.protected.cycles;
        c.base_cycles += m.base_cycles;
        c.signs += m.protected.signs;
        c.auths += m.protected.auths;
        c.insts += m.protected.insts;
        c.removed += m.removed;
        c.inlined += m.inlined;
        c.ir_insts += m.ir_insts;
        c.checks_static += m.checks_static;
    }
    c
}

fn pct_over(num: f64, den: f64) -> f64 {
    (num / den - 1.0) * 100.0
}

fn vm_hwm_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The tail percentile each workload reports at, in each of the
/// [`TAIL_SLICES`] slices: the highest rung that leaves at least ten
/// samples beyond it per slice in a 20-second run on the reference box,
/// even when the box runs 25% slow. A shorter or slower run falls back to
/// a lower rung, and the report says which.
fn preferred_tail(w: Workload) -> f64 {
    match w {
        Workload::ColdPipeline | Workload::WarmCompiled => 98.0,
        Workload::WarmObserve => 95.0,
        Workload::WarmInterp => 90.0,
    }
}

/// Equal time slices of the timed window. `latency_tail_ms` is the median
/// of the slices' tails, so a burst of interference from other tenants
/// of the box moves one slice, not the metric.
const TAIL_SLICES: usize = 4;

fn latency_metrics(
    w: Workload,
    phase: &Phase,
    notes: &mut Vec<String>,
) -> Result<Vec<Metric>, String> {
    let lat: Vec<f64> = phase.samples.iter().map(|s| s.lat_ns as f64 / 1e6).collect();
    let n = lat.len();
    let mut slices = vec![Vec::new(); TAIL_SLICES];
    for (s, &ms) in phase.samples.iter().zip(&lat) {
        let k = (s.end_ns as f64 / 1e9 / phase.elapsed_s * TAIL_SLICES as f64) as usize;
        slices[k.min(TAIL_SLICES - 1)].push(ms);
    }
    let smallest = slices.iter().map(Vec::len).min().unwrap_or(0);
    let rung = stats::tail_rung(smallest, preferred_tail(w)).ok_or_else(|| {
        format!("{smallest} samples in a slice are too few for a tail with ten beyond it")
    })?;
    let tails: Vec<f64> =
        slices.iter().map(|s| stats::percentile(&stats::sorted(s), rung)).collect();
    notes.push(format!(
        "latency_tail_ms is the median of p{rung} over {TAIL_SLICES} time slices of {n} samples \
         (smallest slice {smallest}, {} beyond it)",
        stats::beyond(smallest, rung)
    ));
    Ok(vec![
        metric("throughput_rps", n as f64 / phase.elapsed_s, "1/s"),
        metric("latency_p50_ms", stats::percentile(&stats::sorted(&lat), 50.0), "ms"),
        metric("latency_tail_ms", stats::median(&tails), "ms"),
    ])
}

/// Nanoseconds per op of `PacUnit::sign` and `auth` over a seeded stream
/// of distinct pointers and modifiers (so the unit's memos miss), median
/// of five rounds.
fn pac_costs(seed: u64) -> (f64, f64) {
    const PAIRS: usize = 4096;
    const PASSES: usize = 16;
    let mut rng = Rng64::seed_from_u64(seed ^ 0x5041_4321);
    let pairs: Vec<(u64, u64)> = (0..PAIRS)
        .map(|_| (0x0000_7F00_0000_0000 | (rng.next_u64() & 0x00FF_FFFF_FFF8), rng.next_u64()))
        .collect();
    let mut unit = PacUnit::for_tests();
    let signed: Vec<u64> = pairs.iter().map(|&(p, m)| unit.sign(KeyId::Da, p, m)).collect();
    let ops = (PAIRS * PASSES) as f64;
    let mut sign_ns = Vec::new();
    let mut auth_ns = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..PASSES {
            for &(p, m) in &pairs {
                std::hint::black_box(unit.sign(KeyId::Da, std::hint::black_box(p), m));
            }
        }
        sign_ns.push(ns_since(t) as f64 / ops);
        let t = Instant::now();
        for _ in 0..PASSES {
            for (&s, &(_, m)) in signed.iter().zip(&pairs) {
                let ok = unit.auth(KeyId::Da, std::hint::black_box(s), m).is_ok();
                assert!(ok, "a freshly signed pointer must authenticate");
            }
        }
        auth_ns.push(ns_since(t) as f64 / ops);
    }
    (stats::median(&sign_ns), stats::median(&auth_ns))
}

/// Per-layer metrics from the traced run's spans and the model pass.
fn layer_metrics(
    bench: &Bench,
    requests: usize,
    untraced_lat_ms: &[f64],
    spans: &[Span],
    verdict: &Verdict,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let ms = |s: &Span| s.ns() as f64 / 1e6;
    let of = |name: &str, tag: Option<&str>| -> Vec<&Span> {
        spans.iter().filter(|s| s.name == name && tag.is_none_or(|t| s.tag == t)).collect()
    };
    let mean_ms = |v: &[&Span]| stats::mean(&v.iter().map(|s| ms(s)).collect::<Vec<_>>());
    let models = &verdict.models;
    let total = |f: &dyn Fn(&KeyModel) -> u64| models.iter().map(f).sum::<u64>() as f64;
    let mut out = Vec::new();

    // serve: hits, and the request span minus its layer spans.
    out.push(metric("serve.hit_ratio", verdict.hits as f64 / requests as f64, "ratio"));
    let mut layer_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent == "request" && s.name != "parse") {
        *layer_ns.entry(s.req).or_default() += s.ns();
    }
    let timed: Vec<&Span> =
        spans.iter().filter(|s| s.name == "request" && s.req < WARM_UP_ID).collect();
    let self_ms: Vec<f64> = timed
        .iter()
        .map(|r| (r.ns() as f64 - layer_ns.get(&r.req).copied().unwrap_or(0) as f64) / 1e6)
        .collect();
    let request_ms: f64 = timed.iter().map(|r| ms(r)).sum();
    out.push(metric("serve.self_ms", stats::mean(&self_ms), "ms"));
    out.push(metric("serve.self_pct", stats::sum(&self_ms) / request_ms * 100.0, "%"));
    let parse: Vec<&Span> = of("parse", None).into_iter().filter(|s| s.req < WARM_UP_ID).collect();
    out.push(metric("serve.parse_us", mean_ms(&parse) * 1e3, "us"));

    // Layer shares of the timed request spans.
    let mut shares = Vec::new();
    for name in ["frontend", "instrument", "optimize", "image", "translate", "execute"] {
        let layer =
            of(name, None).iter().filter(|s| s.req < WARM_UP_ID).fold(0.0, |a, s| a + ms(s));
        shares.push(format!("{name} {:.1}%", layer / request_ms * 100.0));
    }
    shares.push(format!("serve self {:.1}%", stats::sum(&self_ms) / request_ms * 100.0));
    notes.push(format!("layer shares of request time: {}", shares.join(", ")));

    // frontend and core: every build, warm-up included.
    let fe = of("frontend", None);
    out.push(metric("frontend.compile_ms", mean_ms(&fe), "ms"));
    let fe_kb: f64 = fe.iter().map(|s| s.work as f64 / 1024.0).sum();
    let fe_s: f64 = fe.iter().map(|s| s.ns() as f64 / 1e9).sum();
    out.push(metric("frontend.kb_per_s", if fe_s > 0.0 { fe_kb / fe_s } else { 0.0 }, "KB/s"));
    out.push(metric("core.instrument_ms", mean_ms(&of("instrument", None)), "ms"));
    for level in stream::WARM_OPTS {
        out.push(metric(
            format!("core.optimize_ms.{}", level.label()),
            mean_ms(&of("optimize", Some(level.label()))),
            "ms",
        ));
    }
    let c = counts(models);
    out.push(metric("core.ir_insts", c.ir_insts as f64, "count"));
    out.push(metric("core.checks_static", c.checks_static as f64, "count"));
    out.push(metric("core.opt.removed", c.removed as f64, "count"));
    out.push(metric("core.opt.inlined", c.inlined as f64, "count"));

    // vm: replayed spans where this workload uses the engine, else the
    // model pass's one run per key.
    let translate = of("translate", None);
    let translate_ms = if translate.is_empty() {
        notes.push("vm.translate_ms comes from the model pass (no compiled requests)".into());
        total(&|m| m.translate_ns) / models.len() as f64 / 1e6
    } else {
        mean_ms(&translate)
    };
    out.push(metric("vm.translate_ms", translate_ms, "ms"));
    for engine in [ExecBackend::Compiled, ExecBackend::Interp] {
        let label = engine.label();
        let ex: Vec<&Span> =
            of("execute", Some(label)).into_iter().filter(|s| s.req < WARM_UP_ID).collect();
        let (exec_ms, ips) = if ex.is_empty() {
            notes.push(format!("vm.*.{label} come from the model pass (no {label} requests)"));
            let e = engine_index(engine);
            let ns = total(&|m| m.exec_ns[e]);
            (ns / models.len() as f64 / 1e6, c.insts as f64 / (ns / 1e9))
        } else {
            let secs: f64 = ex.iter().map(|s| s.ns() as f64 / 1e9).sum();
            (mean_ms(&ex), ex.iter().map(|s| s.work as f64).sum::<f64>() / secs)
        };
        out.push(metric(format!("vm.execute_ms.{label}"), exec_ms, "ms"));
        out.push(metric(format!("vm.insts_per_s.{label}"), ips, "1/s"));
    }
    out.push(metric("vm.insts", c.insts as f64, "count"));
    let unarmed = total(&|m| m.armed_ns[0]);
    out.push(metric("vm.attr_cost_pct", pct_over(total(&|m| m.armed_ns[1]), unarmed), "%"));
    out.push(metric("vm.record_cost_pct", pct_over(total(&|m| m.armed_ns[2]), unarmed), "%"));
    for engine in [ExecBackend::Compiled, ExecBackend::Interp] {
        let e = engine_index(engine);
        out.push(metric(
            format!("vm.host_overhead_pct.{}", engine.label()),
            pct_over(total(&|m| m.exec_ns[e]), total(&|m| m.base_ns[e])),
            "%",
        ));
    }

    // pac: dynamic counts, per-op cost, and the most a faster primitive
    // could save of this workload's execute time.
    let (signs, auths) = (c.signs as f64, c.auths as f64);
    let (sign_ns, auth_ns) = pac_costs(bench.seed);
    out.push(metric("pac.signs", signs, "count"));
    out.push(metric("pac.auths", auths, "count"));
    out.push(metric("pac.sign_ns", sign_ns, "ns"));
    out.push(metric("pac.auth_ns", auth_ns, "ns"));
    out.push(metric("pac.share_pct", (signs * sign_ns + auths * auth_ns) / unarmed * 100.0, "%"));

    // Tracing overhead: traced request spans against the untraced phase.
    let traced_p50 = stats::median(&timed.iter().map(|r| ms(r)).collect::<Vec<_>>());
    let untraced_p50 = stats::median(untraced_lat_ms);
    out.push(metric("trace.request_p50_ms", traced_p50, "ms"));
    out.push(metric("trace.overhead_pct", pct_over(traced_p50, untraced_p50), "%"));
    out
}

// ---------------------------------------------------------------------------
// The two kinds of run
// ---------------------------------------------------------------------------

struct Report {
    attempted: usize,
    failed: usize,
    correct: bool,
    metrics: Vec<Metric>,
    notes: Vec<String>,
    reasons: Vec<String>,
}

fn untraced_run(bench: &Bench, seconds: f64) -> Result<Report, String> {
    let reps = if bench.warm.is_some() { SETUP_REPS } else { COLD_SETUP_REPS };
    let mut setup_s = Vec::new();
    let mut warm_up_errors = Vec::new();
    let mut server = None;
    for _ in 0..reps {
        drop(server.take());
        let (s, secs, errors) = set_up(bench, None);
        setup_s.push(secs);
        warm_up_errors.extend(errors);
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    let phase = drive(bench, &server, &AtomicU64::new(0), seconds, None);
    let peak_rss_mb = vm_hwm_mb()?;
    drop(server);
    let mut notes = Vec::new();
    let mut metrics = latency_metrics(bench.workload, &phase, &mut notes)?;
    let verdict = verify(bench, &phase.samples, false);
    let c = counts(&verdict.models);
    metrics.push(metric("setup_s", stats::median(&setup_s), "s"));
    metrics.push(metric("peak_rss_mb", peak_rss_mb, "MB"));
    metrics.push(metric("model_cycles", c.cycles as f64, "cycles"));
    metrics.push(metric(
        "model_overhead_pct",
        pct_over(c.cycles as f64, c.base_cycles as f64),
        "%",
    ));
    notes.push(format!("setup_s is the median of {reps} set-ups"));
    notes.push(format!("deterministic counts over {} distinct keys: {c:?}", verdict.models.len()));
    let warm_up_requests = bench.warm.as_ref().map_or(0, |w| w.warm_up.len() * reps);
    let failed = verdict.failed + warm_up_errors.len();
    let mut reasons = warm_up_errors;
    reasons.extend(verdict.reasons);
    Ok(Report {
        attempted: phase.samples.len() + warm_up_requests,
        failed,
        correct: failed == 0 && verdict.check_failures == 0,
        metrics,
        notes,
        reasons,
    })
}

fn traced_run(bench: &Bench, seconds: f64) -> Result<Report, String> {
    let clock = Clock(Instant::now());
    let replayer = Replayer::new(ServeConfig::default().cache_cap);
    let mut spans = Vec::new();
    let (server, _, warm_up_errors) = set_up(bench, Some((&clock, &replayer, &mut spans)));
    // Traced, untraced, traced (ABBA): drift over the run lands on both
    // sides of the tracing-overhead comparison.
    let next = AtomicU64::new(0);
    let tracer = Some((&clock, &replayer));
    let mut traced = drive(bench, &server, &next, seconds / 4.0, tracer);
    let untraced = drive(bench, &server, &next, seconds / 2.0, None);
    let tail = drive(bench, &server, &next, seconds / 4.0, tracer);
    drop(server);
    traced.samples.extend(tail.samples);
    traced.spans.extend(tail.spans);
    traced.replay_errors.extend(tail.replay_errors);
    if traced.samples.is_empty() || untraced.samples.is_empty() {
        return Err("the run was too short to time both an untraced and a traced request".into());
    }
    let untraced_lat_ms: Vec<f64> =
        untraced.samples.iter().map(|s| s.lat_ns as f64 / 1e6).collect();
    let replayed = traced.samples.len();
    let replay_errors = traced.replay_errors;
    spans.extend(traced.spans);
    spans.sort_by_key(|s| (s.start_ns, s.req));
    let mut samples = untraced.samples;
    samples.extend(traced.samples);
    samples.sort_by_key(|s| s.i);
    let verdict = verify(bench, &samples, true);
    let mut notes = Vec::new();
    let metrics =
        layer_metrics(bench, samples.len(), &untraced_lat_ms, &spans, &verdict, &mut notes);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(format!(
        "trace-{}-seed{}.jsonl",
        bench.workload.name(),
        bench.seed
    ));
    trace::write_spans(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
    notes.push(format!("{} spans written to {}", spans.len(), path.display()));
    notes.push(format!(
        "replayed {replayed} requests; {} replays differ from their responses",
        replay_errors.len()
    ));
    let warm_up_requests = bench.warm.as_ref().map_or(0, |w| w.warm_up.len());
    let failed = verdict.failed + warm_up_errors.len();
    let mut reasons = warm_up_errors;
    reasons.extend(verdict.reasons);
    let replay_ok = replay_errors.is_empty();
    reasons.extend(replay_errors);
    Ok(Report {
        attempted: samples.len() + warm_up_requests,
        failed,
        correct: failed == 0 && verdict.check_failures == 0 && replay_ok,
        metrics,
        notes,
        reasons,
    })
}

fn print_report(args: &Args, r: &mut Report) {
    println!(
        "servebench workload={} seed={} seconds={} trace={} clients={CLIENTS} cores={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    for m in &r.metrics {
        println!("  {:<28} {:>18.4} {}", m.name, m.value, m.unit);
    }
    let frac = r.failed as f64 / r.attempted.max(1) as f64;
    println!("  {:<28} {:>18.4} ratio ({} of {})", "failed_frac", frac, r.failed, r.attempted);
    for n in &r.notes {
        println!("  # {n}");
    }
    for reason in r.reasons.iter().take(10) {
        eprintln!("servebench: FAILED {reason}");
    }
    if r.metrics.iter().any(|m| !m.value.is_finite()) {
        eprintln!("servebench: a metric is not a finite number");
        r.correct = false;
    }
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}", m.name, m.unit)
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(",")
    );
}

fn main() {
    let result = parse_args().and_then(|args| {
        let bench = Bench {
            workload: args.workload,
            seed: args.seed,
            warm: (args.workload != Workload::ColdPipeline)
                .then(|| Warm::new(args.workload, args.seed)),
        };
        let mut report = if args.trace {
            traced_run(&bench, args.seconds)
        } else {
            untraced_run(&bench, args.seconds)
        }?;
        print_report(&args, &mut report);
        Ok(())
    });
    if let Err(e) = result {
        eprintln!("servebench: {e}");
        std::process::exit(2);
    }
}
