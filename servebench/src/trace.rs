//! The traced run's spans and the replay that produces the layer spans.
//!
//! The server is not instrumented. Each request is timed around
//! `Server::handle_line` (the `request` span) and then replayed through
//! the public calls the server makes, each timed as a child span with the
//! same request id. Spans stay in memory until the run ends.

use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rsti_serve::proto::{cache_key, Cmd as ProtoCmd, Request};
use rsti_vm::{ExecBackend, ExecResult, Image, Vm};

use crate::model::{fuel, instrument_as, ns_since};

/// One timed interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Request id (spans of one request share it).
    pub req: u64,
    /// Layer call: `request`, `parse`, `frontend`, `instrument`,
    /// `optimize`, `image`, `translate` or `execute`.
    pub name: &'static str,
    /// The span that caused this one (`""` for a root).
    pub parent: &'static str,
    /// Qualifier: the level for `optimize`, the engine for `translate`
    /// and `execute`, the command for `request`.
    pub tag: &'static str,
    /// Start, nanoseconds since the run's clock origin.
    pub start_ns: u64,
    /// End, nanoseconds since the run's clock origin.
    pub end_ns: u64,
    /// Work done: source bytes for `frontend`, instructions for `execute`.
    pub work: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans against one clock origin.
#[derive(Clone, Copy)]
pub struct Clock(pub Instant);

impl Clock {
    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        ns_since(self.0)
    }

    /// Times `f` as a child span of request `req`.
    pub fn child<R>(
        &self,
        spans: &mut Vec<Span>,
        req: u64,
        name: &'static str,
        tag: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let start_ns = self.now();
        let r = f();
        spans.push(Span {
            req,
            name,
            parent: "request",
            tag,
            start_ns,
            end_ns: self.now(),
            work: 0,
        });
        r
    }
}

/// Images by cache key, plus insertion order for eviction.
#[derive(Default)]
struct Images {
    map: HashMap<u128, Arc<Image>>,
    order: VecDeque<u128>,
}

/// The replay's own key → image map, bounded like the server's cache so
/// a cold run does not hold every image it ever built.
pub struct Replayer {
    cap: usize,
    images: Mutex<Images>,
}

impl Replayer {
    /// An empty map holding at most `cap` images.
    pub fn new(cap: usize) -> Self {
        Replayer { cap, images: Mutex::new(Images::default()) }
    }

    fn get(&self, key: u128) -> Option<Arc<Image>> {
        self.images.lock().expect("replay map lock poisoned").map.get(&key).cloned()
    }

    fn insert(&self, key: u128, img: Arc<Image>) {
        let mut images = self.images.lock().expect("replay map lock poisoned");
        if images.map.insert(key, img).is_none() {
            images.order.push_back(key);
        }
        while images.order.len() > self.cap {
            if let Some(old) = images.order.pop_front() {
                images.map.remove(&old);
            }
        }
    }

    /// Replays request `req` (already answered by the server) through
    /// the public calls, one child span per layer. A key seen before
    /// replays execute only. Returns the run's result (`None` for
    /// `compile`).
    pub fn replay(
        &self,
        clock: &Clock,
        spans: &mut Vec<Span>,
        req: u64,
        line: &str,
        source: &str,
    ) -> Result<Option<ExecResult>, String> {
        let r = clock.child(spans, req, "parse", "", || Request::parse(line))?;
        let key = cache_key(source, r.mech, r.opt, r.exec, r.enforce);
        let img = match self.get(key) {
            Some(img) => img,
            None => {
                let start = clock.now();
                let m = rsti_frontend::compile(source, "<serve>")
                    .map_err(|e| format!("compile error: {e}"))?;
                spans.push(Span {
                    req,
                    name: "frontend",
                    parent: "request",
                    tag: "",
                    start_ns: start,
                    end_ns: clock.now(),
                    work: source.len() as u64,
                });
                let mut p = clock.child(spans, req, "instrument", r.mech.label(), || {
                    instrument_as(&m, r.mech)
                })?;
                clock.child(spans, req, "optimize", r.opt.label(), || {
                    rsti_core::optimize_program_at(&mut p, r.opt)
                });
                let img = clock.child(spans, req, "image", "", || {
                    Image::from_instrumented_owned(p).with_backend(r.enforce).with_exec(r.exec)
                });
                if r.exec == ExecBackend::Compiled {
                    clock.child(spans, req, "translate", r.exec.label(), || img.precompile());
                }
                let img = Arc::new(img);
                self.insert(key, Arc::clone(&img));
                img
            }
        };
        if r.cmd == ProtoCmd::Compile {
            return Ok(None);
        }
        let start = clock.now();
        let result = {
            let run = |img: &Image| {
                let mut vm = Vm::new(img);
                vm.set_fuel(fuel());
                vm.run()
            };
            if r.cmd == ProtoCmd::Profile {
                run(&(*img).clone().with_attr())
            } else if r.record {
                run(&(*img).clone().with_record())
            } else {
                run(&img)
            }
        };
        spans.push(Span {
            req,
            name: "execute",
            parent: "request",
            tag: r.exec.label(),
            start_ns: start,
            end_ns: clock.now(),
            work: result.insts,
        });
        Ok(Some(result))
    }
}

/// Writes spans as JSONL, one object per span.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"req\":{},\"name\":\"{}\",\"parent\":\"{}\",\"tag\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"work\":{}}}",
            s.req, s.name, s.parent, s.tag, s.start_ns, s.end_ns, s.work
        )?;
    }
    out.flush()
}
