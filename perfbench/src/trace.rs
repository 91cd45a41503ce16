//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by benchmark code around calls into the library's
//! public functions, named by the layer they enter.  Each span carries its
//! start, end and parent; the whole set is written once at the end as
//! Chrome trace-event JSON, and each layer's self time (its spans'
//! duration minus the part covered by their children) is summed here.

use crate::util::json_str;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub type SpanId = u64;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub tid: u64,
}

pub struct Trace {
    on: bool,
    t0: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local!(static ID: Cell<u64> = const { Cell::new(0) });
    ID.with(|id| {
        if id.get() == 0 {
            id.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        id.get()
    })
}

impl Trace {
    pub fn new(on: bool) -> Trace {
        Trace {
            on,
            t0: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// A fresh span id (0 when tracing is off).
    pub fn id(&self) -> SpanId {
        if self.on {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Record a finished span with a pre-allocated id.
    pub fn record(
        &self,
        id: SpanId,
        parent: Option<SpanId>,
        layer: &'static str,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if self.on {
            let span = self.build(id, parent, layer, name, start, end);
            self.spans
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(span);
        }
    }

    /// Run `f` inside a new span; returns its result.
    pub fn span<R>(
        &self,
        parent: Option<SpanId>,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let id = self.id();
        let start = Instant::now();
        let out = f(id);
        self.record(id, parent, layer, name, start, Instant::now());
        out
    }

    /// Append spans recorded elsewhere (e.g. by an I/O wrapper).
    pub fn extend(&self, spans: Vec<Span>) {
        if self.on {
            self.spans
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .extend(spans);
        }
    }

    /// A finished span with a fresh id, kept by the caller (for code that
    /// cannot reach the recorder while it runs).
    pub fn make_span(
        &self,
        parent: Option<SpanId>,
        layer: &'static str,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> Span {
        self.build(self.id(), parent, layer, name, start, end)
    }

    fn build(
        &self,
        id: SpanId,
        parent: Option<SpanId>,
        layer: &'static str,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> Span {
        Span {
            id,
            parent,
            layer,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            tid: thread_id(),
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Self time per layer in seconds: each span's duration minus the
    /// union of its children's intervals clipped to it.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans();
        let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in &spans {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cur: Option<(u64, u64)> = None;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                    if b <= a {
                        continue;
                    }
                    cur = match cur {
                        Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
            }
            let dur = s.end_ns.saturating_sub(s.start_ns);
            *out.entry(s.layer).or_default() += dur.saturating_sub(covered) as f64 * 1e-9;
        }
        out
    }

    /// Write every span as Chrome trace-event JSON, with `meta` (a JSON
    /// object) under `otherData`.
    pub fn write_chrome(&self, path: &std::path::Path, meta: &str) -> std::io::Result<()> {
        use std::io::Write;
        let spans = self.spans();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(f, "{{\"otherData\":{meta},\"traceEvents\":[")?;
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                f,
                "{}{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                json_str(s.name),
                json_str(s.layer),
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.tid,
                s.id,
                parent,
            )?;
        }
        writeln!(f, "]}}")?;
        f.flush()
    }
}
