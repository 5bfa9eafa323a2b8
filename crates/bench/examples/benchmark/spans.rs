//! The benchmark's own spans: recorded in memory around the calls into each
//! layer during the traced block, folded into self times, and written as
//! Chrome trace-event JSON when the run ends. Spans *inside* the program are
//! `dsx-obs`'s business and no part of this contract.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span. `parent` indexes the recorder's span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The request this span belongs to (`rpc_*` only).
    pub req: Option<u64>,
    pub tid: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A single thread's span list. Threads record into their own recorder and
/// the owner [`merge`](Recorder::merge)s them after joining.
pub struct Recorder {
    epoch: Instant,
    tid: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(epoch: Instant, tid: u32) -> Recorder {
        Recorder {
            epoch,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str, req: Option<u64>) -> usize {
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            req,
            tid: self.tid,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes the innermost open span, which must be `id`. A request id
    /// learnt only while the span was open (a reply's) is attached now.
    pub fn end(&mut self, id: usize, req: Option<u64>) {
        let now = self.ns(Instant::now());
        assert_eq!(self.open.pop(), Some(id), "spans close innermost-first");
        self.spans[id].end_ns = now;
        if req.is_some() {
            self.spans[id].req = req;
        }
    }

    /// Times `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, req: Option<u64>, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, req);
        let out = f();
        self.end(id, None);
        out
    }

    /// Appends another thread's spans, keeping their parent links.
    pub fn merge(&mut self, other: Recorder) {
        let shift = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + shift);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let lo = span.start_ns.max(spans[p].start_ns);
            let hi = span.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            span.dur_ns() - covered
        })
        .collect()
}

/// Durations in milliseconds of every span called `name`, in record order.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

/// Writes the spans as Chrome trace-event JSON (`chrome://tracing`,
/// Perfetto): complete `"X"` events with microsecond timestamps; `args`
/// carry the span's index, its self time, its parent's index and the
/// request id.
pub fn write_chrome_trace(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let self_ns = self_times_ns(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(out, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
    for (idx, span) in spans.iter().enumerate() {
        if idx > 0 {
            write!(out, ",")?;
        }
        write!(
            out,
            "\n{{\"name\":\"{}\",\"cat\":\"bench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{idx},\"self_us\":{:.3}",
            span.name,
            span.tid,
            span.start_ns as f64 / 1e3,
            span.dur_ns() as f64 / 1e3,
            self_ns[idx] as f64 / 1e3,
        )?;
        if let Some(parent) = span.parent {
            write!(out, ",\"parent\":{parent}")?;
        }
        if let Some(req) = span.req {
            write!(out, ",\"req\":{req}")?;
        }
        write!(out, "}}}}")?;
    }
    writeln!(out, "\n]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            req: None,
            tid: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        let spans = vec![
            span(0, 100, None),     // root: children cover 10..40 and 50..70
            span(10, 30, Some(0)),  // overlaps the next one
            span(20, 40, Some(0)),  //
            span(50, 70, Some(0)),  // has a child of its own
            span(55, 60, Some(3)),  // grandchild: not subtracted from root
            span(90, 120, Some(0)), // sticks out of the parent: clipped
        ];
        assert_eq!(
            self_times_ns(&spans),
            vec![100 - 30 - 20 - 10, 20, 20, 15, 5, 30]
        );
    }

    #[test]
    fn recorder_nests_and_merges() {
        let epoch = Instant::now();
        let mut a = Recorder::new(epoch, 0);
        let outer = a.begin("outer", None);
        a.span("inner", Some(7), || ());
        a.end(outer, None);
        let mut b = Recorder::new(epoch, 1);
        let root = b.begin("other", None);
        let leaf = b.begin("leaf", None);
        b.end(leaf, Some(9));
        b.end(root, None);
        a.merge(b);
        let spans = a.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].req, Some(7));
        assert_eq!(spans[3].parent, Some(2), "merged parents are re-indexed");
        assert_eq!((spans[3].tid, spans[3].req), (1, Some(9)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn chrome_trace_parses_back() {
        let dir = std::env::temp_dir().join(format!("dsx-benchmark-spans-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.trace.json");
        let mut spans = vec![span(1_000, 3_000, None), span(1_500, 2_000, Some(0))];
        spans[1].req = Some(42);
        write_chrome_trace(&path, &spans).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let doc = crate::json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(events[1].get("dur").unwrap().as_f64(), Some(0.5));
        let root_args = events[0].get("args").unwrap();
        assert_eq!(root_args.get("self_us").unwrap().as_f64(), Some(1.5));
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(args.get("req").unwrap().as_f64(), Some(42.0));
    }
}
