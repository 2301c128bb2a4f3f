//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call into
//! a layer, never inside the crates under test. Each span carries a
//! name, start, end, parent span and job id. Recording is per thread
//! (the benchmark generates load from one thread), off by default, and
//! costs one thread-local flag read per boundary while off.
//!
//! Self time is a span's duration minus the durations of its direct
//! children; children of one span never overlap because they run on the
//! same thread. Per-name totals are kept for every span; the individual
//! spans are kept up to [`KEEP`] and written out when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Individual spans retained for the span file; totals cover all spans.
const KEEP: usize = 100_000;

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub job: u64,
}

/// Per-name totals over every closed span.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    id: u32,
    name: &'static str,
    job: u64,
    start: Instant,
    child_ns: u64,
}

struct Recorder {
    on: bool,
    epoch: Instant,
    next_id: u32,
    stack: Vec<Open>,
    totals: BTreeMap<&'static str, Totals>,
    spans: Vec<Span>,
    dropped: u64,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        epoch: Instant::now(),
        next_id: 0,
        stack: Vec::new(),
        totals: BTreeMap::new(),
        spans: Vec::new(),
        dropped: 0,
    });
}

/// Turn recording on or off for this thread. Spans already open stay
/// open and close normally.
pub fn set_enabled(on: bool) {
    REC.with(|r| r.borrow_mut().on = on);
}

/// An open span; it closes when dropped.
pub struct Guard {
    open: bool,
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.open {
            return;
        }
        let end = Instant::now();
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let Some(open) = r.stack.pop() else {
                return;
            };
            let dur = end.duration_since(open.start).as_nanos() as u64;
            if let Some(parent) = r.stack.last_mut() {
                parent.child_ns += dur;
            }
            let parent = r.stack.last().map(|p| p.id);
            let t = r.totals.entry(open.name).or_default();
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(open.child_ns);
            if r.spans.len() < KEEP {
                let start_ns = open.start.duration_since(r.epoch).as_nanos() as u64;
                r.spans.push(Span {
                    id: open.id,
                    name: open.name,
                    start_ns,
                    end_ns: start_ns + dur,
                    parent,
                    job: open.job,
                });
            } else {
                r.dropped += 1;
            }
        });
    }
}

/// Open a span named `name` for job `job`, a child of the innermost
/// open span.
pub fn enter(name: &'static str, job: u64) -> Guard {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return Guard { open: false };
        }
        let id = r.next_id;
        r.next_id = r.next_id.wrapping_add(1);
        r.stack.push(Open {
            id,
            name,
            job,
            start: Instant::now(),
            child_ns: 0,
        });
        Guard { open: true }
    })
}

/// Run `f` inside a span.
pub fn span<T>(name: &'static str, job: u64, f: impl FnOnce() -> T) -> T {
    let _g = enter(name, job);
    f()
}

/// Take this thread's per-name totals and retained spans, resetting the
/// recorder. Returns the number of spans not retained as well.
pub fn take() -> (BTreeMap<&'static str, Totals>, Vec<Span>, u64) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let dropped = std::mem::take(&mut r.dropped);
        (
            std::mem::take(&mut r.totals),
            std::mem::take(&mut r.spans),
            dropped,
        )
    })
}

/// Write spans as JSON lines, one object per span.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"job\":{}}}",
            s.id, s.name, s.start_ns, s.end_ns, parent, s.job
        )?;
    }
    w.flush()
}

/// A sink wrapper that records a span around every call into `inner`.
pub struct Traced<S> {
    pub name: &'static str,
    pub job: u64,
    pub inner: S,
}

impl<S: pio_trace::RecordSink> pio_trace::RecordSink for Traced<S> {
    fn push(&mut self, r: &pio_trace::Record) {
        let _g = enter(self.name, self.job);
        self.inner.push(r);
    }

    fn push_block(&mut self, block: &[pio_trace::Record]) {
        let _g = enter(self.name, self.job);
        self.inner.push_block(block);
    }

    fn phase_end(&mut self, phase: u32) {
        let _g = enter(self.name, self.job);
        self.inner.phase_end(phase);
    }

    fn finish(&mut self) {
        let _g = enter(self.name, self.job);
        self.inner.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_parents_are_linked() {
        set_enabled(true);
        span("outer", 7, || {
            span("inner", 7, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        set_enabled(false);
        let _off = enter("ignored", 0);
        drop(_off);
        let (totals, spans, dropped) = take();
        assert_eq!(dropped, 0);
        assert_eq!(spans.len(), 2);
        assert!(!totals.contains_key("ignored"));
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert_eq!(inner.job, 7);
        let (o, i) = (totals["outer"], totals["inner"]);
        assert!(i.total_ns >= 2_000_000);
        assert_eq!(o.self_ns, o.total_ns - i.total_ns);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }
}
