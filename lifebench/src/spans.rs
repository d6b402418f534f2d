//! In-memory spans for the traced run.
//!
//! Each span has an id, a parent id (0 = root), a name and its start and
//! end relative to the run's start.  Spans are kept in memory while the run
//! measures and written out once at the end, so recording one costs two
//! clock reads and a short lock.  A layer's self time is its spans' time
//! minus the time of their direct children.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Spans past this many are counted but not stored.
const MAX_SPANS: usize = 1 << 20;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    dropped: AtomicU64,
}

/// An open span; closing (dropping) it records the span.
pub struct Guard<'t> {
    tracer: Option<&'t Tracer>,
    id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
}

impl Guard<'_> {
    /// The id children of this span pass as their parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let Some(tracer) = self.tracer else { return };
        let end = Instant::now();
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns: (self.start - tracer.origin).as_nanos() as u64,
            end_ns: (end - tracer.origin).as_nanos() as u64,
        };
        let mut spans = tracer.spans.lock().unwrap_or_else(|e| e.into_inner());
        if spans.len() < MAX_SPANS {
            spans.push(span);
        } else {
            tracer.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect()
    }

    /// Total and self time in seconds per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, f64, usize)> {
        let spans = self.spans();
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &spans {
            *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
        let mut out: BTreeMap<&'static str, (f64, f64, usize)> = BTreeMap::new();
        for s in &spans {
            let total = s.end_ns - s.start_ns;
            let own = total.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let entry = out.entry(s.name).or_default();
            entry.0 += total as f64 / 1e9;
            entry.1 += own as f64 / 1e9;
            entry.2 += 1;
        }
        out
    }

    /// Write every span as one JSON line, then one summary line per name.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        for (name, (total, own, count)) in self.self_times() {
            writeln!(
                out,
                "{{\"summary\":\"{name}\",\"count\":{count},\"total_s\":{total},\"self_s\":{own}}}"
            )?;
        }
        writeln!(
            out,
            "{{\"dropped\":{}}}",
            self.dropped.load(Ordering::Relaxed)
        )?;
        out.flush()
    }
}

/// Open a span under `parent` when tracing; a no-op guard otherwise.
pub fn span<'t>(tracer: Option<&'t Tracer>, name: &'static str, parent: u64) -> Guard<'t> {
    let id = tracer.map_or(0, |t| t.next_id.fetch_add(1, Ordering::Relaxed));
    Guard {
        tracer,
        id,
        parent,
        name,
        start: Instant::now(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let tracer = Tracer::new();
        {
            let outer = span(Some(&tracer), "outer", 0);
            std::thread::sleep(std::time::Duration::from_millis(5));
            {
                let _inner = span(Some(&tracer), "inner", outer.id());
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
        }
        let times = tracer.self_times();
        let (outer_total, outer_self, _) = times["outer"];
        let (inner_total, _, _) = times["inner"];
        assert!(outer_total >= inner_total);
        assert!((outer_total - outer_self - inner_total).abs() < 1e-9);
        assert!(outer_self < inner_total);
    }

    #[test]
    fn untraced_guards_record_nothing() {
        let guard = span(None, "x", 0);
        assert_eq!(guard.id(), 0);
    }
}
