//! Spans recorded from the benchmark's own files around each call into a
//! layer's public functions. Nothing is traced inside the program.
//!
//! A span has a name (`<layer>.<call>`), a start and end relative to the
//! run's origin, the span that encloses it, and the sequence number of the
//! message it concerns. Spans stay in memory and are written as JSON when
//! the run ends. Self time (a span's duration minus the time its child
//! spans cover) is accumulated per name for every span, including those
//! past the in-memory cap.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept for the JSON dump; later spans only feed the totals.
const KEPT_SPANS: usize = 100_000;

#[derive(Debug, Clone)]
struct Span {
    id: u32,
    parent: u32,
    name: &'static str,
    msg: Option<u64>,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug)]
struct Open {
    id: u32,
    parent: u32,
    name: &'static str,
    msg: Option<u64>,
    start: Instant,
    child_ns: u64,
}

/// Per-name totals.
#[derive(Debug, Default, Clone)]
pub struct Totals {
    /// Durations of every span of this name, in nanoseconds.
    pub durations: Vec<u64>,
    /// Summed self time in nanoseconds.
    pub self_ns: u64,
}

/// In-memory span recorder for one thread.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    kept: Vec<Span>,
    dropped: u64,
    stack: Vec<Open>,
    next_id: u32,
    totals: BTreeMap<&'static str, Totals>,
}

impl SpanLog {
    /// An empty log whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> SpanLog {
        SpanLog {
            origin,
            kept: Vec::new(),
            dropped: 0,
            stack: Vec::new(),
            next_id: 1,
            totals: BTreeMap::new(),
        }
    }

    /// Opens a span inside the innermost open one.
    pub fn enter(&mut self, name: &'static str, msg: Option<u64>) {
        let parent = self.stack.last().map_or(0, |o| o.id);
        let id = self.next_id;
        self.next_id += 1;
        self.stack.push(Open { id, parent, name, msg, start: Instant::now(), child_ns: 0 });
    }

    /// Closes the innermost span; `msg` names the message it concerned when
    /// that was only known at its end (a receive).
    pub fn exit(&mut self, msg: Option<u64>) {
        let end = Instant::now();
        let open = self.stack.pop().expect("exit matches an enter");
        let dur = end.duration_since(open.start).as_nanos() as u64;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let totals = self.totals.entry(open.name).or_default();
        totals.durations.push(dur);
        totals.self_ns += dur.saturating_sub(open.child_ns);
        if self.kept.len() < KEPT_SPANS {
            let start_ns = open.start.duration_since(self.origin).as_nanos() as u64;
            self.kept.push(Span {
                id: open.id,
                parent: open.parent,
                name: open.name,
                msg: msg.or(open.msg),
                start_ns,
                end_ns: start_ns + dur,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Runs `f` inside a leaf span.
    pub fn time<T>(&mut self, name: &'static str, msg: Option<u64>, f: impl FnOnce() -> T) -> T {
        self.enter(name, msg);
        let out = f();
        self.exit(None);
        out
    }

    /// Totals of the spans named `name`, if any closed.
    pub fn totals(&self, name: &str) -> Option<&Totals> {
        self.totals.get(name)
    }

    /// Mean duration of the spans named `name`, in nanoseconds (0 if none).
    pub fn mean_ns(&self, name: &str) -> f64 {
        self.totals(name).map_or(0.0, |t| crate::stats::mean(&t.durations))
    }

    /// The log as JSON: the given per-layer metrics, per-name and per-layer
    /// self time, and the kept spans.
    pub fn to_json(&self, workload: &str, seed: u64, metrics: &[(String, f64, &str)]) -> String {
        let mut out = String::with_capacity(96 * self.kept.len() + 4096);
        let _ = write!(out, "{{\"workload\":\"{workload}\",\"seed\":{seed},\"metrics\":{{");
        for (i, (name, value, unit)) in metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ =
                write!(out, "{sep}\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", num(*value));
        }
        out.push_str("},\"self_time_ns\":{");
        let mut layers: BTreeMap<&str, u64> = BTreeMap::new();
        for (i, (name, t)) in self.totals.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let total: u64 = t.durations.iter().sum();
            let _ = write!(
                out,
                "{sep}\"{name}\":{{\"count\":{},\"total_ns\":{total},\"self_ns\":{}}}",
                t.durations.len(),
                t.self_ns
            );
            *layers.entry(name.split('.').next().unwrap_or(name)).or_default() += t.self_ns;
        }
        out.push_str("},\"layer_self_ns\":{");
        for (i, (layer, ns)) in layers.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{layer}\":{ns}");
        }
        let _ = write!(out, "}},\"spans_dropped\":{},\"spans\":[", self.dropped);
        for (i, s) in self.kept.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let msg = s.msg.map_or("null".to_owned(), |m| m.to_string());
            let _ = write!(
                out,
                "{sep}{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"msg\":{msg},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// A finite number as JSON (non-finite values, which no metric should
/// produce, become 0).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut log = SpanLog::new(Instant::now());
        log.enter("gen.batch", None);
        log.time("broker.publish", Some(1), || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        log.exit(None);
        let batch = log.totals("gen.batch").unwrap();
        let publish = log.totals("broker.publish").unwrap();
        assert!(publish.self_ns >= 5_000_000);
        assert!(batch.self_ns < batch.durations[0] - publish.durations[0] + 1);
        let json = log.to_json("w", 1, &[("x.y".to_owned(), 1.5, "ns")]);
        assert!(json.contains("\"parent\":1,\"name\":\"broker.publish\",\"msg\":1"));
        assert!(json.contains("\"layer_self_ns\":{\"broker\":"));
    }
}
