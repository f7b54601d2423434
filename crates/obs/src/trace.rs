//! A bounded span recorder with Chrome-trace-viewer export.
//!
//! The recorder keeps completed spans in a mutex-guarded ring buffer.
//! Callers record one span per session phase (an MCTS session's priors,
//! episodes and extraction; a greedy session's phases), never one per
//! step, episode or candidate, so a ring shared by every session of a
//! daemon holds whole sessions and a short critical section costs nothing
//! next to the phase it times. Timestamps are microseconds from a single
//! monotonic origin captured at construction, so spans from different
//! threads and sessions order consistently. When the ring is full the
//! oldest records are dropped — a long-lived daemon keeps the most
//! recent window.
//!
//! [`chrome_trace`](TraceRecorder::chrome_trace) renders the JSON array
//! format understood by `chrome://tracing` / Perfetto: complete events
//! (`"ph":"X"`) with `pid` = session scope and `tid` = recording thread.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One completed span.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Span name, e.g. `episodes`.
    pub name: String,
    /// Category lane, e.g. `mcts`, `checkpoint`.
    pub cat: &'static str,
    /// Microseconds from the recorder's origin.
    pub ts_us: u64,
    /// Span duration in microseconds (0 for spans shorter than the clock
    /// tick).
    pub dur_us: u64,
    /// Session scope (the service's session id; 0 outside the service).
    pub scope: u64,
    /// Recording thread, as a small process-wide ordinal.
    pub tid: u64,
    /// Free-form key/value annotations (calls used, indexes chosen, …).
    pub args: Vec<(String, String)>,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// A stable small id for the current thread (first use assigns one).
pub fn thread_ordinal() -> u64 {
    TID.with(|t| *t)
}

/// Bounded ring buffer of [`SpanRecord`]s with one monotonic clock.
pub struct TraceRecorder {
    origin: Instant,
    capacity: usize,
    ring: Mutex<VecDeque<SpanRecord>>,
}

impl TraceRecorder {
    /// A recorder keeping at most `capacity` records.
    pub fn new(capacity: usize) -> Self {
        Self {
            origin: Instant::now(),
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Microseconds since the recorder's origin — the timestamp base every
    /// span start must come from.
    #[inline]
    pub fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Record a span that started at `start_us` (from [`now_us`]) and ends
    /// now.
    ///
    /// [`now_us`]: Self::now_us
    pub fn complete(
        &self,
        name: &str,
        cat: &'static str,
        scope: u64,
        start_us: u64,
        args: Vec<(String, String)>,
    ) {
        let end = self.now_us();
        let rec = SpanRecord {
            name: name.to_string(),
            cat,
            ts_us: start_us,
            dur_us: end.saturating_sub(start_us),
            scope,
            tid: thread_ordinal(),
            args,
        };
        let mut ring = self.ring.lock().unwrap();
        if ring.len() >= self.capacity {
            ring.pop_front();
        }
        ring.push_back(rec);
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot the records for `scope` (or all scopes when `None`).
    pub fn records(&self, scope: Option<u64>) -> Vec<SpanRecord> {
        let ring = self.ring.lock().unwrap();
        ring.iter()
            .filter(|r| scope.is_none_or(|s| r.scope == s))
            .cloned()
            .collect()
    }

    /// Render the Chrome trace-viewer JSON array for `scope` (or all
    /// scopes): one complete event (`"ph":"X"`) per span, with `pid`
    /// carrying the session scope so multi-session traces split into
    /// process lanes.
    pub fn chrome_trace(&self, scope: Option<u64>) -> String {
        let mut out = String::from("[");
        for (i, r) in self.records(scope).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n{");
            push_kv(&mut out, "name", &r.name);
            out.push(',');
            push_kv(&mut out, "cat", r.cat);
            out.push(',');
            push_kv(&mut out, "ph", "X");
            out.push_str(&format!(",\"ts\":{},\"dur\":{}", r.ts_us, r.dur_us));
            out.push_str(&format!(",\"pid\":{},\"tid\":{}", r.scope, r.tid));
            out.push_str(",\"args\":{");
            for (j, (k, v)) in r.args.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                push_kv(&mut out, k, v);
            }
            out.push_str("}}");
        }
        out.push_str("\n]\n");
        out
    }
}

fn push_kv(out: &mut String, k: &str, v: &str) {
    out.push('"');
    escape_into(out, k);
    out.push_str("\":\"");
    escape_into(out, v);
    out.push('"');
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_monotonic_times() {
        let rec = TraceRecorder::new(16);
        let t0 = rec.now_us();
        rec.complete("step", "greedy", 1, t0, vec![("k".into(), "0".into())]);
        let spans = rec.records(None);
        assert_eq!(spans.len(), 1);
        assert!(spans[0].ts_us >= t0);
        assert_eq!(spans[0].scope, 1);
    }

    #[test]
    fn ring_drops_oldest_beyond_capacity() {
        let rec = TraceRecorder::new(3);
        for i in 0..5 {
            let t0 = rec.now_us();
            rec.complete(&format!("e{i}"), "t", 0, t0, vec![]);
        }
        assert_eq!(rec.len(), 3);
        let names: Vec<String> = rec.records(None).into_iter().map(|r| r.name).collect();
        assert_eq!(names, vec!["e2", "e3", "e4"]);
    }

    #[test]
    fn scope_filter_selects_one_session() {
        let rec = TraceRecorder::new(16);
        let t0 = rec.now_us();
        rec.complete("a", "t", 1, t0, vec![]);
        rec.complete("b", "t", 2, t0, vec![]);
        rec.complete("c", "t", 1, t0, vec![]);
        assert_eq!(rec.records(Some(1)).len(), 2);
        assert_eq!(rec.records(Some(2)).len(), 1);
        assert_eq!(rec.records(None).len(), 3);
    }

    #[test]
    fn chrome_trace_is_wellformed_json() {
        let rec = TraceRecorder::new(16);
        let t0 = rec.now_us();
        rec.complete(
            "ep\"isode",
            "mcts",
            7,
            t0,
            vec![("best".into(), "0.25".into())],
        );
        rec.complete("extraction", "mcts", 7, t0, vec![]);
        let json = rec.chrome_trace(Some(7));
        assert!(json.starts_with('[') && json.trim_end().ends_with(']'));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"pid\":7"));
        assert!(json.contains("ep\\\"isode"));
        // Balanced braces/brackets outside strings — cheap well-formedness.
        let (mut depth, mut in_str, mut esc) = (0i32, false, false);
        for c in json.chars() {
            if esc {
                esc = false;
                continue;
            }
            match c {
                '\\' if in_str => esc = true,
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => depth -= 1,
                _ => {}
            }
        }
        assert_eq!(depth, 0);
        assert!(!in_str);
    }

    #[test]
    fn thread_ordinals_are_stable_per_thread() {
        let here = thread_ordinal();
        assert_eq!(here, thread_ordinal());
        let other = std::thread::spawn(thread_ordinal).join().unwrap();
        assert_ne!(here, other);
    }
}
