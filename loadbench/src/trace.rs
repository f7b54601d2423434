//! In-memory spans around the benchmark's calls into each layer. Spans
//! are kept in memory for the whole run and written out once at the end;
//! with tracing off every call is a no-op that never reads the clock.

use serde_json::Value;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Index of the session in the run's list; spans of one session share
    /// it. `usize::MAX` for spans outside any session (set-up, priming).
    pub session: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub const NO_SESSION: usize = usize::MAX;

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; `None` (and no clock read) when tracing is off.
    pub fn open(&self, name: &'static str, session: usize, parent: Option<usize>) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span lock poisoned");
        spans.push(Span {
            name,
            session,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        Some(spans.len() - 1)
    }

    pub fn close(&self, id: Option<usize>) {
        if let Some(id) = id {
            let end = self.now_ns();
            self.spans.lock().expect("span lock poisoned")[id].end_ns = end;
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &self,
        name: &'static str,
        session: usize,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, session, parent);
        let out = f();
        self.close(id);
        out
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span lock poisoned"))
    }
}

/// Self time of every span: its duration minus the time its direct
/// children cover (children of one span never overlap here — each is
/// opened and closed by the same thread in sequence).
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Spans as a JSON array (times in microseconds since the run began).
pub fn to_json(spans: &[Span]) -> Value {
    Value::Arr(
        spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Value::Obj(vec![
                    ("id".into(), Value::U64(id as u64)),
                    ("name".into(), Value::Str(s.name.into())),
                    (
                        "session".into(),
                        if s.session == NO_SESSION {
                            Value::Null
                        } else {
                            Value::U64(s.session as u64)
                        },
                    ),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                    ),
                    ("start_us".into(), Value::F64(s.start_ns as f64 / 1e3)),
                    ("dur_us".into(), Value::F64(s.dur_ns() as f64 / 1e3)),
                ])
            })
            .collect(),
    )
}
