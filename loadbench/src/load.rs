//! The closed-loop clients. Each client thread takes the next session of
//! the list, submits it, polls `status` every [`POLL_MS`] until it sees a
//! terminal state (resuming suspended sessions), fetches the result, and
//! only then takes the next one.
//!
//! Each client thread keeps one connection open and sends its requests
//! over it through `proto::write_line`/`read_line` (the daemon serves any
//! number of request lines per connection), so the bytes on the wire can
//! be counted and each half of an exchange spanned. `ixtune_service::
//! Client` opens a connection per call instead; `ixtuned` keeps every
//! connection's thread until it shuts down, so a run of tens of thousands
//! of calls would exhaust the host's memory maps. Connection set-up is
//! measured on its own by [`ping_rtt_us`]. `Client::wait_terminal` is not
//! used: it sleeps 20 ms per poll, coarser than most sessions here.

use crate::plan::{CLIENTS, POLL_MS};
use crate::stats::median;
use crate::trace::{Tracer, NO_SESSION};
use ixtune_service::proto::{read_line, write_line};
use ixtune_service::{Request, Response, ResultPayload, SessionState, SubmitSpec};
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Socket timeout: a daemon that stops answering fails the session
/// instead of hanging the run.
const IO_TIMEOUT: Duration = Duration::from_secs(30);
/// A session not terminal after this long counts as failed.
const SESSION_TIMEOUT: Duration = Duration::from_secs(60);

pub struct SessionRun {
    /// Position in the run's session list.
    pub index: usize,
    pub spec: SubmitSpec,
    /// Submit sent → terminal state seen, milliseconds.
    pub latency_ms: f64,
    pub polls: usize,
    pub resumes: usize,
    /// Request + response bytes over every exchange of the session.
    pub bytes: u64,
    pub outcome: Result<ResultPayload, String>,
}

pub struct LoadRun {
    /// Sessions in list order.
    pub sessions: Vec<SessionRun>,
    /// First submit → last session terminal, seconds.
    pub elapsed_s: f64,
}

/// When the clients stop taking new sessions.
pub enum Until {
    /// Timed phase: sessions already taken still run to completion.
    Deadline(Duration),
    /// Exactly the first `n` sessions of the list.
    Count(usize),
}

/// Drive `spec_of(0)`, `spec_of(1)`, … from [`CLIENTS`] closed-loop
/// client threads. A `milestone` `(n, f)` calls `f` as the `n`-th session
/// completes.
pub fn drive(
    addr: &str,
    spec_of: &(dyn Fn(usize) -> SubmitSpec + Sync),
    until: Until,
    milestone: Option<(usize, &(dyn Fn() + Sync))>,
    tracer: &Tracer,
) -> LoadRun {
    let next = AtomicUsize::new(0);
    let completed = AtomicUsize::new(0);
    let start = Instant::now();
    let mut sessions: Vec<SessionRun> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut conn = None;
                    let mut done = Vec::new();
                    loop {
                        if let Until::Deadline(d) = until {
                            if start.elapsed() >= d {
                                return done;
                            }
                        }
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if matches!(until, Until::Count(n) if i >= n) {
                            return done;
                        }
                        done.push(run_session(addr, &mut conn, i, spec_of(i), tracer));
                        let count = completed.fetch_add(1, Ordering::SeqCst) + 1;
                        if let Some((n, f)) = milestone {
                            if count == n {
                                f();
                            }
                        }
                    }
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    sessions.sort_by_key(|s| s.index);
    LoadRun {
        sessions,
        elapsed_s,
    }
}

/// Run one session over the client's connection, opening it first when
/// there is none. A failed exchange drops the connection, so the next
/// session starts on a fresh one.
fn run_session(
    addr: &str,
    conn: &mut Option<Conn>,
    index: usize,
    spec: SubmitSpec,
    tracer: &Tracer,
) -> SessionRun {
    let mut run = SessionRun {
        index,
        spec,
        latency_ms: 0.0,
        polls: 0,
        resumes: 0,
        bytes: 0,
        outcome: Err(String::new()),
    };
    let c = match conn {
        Some(c) => c,
        None => match Conn::open(addr) {
            Ok(c) => conn.insert(c),
            Err(e) => {
                run.outcome = Err(e);
                return run;
            }
        },
    };
    let bytes_before = c.bytes();
    let root = tracer.open("session", index, None);
    let t0 = Instant::now();
    let mut call = |name, req: &Request, parent| c.call(name, req, tracer, index, parent);
    let terminal = (|| {
        let id = match call("call.submit", &Request::Submit(run.spec.clone()), root)? {
            Response::Submitted(id) => id,
            other => return Err(unexpected("submit", other)),
        };
        loop {
            std::thread::sleep(Duration::from_millis(POLL_MS));
            if t0.elapsed() > SESSION_TIMEOUT {
                return Err(format!(
                    "session {id} not terminal after {SESSION_TIMEOUT:?}"
                ));
            }
            run.polls += 1;
            let status = match call("call.status", &Request::Status(id), root)? {
                Response::Status(s) => s,
                other => return Err(unexpected("status", other)),
            };
            match status.state {
                SessionState::Done => return Ok(id),
                SessionState::Cancelled | SessionState::Failed => {
                    return Err(format!(
                        "session {id} ended {:?}: {}",
                        status.state,
                        status.error.unwrap_or_default()
                    ))
                }
                SessionState::Suspended => {
                    run.resumes += 1;
                    match call("call.resume", &Request::Resume(id), root)? {
                        Response::Ok => {}
                        other => return Err(unexpected("resume", other)),
                    }
                }
                SessionState::Queued | SessionState::Running => {}
            }
        }
    })();
    run.latency_ms = t0.elapsed().as_secs_f64() * 1e3;
    tracer.close(root);
    run.outcome = terminal.and_then(
        |id| match call("call.result", &Request::Result(id), None)? {
            Response::Result(r) => Ok(r),
            other => Err(unexpected("result", other)),
        },
    );
    run.bytes = c.bytes() - bytes_before;
    if run.outcome.is_err() {
        *conn = None;
    }
    run
}

fn unexpected(verb: &str, resp: Response) -> String {
    match resp {
        Response::Error(e) => format!("{verb}: {e}"),
        other => format!("{verb}: unexpected response {other:?}"),
    }
}

/// One client connection, with the bytes through each half counted.
struct Conn {
    writer: Counting,
    reader: BufReader<Counting>,
}

impl Conn {
    fn open(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| format!("socket: {e}"))?;
        let writer = Counting::new(stream.try_clone().map_err(|e| format!("socket: {e}"))?);
        Ok(Self {
            writer,
            reader: BufReader::new(Counting::new(stream)),
        })
    }

    fn bytes(&self) -> u64 {
        self.writer.bytes + self.reader.get_ref().bytes
    }

    /// One request/response exchange, spanned as `name` with
    /// `proto.write_line`/`proto.read_line` children.
    fn call(
        &mut self,
        name: &'static str,
        req: &Request,
        tracer: &Tracer,
        session: usize,
        parent: Option<usize>,
    ) -> Result<Response, String> {
        let span = tracer.open(name, session, parent);
        let sent = tracer.span("proto.write_line", session, span, || {
            write_line(&mut self.writer, req)
        });
        let resp = match sent {
            Ok(()) => tracer.span("proto.read_line", session, span, || {
                read_line::<Response>(&mut self.reader)
            }),
            Err(e) => Err(e),
        };
        tracer.close(span);
        match resp {
            Ok(Some(Ok(resp))) => Ok(resp),
            Ok(Some(Err(e))) => Err(e),
            Ok(None) => Err("daemon closed the connection".into()),
            Err(e) => Err(format!("wire: {e}")),
        }
    }
}

/// Median `ping` round trip over `n` exchanges, each on a fresh
/// connection (as `Client::ping` makes it), microseconds.
pub fn ping_rtt_us(addr: &str, n: usize, tracer: &Tracer) -> Result<f64, String> {
    let mut rtts = Vec::with_capacity(n);
    for _ in 0..n {
        let t0 = Instant::now();
        let resp = Conn::open(addr)?.call("call.ping", &Request::Ping, tracer, NO_SESSION, None)?;
        match resp {
            Response::Pong => rtts.push(t0.elapsed().as_secs_f64() * 1e6),
            other => return Err(unexpected("ping", other)),
        }
    }
    Ok(median(&rtts))
}

/// A socket half that counts the bytes passing through it.
struct Counting {
    inner: TcpStream,
    bytes: u64,
}

impl Counting {
    fn new(inner: TcpStream) -> Self {
        Self { inner, bytes: 0 }
    }
}

impl Write for Counting {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

impl Read for Counting {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
}
