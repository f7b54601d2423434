//! The `ixtuned` TCP front end: accepts localhost connections and speaks
//! the line-delimited JSON protocol, one handler thread per connection.

use crate::manager::SessionManager;
use crate::proto::{write_line, ErrorCode, ErrorPayload, Request, Response};
use crate::spec::ServiceConfig;
use ixtune_common::fault::{site, FaultPlan};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Hard cap on one request line. The protocol's largest legitimate
/// request is a `Submit` spec (well under a kilobyte); anything beyond
/// this is a runaway or hostile client and is answered with
/// `BadRequest` before the buffer can grow unboundedly.
const MAX_REQUEST_BYTES: usize = 1 << 20;

pub struct Daemon {
    addr: SocketAddr,
    manager: Arc<SessionManager>,
    accept: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Bind `bind` (e.g. `127.0.0.1:7311`, or port 0 for an ephemeral
    /// port) and start serving.
    pub fn start(cfg: ServiceConfig, bind: &str) -> std::io::Result<Self> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let manager = Arc::new(SessionManager::start(cfg));
        let accept = {
            let manager = Arc::clone(&manager);
            std::thread::spawn(move || accept_loop(&listener, &manager))
        };
        Ok(Self {
            addr,
            manager,
            accept: Some(accept),
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn manager(&self) -> &SessionManager {
        &self.manager
    }

    /// Block until a `Shutdown` request arrives, then drain workers.
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // All connections are done; tear down the workers. The manager is
        // solely ours by now (handlers hold clones of the Arc only while
        // their connection lives, and the accept loop has exited).
        if let Ok(mgr) = Arc::try_unwrap(self.manager).map_err(|_| ()) {
            mgr.shutdown();
        }
    }

    /// Request shutdown from the hosting process (tests use this instead
    /// of a wire `Shutdown`).
    pub fn initiate_shutdown(&self) {
        self.manager.initiate_shutdown();
        nudge_accept(self.addr);
    }
}

fn accept_loop(listener: &TcpListener, manager: &Arc<SessionManager>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if manager.is_shutdown() {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Join the handlers whose connections have closed, so an exited
        // thread's stack is released now rather than at shutdown.
        let (done, live): (Vec<_>, _) = handlers.into_iter().partition(|h| h.is_finished());
        handlers = live;
        for h in done {
            let _ = h.join();
        }
        let manager = Arc::clone(manager);
        let self_addr = listener.local_addr().ok();
        handlers.push(std::thread::spawn(move || {
            handle_connection(stream, &manager, self_addr);
        }));
    }
    for h in handlers {
        let _ = h.join();
    }
}

fn handle_connection(
    stream: TcpStream,
    manager: &Arc<SessionManager>,
    self_addr: Option<SocketAddr>,
) {
    // A finite read timeout lets the handler re-check the shutdown flag
    // while parked on an idle connection, so `join` never waits on a
    // client that holds its socket open.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let faults = manager.fault_plan().clone();
    // `read_line` appends, so a line split across timeouts accumulates.
    let mut buf = String::new();
    loop {
        match reader.read_line(&mut buf) {
            Ok(0) => return, // EOF
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if manager.is_shutdown() || buf.len() > MAX_REQUEST_BYTES {
                    return;
                }
                continue;
            }
            Err(e) if e.kind() == ErrorKind::InvalidData => {
                // Bytes that are not UTF-8 cannot be part of any valid
                // request; answer with the typed code, then close (the
                // stream cannot be resynchronized mid-garbage).
                let resp = Response::Error(ErrorPayload::new(
                    ErrorCode::BadRequest,
                    "request is not valid UTF-8",
                ));
                let _ = send_response(&mut writer, &resp, &faults);
                return;
            }
            Err(_) => return,
        }
        if buf.len() > MAX_REQUEST_BYTES {
            let resp = Response::Error(ErrorPayload::new(
                ErrorCode::BadRequest,
                format!("request line exceeds {MAX_REQUEST_BYTES} bytes"),
            ));
            let _ = send_response(&mut writer, &resp, &faults);
            return;
        }
        let line = buf.trim();
        let msg = if line.is_empty() {
            Err(ErrorPayload::new(
                ErrorCode::BadRequest,
                "empty request line",
            ))
        } else {
            serde_json::from_str::<Request>(line).map_err(|e| {
                ErrorPayload::new(ErrorCode::BadRequest, format!("bad request: {e:?}"))
            })
        };
        buf.clear();
        let response = match msg {
            Err(e) => Response::Error(e),
            Ok(req) => {
                let shutdown = matches!(req, Request::Shutdown);
                let resp = dispatch(req, manager);
                if shutdown {
                    let _ = send_response(&mut writer, &resp, &faults);
                    // Unblock the accept loop so it observes the flag.
                    if let Some(addr) = self_addr {
                        nudge_accept(addr);
                    }
                    return;
                }
                resp
            }
        };
        if send_response(&mut writer, &response, &faults).is_err() {
            return;
        }
    }
}

/// Write one response, subject to the wire fault sites: `wire.drop`
/// closes the connection with no bytes, `wire.truncate` sends half the
/// frame then closes, `wire.garble` flips a payload byte (framing intact,
/// JSON broken). With an inert plan this is exactly [`write_line`].
fn send_response(w: &mut impl Write, resp: &Response, faults: &FaultPlan) -> std::io::Result<()> {
    if !faults.enabled() {
        return write_line(w, resp);
    }
    if faults.fire(site::WIRE_DROP) {
        return Err(std::io::Error::other("injected: wire.drop"));
    }
    let mut line =
        serde_json::to_string(resp).map_err(|e| std::io::Error::other(format!("{e}")))?;
    line.push('\n');
    let mut bytes = line.into_bytes();
    if faults.fire(site::WIRE_TRUNCATE) {
        bytes.truncate(bytes.len() / 2);
        w.write_all(&bytes)?;
        w.flush()?;
        return Err(std::io::Error::other("injected: wire.truncate"));
    }
    if faults.fire(site::WIRE_GARBLE) {
        // Never the trailing newline: the client sees one complete line
        // of invalid JSON, exercising its malformed-message path.
        let mid = (bytes.len() - 1) / 2;
        bytes[mid] ^= 0x20;
    }
    w.write_all(&bytes)?;
    w.flush()
}

fn dispatch(req: Request, manager: &SessionManager) -> Response {
    let unit = |r: Result<(), ErrorPayload>| match r {
        Ok(()) => Response::Ok,
        Err(e) => Response::Error(e),
    };
    match req {
        Request::Ping => Response::Pong,
        Request::Submit(spec) => match manager.submit(spec) {
            Ok(id) => Response::Submitted(id),
            Err(e) => Response::Error(e),
        },
        Request::Status(id) => match manager.status(id) {
            Ok(s) => Response::Status(s),
            Err(e) => Response::Error(e),
        },
        Request::Result(id) => match manager.result(id) {
            Ok(r) => Response::Result(r),
            Err(e) => Response::Error(e),
        },
        Request::Cancel(id) => unit(manager.cancel(id)),
        Request::Suspend(id) => unit(manager.suspend(id)),
        Request::Resume(id) => unit(manager.resume(id)),
        Request::List => Response::Sessions(manager.list()),
        Request::Metrics => Response::Metrics(manager.metrics()),
        Request::Trace(id) => match manager.trace_json(id) {
            Ok(json) => Response::Trace(json),
            Err(e) => Response::Error(e),
        },
        Request::StoreStats => Response::StoreStats(manager.store_stats()),
        Request::StoreFlush => Response::Flushed(manager.store_flush()),
        Request::PersistStats => Response::PersistStats(manager.persist_stats().into()),
        Request::Shutdown => {
            manager.initiate_shutdown();
            Response::Ok
        }
    }
}

/// Poke the listener with a throwaway connection so a blocked `accept`
/// returns and re-checks the shutdown flag.
fn nudge_accept(addr: SocketAddr) {
    let _ = TcpStream::connect(addr);
}
