//! One `ixtuned` child process: spawn on port 0, parse the "listening on"
//! line, time spawn → first successful `ping`, and always stop it — by a
//! wire `Shutdown` when it is healthy, by a kill when it is not.

use ixtune_service::Client;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::{mpsc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Pids of live daemons, so the run watchdog can kill them if the run
/// overstays its time limit.
static LIVE: Mutex<Vec<u32>> = Mutex::new(Vec::new());

/// The live pids. Every update leaves the list valid, so a poisoned lock
/// is recovered rather than propagated (this also runs in `Drop`).
pub fn live() -> MutexGuard<'static, Vec<u32>> {
    LIVE.lock().unwrap_or_else(PoisonError::into_inner)
}

const START_TIMEOUT: Duration = Duration::from_secs(60);
const STOP_TIMEOUT: Duration = Duration::from_secs(20);

pub struct Daemon {
    child: Option<Child>,
    /// Drains the daemon's stdout until it exits; joined once it has.
    stdout: Option<JoinHandle<()>>,
    pub addr: String,
    /// Spawn → first successful `ping`, seconds (includes WAL/snapshot
    /// recovery, which happens before the daemon binds).
    pub setup_s: f64,
}

impl Daemon {
    pub fn start(bin: &Path, data_dir: &Path, flags: &[String]) -> Result<Self, String> {
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .arg("--bind")
            .arg("127.0.0.1:0")
            .arg("--data-dir")
            .arg(data_dir)
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        live().push(child.id());
        let stdout = child.stdout.take().expect("stdout is piped");
        // The reader thread forwards the first line, then drains the pipe
        // until the daemon exits so its writes never block.
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut lines = BufReader::new(stdout).lines();
            if let Some(Ok(line)) = lines.next() {
                let _ = tx.send(line);
            }
            for _ in lines {}
        });
        let mut daemon = Self {
            child: Some(child),
            stdout: Some(reader),
            addr: String::new(),
            setup_s: 0.0,
        };
        let line = rx
            .recv_timeout(START_TIMEOUT)
            .map_err(|_| "ixtuned printed no listening line".to_string())?;
        daemon.addr = line
            .strip_prefix("ixtuned listening on ")
            .ok_or_else(|| format!("unexpected ixtuned banner: {line}"))?
            .trim()
            .to_string();
        let client = Client::new(daemon.addr.clone());
        loop {
            match client.ping() {
                Ok(()) => break,
                Err(e) if t0.elapsed() > START_TIMEOUT => return Err(format!("ping: {e}")),
                Err(_) => std::thread::sleep(Duration::from_micros(200)),
            }
        }
        daemon.setup_s = t0.elapsed().as_secs_f64();
        Ok(daemon)
    }

    pub fn client(&self) -> Client {
        Client::new(self.addr.clone())
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Shut down over the wire and wait for the process to exit; kill it
    /// if it does not exit in time.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = self.client().shutdown();
        let mut child = self.child.take().expect("running daemon");
        let deadline = Instant::now() + STOP_TIMEOUT;
        let exited = loop {
            match child.try_wait() {
                Ok(Some(status)) => break Ok(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                Ok(None) => break Err("ixtuned did not exit after Shutdown".to_string()),
                Err(e) => break Err(format!("wait: {e}")),
            }
        };
        if exited.is_err() {
            kill(&mut child);
        }
        forget(child.id());
        self.join_stdout();
        asked?;
        match exited? {
            s if s.success() => Ok(()),
            s => Err(format!("ixtuned exited with {s}")),
        }
    }

    fn join_stdout(&mut self) {
        if let Some(reader) = self.stdout.take() {
            let _ = reader.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            kill(&mut child);
            forget(child.id());
        }
        self.join_stdout();
    }
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("read /proc/{pid}/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line")?;
    Ok(kb / 1024.0)
}

fn kill(child: &mut Child) {
    let _ = child.kill();
    let _ = child.wait();
}

fn forget(pid: u32) {
    live().retain(|&p| p != pid);
}
