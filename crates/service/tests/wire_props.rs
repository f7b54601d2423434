//! Seeded wire-frame properties: whatever bytes a client sends — a
//! request line mutated by byte flips, insertions, deletions and
//! truncation, or raw bytes — the daemon answers every request line it
//! carries with one parseable `Response` line, within a timeout, and keeps
//! serving. A handler panic shows as a missing answer; a poisoned monitor
//! fails the `Ping`/`List` checks after the run.

use ixtune_service::proto::read_line;
use ixtune_service::{
    AlgorithmSpec, Daemon, Request, Response, ServiceConfig, SubmitSpec, WorkloadSpec,
};
use proptest::prelude::*;
use proptest::test_runner;
use std::io::{BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

/// How long one connection may take to answer all of its lines.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(30);

/// Every request but `Shutdown`, as a JSON line; kinds 1, 13 and 14 are
/// `Submit`. `submit` is `(synth seed, algorithm, k, budget, trigger)`.
fn request_line(kind: u32, id: u64, submit: (u64, usize, usize, usize, u32)) -> Vec<u8> {
    let (seed, algorithm, k, budget, trigger) = submit;
    let req = match kind {
        0 => Request::Ping,
        1 | 13 | 14 => {
            let algorithm = [
                AlgorithmSpec::Mcts,
                AlgorithmSpec::VanillaGreedy,
                AlgorithmSpec::TwoPhase,
                AlgorithmSpec::AutoAdmin,
            ][algorithm];
            let mut spec = SubmitSpec::new(WorkloadSpec::Synth(seed), algorithm, k, budget);
            match trigger {
                1 => spec.pause_after_calls = Some(budget / 2),
                2 => spec.cancel_after_calls = Some(budget / 2),
                3 => spec.deadline_ms = Some(1),
                _ => {}
            }
            Request::Submit(spec)
        }
        2 => Request::Status(id),
        3 => Request::Result(id),
        4 => Request::Cancel(id),
        5 => Request::Suspend(id),
        6 => Request::Resume(id),
        7 => Request::List,
        8 => Request::Metrics,
        9 => Request::Trace(id),
        10 => Request::StoreStats,
        11 => Request::StoreFlush,
        _ => Request::PersistStats,
    };
    format!("{}\n", serde_json::to_string(&req).unwrap()).into_bytes()
}

/// Apply `(op, position, byte)` edits: flip, insert, delete, truncate.
fn mutate(mut bytes: Vec<u8>, edits: &[(u32, u64, u8)]) -> Vec<u8> {
    for &(op, pos, byte) in edits {
        let at = (pos % (bytes.len() as u64 + 1)) as usize;
        match op {
            0 if at < bytes.len() => bytes[at] ^= byte | 1,
            1 => bytes.insert(at, byte),
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            3 => bytes.truncate(at),
            _ => {}
        }
    }
    bytes
}

/// The lines of `frame` the daemon reads: split at newlines, a final
/// unterminated segment counting when non-empty.
fn lines(frame: &[u8]) -> Vec<&[u8]> {
    let mut lines: Vec<&[u8]> = frame.split(|&b| b == b'\n').collect();
    if lines.last().is_some_and(|l| l.is_empty()) {
        lines.pop();
    }
    lines
}

/// Answers the daemon owes `frame`: one per line, up to and including the
/// first line that is not UTF-8, after which it closes the connection.
fn owed_answers(frame: &[u8]) -> usize {
    let lines = lines(frame);
    match lines.iter().position(|l| std::str::from_utf8(l).is_err()) {
        Some(i) => i + 1,
        None => lines.len(),
    }
}

fn says_shutdown(frame: &[u8]) -> bool {
    lines(frame).iter().any(|l| {
        std::str::from_utf8(l)
            .ok()
            .and_then(|l| serde_json::from_str::<Request>(l.trim()).ok())
            == Some(Request::Shutdown)
    })
}

/// Send `frame` on a fresh connection, half-close, and collect every
/// answer line until the daemon closes.
fn exchange(addr: &str, frame: &[u8]) -> Result<Vec<Result<Response, String>>, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(ANSWER_TIMEOUT))
        .map_err(|e| e.to_string())?;
    stream.write_all(frame).map_err(|e| format!("send: {e}"))?;
    stream
        .shutdown(Shutdown::Write)
        .map_err(|e| format!("half-close: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut answers = Vec::new();
    loop {
        match read_line::<Response>(&mut reader) {
            Ok(Some(answer)) => answers.push(answer),
            Ok(None) => return Ok(answers),
            Err(e) => return Err(format!("after {} answers: {e}", answers.len())),
        }
    }
}

fn one_answer(addr: &str, req: &Request) -> Response {
    let line = format!("{}\n", serde_json::to_string(req).unwrap());
    let mut answers = exchange(addr, line.as_bytes()).expect("daemon answers");
    assert_eq!(answers.len(), 1, "{answers:?}");
    answers.remove(0).expect("parseable answer")
}

/// Cases of the property; each sends one frame on its own connection.
const CASES: u32 = 256;

/// One daemon serves every case; the checks after the run ask the same
/// daemon.
#[test]
fn every_frame_gets_typed_answers_and_the_daemon_keeps_serving() {
    let data_dir = std::env::temp_dir().join(format!("ixtuned-wire-props-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let cfg = ServiceConfig {
        max_concurrent: 1,
        queue_capacity: 8,
        data_dir: data_dir.clone(),
        ..ServiceConfig::default()
    };
    let daemon = Daemon::start(cfg, "127.0.0.1:0").expect("start daemon");
    let addr = daemon.addr().to_string();

    // Kind 15 sends raw bytes; a mutated `Submit` rarely still parses, so
    // it gets three kinds of sixteen.
    let kinds = 0..16u32;
    let ids = (any::<u64>(), any::<bool>()).prop_map(|(id, small)| if small { id % 8 } else { id });
    let submits = (0..4u64, 0..4usize, 1..6usize, 1..51usize, 0..4u32);
    let edits = prop::collection::vec((0..4u32, any::<u64>(), any::<u8>()), 0..4);
    let raw = prop::collection::vec(any::<u8>(), 0..64);
    test_runner::run(&ProptestConfig::with_cases(CASES), "wire_frames", |rng| {
        let kind = kinds.generate(rng);
        let frame = if kind == 15 {
            raw.generate(rng)
        } else {
            let line = request_line(kind, ids.generate(rng), submits.generate(rng));
            mutate(line, &edits.generate(rng))
        };
        prop_assume!(!says_shutdown(&frame));
        let answers = exchange(&addr, &frame).map_err(|e| {
            TestCaseError::Fail(format!("frame {:?}: {e}", String::from_utf8_lossy(&frame)))
        })?;
        prop_assert!(
            answers.len() == owed_answers(&frame),
            "frame {:?} owed {} answers, got {:?}",
            String::from_utf8_lossy(&frame),
            owed_answers(&frame),
            answers
        );
        for answer in &answers {
            prop_assert!(answer.is_ok(), "unparseable answer {:?}", answer);
        }
        Ok(())
    });

    assert_eq!(one_answer(&addr, &Request::Ping), Response::Pong);
    assert!(
        matches!(one_answer(&addr, &Request::List), Response::Sessions(_)),
        "List answers after the run"
    );
    daemon.initiate_shutdown();
    daemon.join();
    let _ = std::fs::remove_dir_all(data_dir);
}
