//! Property tests at the service layer.
//!
//! * The wire codec round-trips every protocol message through the
//!   line-delimited JSON framing byte-exactly.
//! * The full service path — submit with a deterministic pause trigger,
//!   snapshot to disk, resume — yields the same `ResultPayload` (modulo
//!   wall-clock) as an uninterrupted session, for arbitrary instances,
//!   budgets, and pause points. This is the DESIGN.md §6 resume guarantee
//!   checked end to end through the manager rather than the tuner API.

use ixtune_core::stop::StopReason;
use ixtune_service::proto::{read_line, write_line};
use ixtune_service::{
    AlgorithmSpec, Request, ResultPayload, ServiceConfig, SessionManager, SessionState, SubmitSpec,
    WorkloadSpec,
};
use proptest::prelude::*;
use std::io::BufReader;
use std::time::Duration;

fn roundtrip_request(req: &Request) -> Request {
    let mut buf = Vec::new();
    write_line(&mut buf, req).unwrap();
    let mut reader = BufReader::new(&buf[..]);
    read_line::<Request>(&mut reader).unwrap().unwrap().unwrap()
}

fn algorithm_strategy() -> impl Strategy<Value = AlgorithmSpec> {
    (0u8..4).prop_map(|i| match i {
        0 => AlgorithmSpec::Mcts,
        1 => AlgorithmSpec::VanillaGreedy,
        2 => AlgorithmSpec::TwoPhase,
        _ => AlgorithmSpec::AutoAdmin,
    })
}

/// `Option<T>` strategy for the vendored proptest stand-in: a coin flip
/// plus a value from `range`.
fn maybe<S: Strategy>(range: S) -> impl Strategy<Value = Option<S::Value>> {
    (0u8..2, range).prop_map(|(flag, v)| (flag == 1).then_some(v))
}

fn spec_strategy() -> impl Strategy<Value = SubmitSpec> {
    (
        (0u64..100, algorithm_strategy(), 1usize..12, 1usize..5_000),
        (any::<u64>(), 0usize..8, maybe(1u64..(1u64 << 40))),
        (maybe(1u64..100_000), maybe(1usize..500), maybe(1usize..500)),
    )
        .prop_map(
            |((wl, algorithm, k, budget), (seed, threads, storage), (deadline, pause, cancel))| {
                let mut spec = SubmitSpec::new(WorkloadSpec::Synth(wl), algorithm, k, budget);
                spec.storage_bytes = storage;
                spec.seed = seed;
                spec.session_threads = threads;
                spec.deadline_ms = deadline;
                spec.pause_after_calls = pause;
                spec.cancel_after_calls = cancel;
                spec
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn wire_codec_roundtrips_every_request(spec in spec_strategy(), id in any::<u64>()) {
        for req in [
            Request::Ping,
            Request::Submit(spec.clone()),
            Request::Status(id),
            Request::Result(id),
            Request::Cancel(id),
            Request::Suspend(id),
            Request::Resume(id),
            Request::List,
            Request::Metrics,
            Request::Trace(id),
            Request::StoreStats,
            Request::StoreFlush,
            Request::Shutdown,
        ] {
            prop_assert_eq!(roundtrip_request(&req), req);
        }
    }
}

fn config(tag: u64) -> ServiceConfig {
    let data_dir = std::env::temp_dir().join(format!("ixtuned-props-{tag}"));
    // Durable state survives the process; wipe the directory so every
    // proptest case starts cold.
    let _ = std::fs::remove_dir_all(&data_dir);
    ServiceConfig {
        max_concurrent: 2,
        queue_capacity: 8,
        data_dir,
        ..ServiceConfig::default()
    }
}

fn strip_wall_clock(mut payload: ResultPayload) -> ResultPayload {
    payload.telemetry.wall_clock_ms = 0.0;
    // Warm-store provenance is execution detail too: a concurrent session
    // over the same workload may have seeded the store mid-run.
    payload.telemetry.warm_hits = 0;
    payload.telemetry.warm_seeded = 0;
    payload
}

proptest! {
    // Each case runs two full MCTS sessions; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn service_resume_matches_uninterrupted_session(
        wl in 0u64..6,
        seed in 0u64..64,
        budget in 30usize..90,
        pause in 3usize..30,
    ) {
        let mgr = SessionManager::start(config(wl * 1_000 + pause as u64));

        let mut paused = SubmitSpec::new(WorkloadSpec::Synth(wl), AlgorithmSpec::Mcts, 3, budget);
        paused.seed = seed;
        paused.pause_after_calls = Some(pause);
        let control = {
            let mut s = paused.clone();
            s.pause_after_calls = None;
            s
        };

        let a = mgr.submit(paused).unwrap();
        let b = mgr.submit(control).unwrap();

        // The paused session settles as Suspended unless the search ended
        // before the trigger's episode boundary; resume until terminal.
        loop {
            match mgr.wait_settled(a, Duration::from_secs(120)) {
                Some(SessionState::Suspended) => mgr.resume(a).unwrap(),
                Some(s) if s.terminal() => break,
                other => prop_assert!(false, "session a stuck: {:?}", other),
            }
        }
        prop_assert_eq!(mgr.wait_settled(b, Duration::from_secs(120)), Some(SessionState::Done));

        let ra = mgr.result(a).unwrap();
        let rb = mgr.result(b).unwrap();
        prop_assert_eq!(strip_wall_clock(ra), strip_wall_clock(rb));
        mgr.shutdown();
    }
}

/// Regression: a suspended session that is resumed and then terminates on
/// its own stopping rule (budget left over) must report
/// `StopReason::Completed` and settle `Done` — not carry the stale
/// suspend reason (which maps to `Cancelled`) into the final result.
#[test]
fn resumed_session_completing_normally_reports_completed() {
    let mgr = SessionManager::start(config(990_001));

    // Budget far above what MCTS needs on this instance, so the resumed
    // segment ends by idle-streak convergence, not budget exhaustion.
    let mut spec = SubmitSpec::new(WorkloadSpec::Synth(3), AlgorithmSpec::Mcts, 3, 1_000_000);
    spec.seed = 7;
    spec.pause_after_calls = Some(20);
    let id = mgr.submit(spec).unwrap();

    assert_eq!(
        mgr.wait_settled(id, Duration::from_secs(120)),
        Some(SessionState::Suspended),
        "pause trigger must land before the search converges"
    );
    mgr.resume(id).unwrap();
    assert_eq!(
        mgr.wait_settled(id, Duration::from_secs(300)),
        Some(SessionState::Done)
    );

    let r = mgr.result(id).unwrap();
    assert_eq!(r.stop_reason, Some(StopReason::Completed), "{r:?}");
    assert!(
        r.calls_used < 1_000_000,
        "budget must not be the stopping rule here"
    );
    assert_eq!(mgr.status(id).unwrap().state, SessionState::Done);
    mgr.shutdown();
}
