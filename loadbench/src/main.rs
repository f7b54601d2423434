//! `ixtune-loadbench`: one benchmark run against a real `ixtuned`.
//!
//! ```text
//! ixtune-loadbench --workload paper-greedy-warm|paper-mcts|synth-cold-durable \
//!     --seed N --seconds S --trace 0|1 --daemon PATH --work-dir DIR [--commit SHA]
//! ```
//!
//! A run computes in-process references for its session list, sets up
//! `ixtuned` on a fresh `--data-dir` under the work dir (bound to port 0),
//! drives the seeded session list from two closed-loop clients for `S`
//! seconds, stops the daemon, and checks every session against its
//! reference. With `--trace 0` the last stdout line carries the end-to-end
//! metrics; with `--trace 1` the same run also spans every call into a
//! layer, replays the sessions in-process, and reports the per-layer
//! metrics instead. `loadbench/run.py` builds both binaries and runs this.

mod daemon;
mod inproc;
mod layers;
mod load;
mod plan;
mod stats;
mod trace;

use daemon::Daemon;
use inproc::{Identity, Mirror};
use ixtune_core::warm::WarmStore;
use ixtune_service::spec::Prepared;
use ixtune_service::{AlgorithmSpec, PersistStatsPayload, ResultPayload, SubmitSpec};
use load::{LoadRun, Until};
use plan::{Plan, Workload};
use serde_json::Value;
use stats::{median, sorted, tail};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use trace::{Tracer, NO_SESSION};

/// Daemon starts per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Ping exchanges behind `service.wire.rtt_us`.
const RTT_PINGS: usize = 200;
/// A run that overstays this is killed, daemons first.
const WATCHDOG: Duration = Duration::from_secs(165);
/// The traced replay stops after this many sessions or this long.
const REPLAY_SESSIONS: usize = 400;
const REPLAY_TIME: Duration = Duration::from_secs(10);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    daemon: PathBuf,
    work_dir: PathBuf,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: HashMap<String, String> = HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        kv.insert(name.to_string(), value);
    }
    let get = |k: &str| {
        kv.get(k)
            .cloned()
            .ok_or_else(|| format!("--{k} is required"))
    };
    let num = |k: &str| -> Result<f64, String> {
        get(k)?.parse().map_err(|_| format!("--{k}: not a number"))
    };
    let workload = get("workload")?;
    Ok(Args {
        workload: Workload::parse(&workload)
            .ok_or_else(|| format!("unknown workload `{workload}`"))?,
        seed: get("seed")?
            .parse()
            .map_err(|_| "--seed: not an integer".to_string())?,
        seconds: num("seconds")?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace: expected 0 or 1, got `{other}`")),
        },
        daemon: get("daemon")?.into(),
        work_dir: get("work-dir")?.into(),
        commit: kv
            .get("commit")
            .cloned()
            .unwrap_or_else(|| "unknown".into()),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loadbench: {e}");
            std::process::exit(2);
        }
    };
    // Detached on purpose: it either ends the process or dies with it.
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("loadbench: run exceeded {WATCHDOG:?}; killing daemons");
        for pid in daemon::live().iter() {
            let _ = std::process::Command::new("kill")
                .arg("-9")
                .arg(pid.to_string())
                .status();
        }
        std::process::exit(1);
    });
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("loadbench: {e}");
            std::process::exit(1);
        }
    }
}

/// The run's scratch directory under the work dir, removed when dropped.
struct RunDir(PathBuf);

impl RunDir {
    fn create(work_dir: &Path, args: &Args) -> Result<Self, String> {
        let dir = work_dir.join(format!(
            "run-{}-{}-{}-{}",
            args.workload.name(),
            args.seed,
            u8::from(args.trace),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Everything measured on the daemon side of one run.
pub struct Served {
    pub setup_s: Vec<f64>,
    pub recovery_ms: Vec<f64>,
    pub rtt_us: f64,
    pub rss_mb: f64,
    pub persist_before: PersistStatsPayload,
    pub persist_after: PersistStatsPayload,
    pub store_before: ixtune_service::proto::StoreStatsPayload,
    pub store_after: ixtune_service::proto::StoreStatsPayload,
    /// Warm store bytes once set-up finished filling it (0 without a fill).
    pub fill_store_bytes: usize,
}

fn run(args: &Args) -> Result<String, String> {
    let plan = Plan::new(args.workload, args.seed);
    let tracer = Tracer::new(args.trace);
    let run_dir = RunDir::create(&args.work_dir, args)?;
    let calibration_ms = calibrate();

    // Paper workloads are prepared once, for the references and replay.
    let mut prepared: HashMap<String, Arc<Prepared>> = HashMap::new();
    for w in plan.paper_keys() {
        let p = tracer.span("prepare", NO_SESSION, None, || w.prepare())?;
        prepared.insert(w.key(), Arc::new(p));
    }
    // The replay's mirror of the daemon's warm store. The warm workload's
    // set-up fill is mirrored by computing the pool's references into it.
    let mirror = WarmStore::new(plan.warm_store_bytes as usize);
    let fill_mirror = args.trace && plan.workload == Workload::PaperGreedyWarm;
    let mut refs = references(&plan.pool, &prepared, fill_mirror.then_some(&mirror))?;

    let (daemon, mut served) = set_up(&plan, args, &run_dir.0, &refs)?;
    let addr = daemon.addr.clone();
    let quiet = Tracer::new(false);
    // Prime the prepared cache so no timed session pays `prepare` for a
    // paper workload.
    let primers: Vec<SubmitSpec> = plan
        .paper_keys()
        .into_iter()
        .map(|w| SubmitSpec::new(w, AlgorithmSpec::VanillaGreedy, 1, 1))
        .collect();
    let primed = load::drive(
        &addr,
        &|i| primers[i].clone(),
        Until::Count(primers.len()),
        None,
        &quiet,
    );
    all_ok(&primed, "priming")?;
    served.rtt_us = load::ping_rtt_us(&addr, RTT_PINGS, &tracer)?;

    let client = daemon.client();
    served.persist_before = client.persist_stats()?;
    served.store_before = client.store_stats()?;
    let spec_of = |i| plan.spec(i);
    let pid = daemon.pid();
    let rss_probe = Mutex::new(None);
    let probe =
        || *rss_probe.lock().expect("RSS probe lock poisoned") = Some(daemon::peak_rss_mb(pid));
    let until = Until::Deadline(Duration::from_secs_f64(args.seconds));
    let load = load::drive(
        &addr,
        &spec_of,
        until,
        Some((plan.rss_sessions(), &probe)),
        &tracer,
    );
    served.persist_after = client.persist_stats()?;
    served.store_after = client.store_stats()?;
    served.rss_mb = match rss_probe.into_inner().expect("RSS probe lock poisoned") {
        Some(rss) => rss?,
        None => daemon::peak_rss_mb(pid)?,
    };
    daemon.stop()?;

    // Sessions the pool references do not cover (every synthetic one).
    let missing: Vec<SubmitSpec> = load
        .sessions
        .iter()
        .map(|s| s.spec.clone())
        .filter(|s| !refs.contains_key(&spec_key(s)))
        .collect();
    refs.extend(references(&missing, &prepared, None)?);
    let failures = check(&load, &refs);
    for (i, why) in failures.iter().take(10) {
        eprintln!("loadbench: session {i} failed: {why}");
    }

    let host = host_record(args, &plan, calibration_ms);
    let e2e = end_to_end(&plan, &load, &served);
    print_summary(args, &plan, &load, &e2e, failures.len());
    let mut report = vec![
        ("host".to_string(), host),
        ("end_to_end".to_string(), metrics_json(&e2e)),
        (
            "error_rate".to_string(),
            Value::F64(failures.len() as f64 / load.sessions.len().max(1) as f64),
        ),
        ("sessions".to_string(), session_rows(&load)),
    ];
    let metrics = if args.trace {
        let replay = layers::replay(&load, &prepared, &mirror, &tracer, &run_dir.0)?;
        let bad_replays = replay
            .iter()
            .filter(|r| refs.get(&spec_key(&load.sessions[r.pos].spec)) != Some(&r.identity))
            .count();
        if bad_replays > 0 {
            return Err(format!(
                "{bad_replays} in-process replays differ from their reference"
            ));
        }
        let spans = tracer.take();
        let layer = layers::per_layer(&load, &served, &replay, &spans);
        report.push(("per_layer".into(), metrics_json(&layer.metrics)));
        report.push(("latency_split".into(), layer.split));
        report.push(("spans_by_name".into(), layer.by_name));
        report.push(("working_set".into(), layer.working_set));
        write_file(
            &args.work_dir,
            &format!("{}-seed{}.spans.json", plan.workload.name(), args.seed),
            &trace::to_json(&spans),
        )?;
        println!("{}", layer.summary);
        layer.metrics
    } else {
        e2e
    };
    write_file(
        &args.work_dir,
        &format!(
            "{}-seed{}-trace{}.report.json",
            plan.workload.name(),
            args.seed,
            u8::from(args.trace)
        ),
        &Value::Obj(report),
    )?;
    let out = Value::Obj(vec![
        ("correct".into(), Value::Bool(failures.is_empty())),
        ("attempted".into(), Value::U64(load.sessions.len() as u64)),
        ("failed".into(), Value::U64(failures.len() as u64)),
        ("metrics".into(), metrics_json(&metrics)),
    ]);
    Ok(serde_json::to_string(&out).expect("serializable"))
}

/// A metric as reported: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

fn metrics_json(metrics: &[Metric]) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|&(name, value, unit)| {
                (
                    name.to_string(),
                    Value::Obj(vec![
                        ("value".into(), Value::F64(value)),
                        ("unit".into(), Value::Str(unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

fn write_file(dir: &Path, name: &str, v: &Value) -> Result<(), String> {
    let path = dir.join(name);
    std::fs::write(
        &path,
        serde_json::to_string_pretty(v).expect("serializable"),
    )
    .map_err(|e| format!("write {}: {e}", path.display()))
}

pub fn spec_key(spec: &SubmitSpec) -> String {
    serde_json::to_string(spec).expect("serializable")
}

/// Cold, uninterrupted in-process results for `specs`, from two threads.
/// With `fill`, the sessions also absorb into that warm store.
fn references(
    specs: &[SubmitSpec],
    prepared: &HashMap<String, Arc<Prepared>>,
    fill: Option<&WarmStore>,
) -> Result<HashMap<String, Identity>, String> {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(HashMap::new());
    let quiet = Tracer::new(false);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..plan::CLIENTS)
            .map(|_| {
                scope.spawn(|| -> Result<(), String> {
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(spec) = specs.get(i) else {
                            return Ok(());
                        };
                        let key = spec_key(spec);
                        if out
                            .lock()
                            .expect("reference map lock poisoned")
                            .contains_key(&key)
                        {
                            continue;
                        }
                        let p = match prepared.get(&spec.workload.key()) {
                            Some(p) => Arc::clone(p),
                            None => Arc::new(spec.workload.prepare()?),
                        };
                        let m = Mirror {
                            warm: fill,
                            pause: false,
                            tracer: &quiet,
                            session: NO_SESSION,
                            parent: None,
                            ckpt_path: Path::new(""),
                        };
                        let r = inproc::execute(&p, spec, &m)?.result;
                        let id = Identity::of(&ResultPayload::from_result(&r));
                        out.lock()
                            .expect("reference map lock poisoned")
                            .insert(key, id);
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .try_for_each(|w| w.join().expect("reference thread panicked"))
    })?;
    Ok(out.into_inner().expect("reference map lock poisoned"))
}

/// Start the daemon that serves the timed phase, [`SETUP_REPS`] times:
/// every start but the last is stopped again, and `setup_s` is the
/// median. The warm workload first fills a data dir with one pass over
/// its pool and every start recovers that dir; the others start fresh.
fn set_up(
    plan: &Plan,
    args: &Args,
    run_dir: &Path,
    refs: &HashMap<String, Identity>,
) -> Result<(Daemon, Served), String> {
    let flags = plan.daemon_flags();
    let warm_dir = run_dir.join("data");
    let mut fill_store_bytes = 0;
    if plan.workload == Workload::PaperGreedyWarm {
        let fill = Daemon::start(&args.daemon, &warm_dir, &flags)?;
        let pool = &plan.pool;
        let run = load::drive(
            &fill.addr,
            &|i| pool[i].clone(),
            Until::Count(pool.len()),
            None,
            &Tracer::new(false),
        );
        if let Some((i, why)) = check(&run, refs).first() {
            return Err(format!("warm fill session {i}: {why}"));
        }
        let stats = fill.client().store_stats()?;
        if stats.evictions > 0 {
            return Err(format!(
                "warm fill evicted {} snapshots: raise --warm-store-bytes",
                stats.evictions
            ));
        }
        fill_store_bytes = stats.bytes;
        fill.stop()?;
    }
    let (mut setup_s, mut recovery_ms) = (Vec::new(), Vec::new());
    for rep in 0..SETUP_REPS {
        let dir = if plan.workload == Workload::PaperGreedyWarm {
            warm_dir.clone()
        } else {
            run_dir.join(format!("data-{rep}"))
        };
        let d = Daemon::start(&args.daemon, &dir, &flags)?;
        setup_s.push(d.setup_s);
        recovery_ms.push(d.client().persist_stats()?.recovery_ms);
        if rep + 1 == SETUP_REPS {
            let client = d.client();
            let persist = client.persist_stats()?;
            let store = client.store_stats()?;
            // The warm workload is defined by every lookup hitting: a
            // recovery that lost rows would quietly turn it cold.
            if plan.workload == Workload::PaperGreedyWarm && store.bytes != fill_store_bytes {
                return Err(format!(
                    "recovered warm store holds {} bytes, the fill left {fill_store_bytes}",
                    store.bytes
                ));
            }
            return Ok((
                d,
                Served {
                    setup_s,
                    recovery_ms,
                    rtt_us: 0.0,
                    rss_mb: 0.0,
                    persist_before: persist.clone(),
                    persist_after: persist,
                    store_before: store,
                    store_after: store,
                    fill_store_bytes,
                },
            ));
        }
        d.stop()?;
        if dir != warm_dir {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    unreachable!("SETUP_REPS > 0")
}

fn all_ok(run: &LoadRun, what: &str) -> Result<(), String> {
    match run.sessions.iter().find_map(|s| s.outcome.as_ref().err()) {
        Some(e) => Err(format!("{what}: {e}")),
        None => Ok(()),
    }
}

/// Every session that failed, was refused, or returned something other
/// than its reference: `(list index, why)`.
fn check(load: &LoadRun, refs: &HashMap<String, Identity>) -> Vec<(usize, String)> {
    let mut bad = Vec::new();
    for s in &load.sessions {
        let why = match &s.outcome {
            Err(e) => Some(e.clone()),
            Ok(r) if r.calls_used > s.spec.budget => Some(format!(
                "{} calls exceed budget {}",
                r.calls_used, s.spec.budget
            )),
            Ok(r) if r.layout_len != r.calls_used => Some(format!(
                "layout_len {} != calls_used {}",
                r.layout_len, r.calls_used
            )),
            Ok(r) => match refs.get(&spec_key(&s.spec)) {
                None => Some("no reference".into()),
                Some(want) if *want != Identity::of(r) => Some(format!(
                    "result {:?} != reference {want:?}",
                    Identity::of(r)
                )),
                Some(_) => None,
            },
        };
        if let Some(why) = why {
            bad.push((s.index, why));
        }
    }
    bad
}

/// One row per session: what ran and how long the client waited.
fn session_rows(load: &LoadRun) -> Value {
    Value::Arr(
        load.sessions
            .iter()
            .map(|s| {
                Value::Obj(vec![
                    ("index".into(), Value::U64(s.index as u64)),
                    ("workload".into(), Value::Str(s.spec.workload.key())),
                    (
                        "algorithm".into(),
                        Value::Str(format!("{:?}", s.spec.algorithm)),
                    ),
                    ("k".into(), Value::U64(s.spec.k as u64)),
                    ("budget".into(), Value::U64(s.spec.budget as u64)),
                    ("latency_ms".into(), Value::F64(s.latency_ms)),
                    ("polls".into(), Value::U64(s.polls as u64)),
                    ("ok".into(), Value::Bool(s.outcome.is_ok())),
                ])
            })
            .collect(),
    )
}

fn end_to_end(plan: &Plan, load: &LoadRun, served: &Served) -> Vec<Metric> {
    let latencies: Vec<f64> = load.sessions.iter().map(|s| s.latency_ms).collect();
    let lat = sorted(&latencies);
    let quality: Vec<f64> = load
        .sessions
        .iter()
        .filter(|s| s.index < plan.quality_sessions())
        .filter_map(|s| s.outcome.as_ref().ok().map(|r| r.improvement))
        .collect();
    vec![
        ("session_p50_ms", stats::percentile(&lat, 0.5), "ms"),
        (
            "session_tail_ms",
            tail(&lat, plan.tail_percentile()).1,
            "ms",
        ),
        (
            "sessions_per_s",
            load.sessions.len() as f64 / load.elapsed_s,
            "1/s",
        ),
        (
            "improvement_mean",
            quality.iter().sum::<f64>() / quality.len().max(1) as f64,
            "fraction",
        ),
        ("setup_s", median(&served.setup_s), "s"),
        ("daemon_rss_mb", served.rss_mb, "MiB"),
    ]
}

/// A fixed CPU workload, timed: lets snapshots taken on different hosts
/// be put on one scale. Median of three, milliseconds.
fn calibrate() -> f64 {
    let mut times = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        let mut rng = stats::Rng::new(1);
        let mut acc = 0u64;
        for _ in 0..20_000_000 {
            acc = acc.wrapping_add(rng.next_u64() >> 7);
        }
        std::hint::black_box(acc);
        times.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    median(&times)
}

fn host_record(args: &Args, plan: &Plan, calibration_ms: f64) -> Value {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    Value::Obj(vec![
        ("host_threads".into(), Value::U64(threads as u64)),
        ("calibration_ms".into(), Value::F64(calibration_ms)),
        ("commit".into(), Value::Str(args.commit.clone())),
        ("workload".into(), Value::Str(plan.workload.name().into())),
        ("seed".into(), Value::U64(args.seed)),
        ("seconds".into(), Value::F64(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        ("clients".into(), Value::U64(plan::CLIENTS as u64)),
        ("poll_interval_ms".into(), Value::U64(plan::POLL_MS)),
        (
            "daemon_flags".into(),
            Value::Arr(plan.daemon_flags().into_iter().map(Value::Str).collect()),
        ),
        ("pool_specs".into(), Value::U64(plan.pool.len() as u64)),
    ])
}

fn print_summary(args: &Args, plan: &Plan, load: &LoadRun, e2e: &[Metric], failed: usize) {
    let lat = sorted(
        &load
            .sessions
            .iter()
            .map(|s| s.latency_ms)
            .collect::<Vec<_>>(),
    );
    let (label, value, beyond) = tail(&lat, plan.tail_percentile());
    let n = load.sessions.len();
    println!(
        "loadbench {} seed={} trace={} commit={} host_threads={} poll={}ms clients={} flags=[{}]",
        plan.workload.name(),
        args.seed,
        u8::from(args.trace),
        args.commit,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        plan::POLL_MS,
        plan::CLIENTS,
        plan.daemon_flags().join(" ")
    );
    for (name, v, unit) in e2e {
        println!("  {name:<18} {v:>12.4} {unit}");
    }
    println!(
        "  {:<18} {:>12.4} fraction ({failed} of {n} sessions)",
        "error_rate",
        failed as f64 / n.max(1) as f64
    );
    println!("  tail = {label} ({beyond} of {n} samples beyond it, {value:.3} ms)");
}
