//! The three workloads: seeded session lists and the daemon flags each one
//! runs under. The daemon only ever sees the generated `SubmitSpec`s.

use crate::stats::Rng;
use ixtune_service::{AlgorithmSpec, SubmitSpec, WorkloadSpec};

/// Poll interval of the closed-loop clients' `status` loop.
pub const POLL_MS: u64 = 1;
/// Closed-loop client threads.
pub const CLIENTS: usize = 2;
/// Daemon workers and the per-session thread cap.
pub const MAX_CONCURRENT: usize = 2;
pub const MAX_SESSION_THREADS: usize = 1;
pub const QUEUE_CAPACITY: usize = 16;
pub const PREPARED_CAPACITY: usize = 8;
/// Compaction threshold far above what one run appends, so no run
/// compacts and the per-session WAL counts are exact deltas.
pub const WAL_COMPACT_BYTES: u64 = 1 << 30;
/// Synthetic sessions whose mean improvement is reported (the list is
/// unbounded, so the quality metric covers a fixed prefix of it).
const SYNTH_QUALITY_SESSIONS: usize = 1_024;
const SYNTH_RSS_SESSIONS: usize = 1_000;
/// Every synthetic session's K, B and pause point: the documented example
/// submission's.
const SYNTH_K: usize = 3;
const SYNTH_BUDGET: usize = 300;
const SYNTH_PAUSE_AFTER: usize = 50;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PaperGreedyWarm,
    PaperMcts,
    SynthColdDurable,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "paper-greedy-warm" => Some(Self::PaperGreedyWarm),
            "paper-mcts" => Some(Self::PaperMcts),
            "synth-cold-durable" => Some(Self::SynthColdDurable),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::PaperGreedyWarm => "paper-greedy-warm",
            Self::PaperMcts => "paper-mcts",
            Self::SynthColdDurable => "synth-cold-durable",
        }
    }
}

pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub durability: &'static str,
    pub warm_store_bytes: u64,
    /// Distinct specs the list cycles through (empty for the synthetic
    /// workload, whose every session is distinct).
    pub pool: Vec<SubmitSpec>,
    /// Pool indices by stratum (algorithm × budget band).
    strata: Vec<Vec<usize>>,
}

const PAPER: [&str; 3] = ["tpch", "tpcds", "job"];

impl Plan {
    pub fn new(workload: Workload, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let greedy = [
            AlgorithmSpec::VanillaGreedy,
            AlgorithmSpec::TwoPhase,
            AlgorithmSpec::AutoAdmin,
        ];
        let (durability, warm_store_bytes, (pool, strata)) = match workload {
            Workload::PaperGreedyWarm => (
                "batch",
                64 << 20,
                stratified(&mut rng, &greedy, (1_000, 20_000), 6, 1),
            ),
            Workload::PaperMcts => (
                "batch",
                64 << 20,
                stratified(&mut rng, &[AlgorithmSpec::Mcts], (500, 3_000), 8, 2),
            ),
            Workload::SynthColdDurable => ("always", 256 << 10, (Vec::new(), Vec::new())),
        };
        Self {
            workload,
            seed,
            durability,
            warm_store_bytes,
            pool,
            strata,
        }
    }

    /// The `i`-th session of the list.
    pub fn spec(&self, i: usize) -> SubmitSpec {
        if self.pool.is_empty() {
            return self.synth_spec(i);
        }
        let n = self.pool.len();
        self.pool[self.pass_order(i / n)[i % n]].clone()
    }

    /// The pool order of pass `pass`: each stratum shuffled, then dealt
    /// round-robin (strata in a shuffled order per round), so every
    /// window of one-session-per-stratum holds each stratum once and a
    /// time-bounded run completes the same mix whatever its length.
    fn pass_order(&self, pass: usize) -> Vec<usize> {
        let mut rng = Rng::new(self.seed ^ (pass as u64).wrapping_mul(0x5bd1_e995));
        let mut strata = self.strata.clone();
        for s in &mut strata {
            rng.shuffle(s);
        }
        let rounds = strata.iter().map(Vec::len).max().unwrap_or(0);
        let mut order = Vec::with_capacity(self.pool.len());
        for round in 0..rounds {
            let mut deal: Vec<usize> = (0..strata.len()).collect();
            rng.shuffle(&mut deal);
            order.extend(deal.into_iter().filter_map(|s| strata[s].get(round)));
        }
        order
    }

    /// A fresh synthetic instance per session: `seed·10⁶ + i` never
    /// repeats inside a run, so every session misses the prepared cache.
    /// No recorded traffic exists to draw the mix from, so each session is
    /// the repository's documented example submission (`synth:7`, mcts,
    /// K 3, B 300, pause after 50 calls) with the algorithm drawn uniformly
    /// from the four the daemon serves and half of the MCTS sessions
    /// pausing as the example does.
    fn synth_spec(&self, i: usize) -> SubmitSpec {
        let mut rng = Rng::new(self.seed.wrapping_mul(0x9e37_79b9) ^ i as u64);
        let workload = WorkloadSpec::Synth(self.seed.wrapping_mul(1_000_000) + i as u64);
        let algo = match rng.range(0, 3) {
            0 => AlgorithmSpec::VanillaGreedy,
            1 => AlgorithmSpec::TwoPhase,
            2 => AlgorithmSpec::AutoAdmin,
            _ => AlgorithmSpec::Mcts,
        };
        let mut s = spec(
            workload,
            algo,
            SYNTH_K,
            SYNTH_BUDGET,
            rng.next_u64() % 1_000,
        );
        if algo == AlgorithmSpec::Mcts && rng.chance(0.5) {
            s.pause_after_calls = Some(SYNTH_PAUSE_AFTER);
        }
        s
    }

    /// Sessions (a prefix of the list) whose mean improvement is the
    /// quality metric: one pass over the pool, or a fixed synthetic prefix.
    pub fn quality_sessions(&self) -> usize {
        if self.pool.is_empty() {
            SYNTH_QUALITY_SESSIONS
        } else {
            self.pool.len()
        }
    }

    /// The tail percentile: the highest of p99/p90 that keeps at least
    /// ten samples beyond it in a run of this workload. Fixed per workload,
    /// so a run that completes a few more or fewer sessions never reports
    /// a different percentile.
    pub fn tail_percentile(&self) -> f64 {
        if self.pool.is_empty() {
            0.99
        } else {
            0.90
        }
    }

    /// Completed sessions after which the daemon's peak RSS is read: a
    /// fixed amount of work, so the reading does not grow with throughput
    /// (the end of the run when fewer complete).
    pub fn rss_sessions(&self) -> usize {
        if self.pool.is_empty() {
            SYNTH_RSS_SESSIONS
        } else {
            self.pool.len()
        }
    }

    /// `ixtuned` flags (without `--bind`/`--data-dir`).
    pub fn daemon_flags(&self) -> Vec<String> {
        [
            ("--max-concurrent", MAX_CONCURRENT.to_string()),
            ("--max-session-threads", MAX_SESSION_THREADS.to_string()),
            ("--queue-capacity", QUEUE_CAPACITY.to_string()),
            ("--prepared-capacity", PREPARED_CAPACITY.to_string()),
            ("--durability", self.durability.to_string()),
            ("--warm-store-bytes", self.warm_store_bytes.to_string()),
            ("--wal-compact-bytes", WAL_COMPACT_BYTES.to_string()),
        ]
        .into_iter()
        .flat_map(|(flag, value)| [flag.to_string(), value])
        .collect()
    }

    /// Workload keys the paper workloads touch, primed into the daemon's
    /// prepared cache before the timed phase.
    pub fn paper_keys(&self) -> Vec<WorkloadSpec> {
        if self.pool.is_empty() {
            Vec::new()
        } else {
            PAPER
                .iter()
                .map(|w| WorkloadSpec::Bench(w.to_string()))
                .collect()
        }
    }
}

/// Cardinality levels of the paper workloads' grids: the paper's.
const KS: [usize; 3] = [5, 10, 20];

/// A stratified grid: one stratum per (algorithm, budget level), with
/// `levels` budget levels log-spaced over the B range. Each stratum holds
/// every (paper workload, K level) cell `replicas` times. The seed draws
/// each member's B within ±3% of its level and its tuner seed, so the mix
/// — and the shape of the latency distribution — stays put across seeds.
fn stratified(
    rng: &mut Rng,
    algos: &[AlgorithmSpec],
    (b_lo, b_hi): (usize, usize),
    levels: usize,
    replicas: usize,
) -> (Vec<SubmitSpec>, Vec<Vec<usize>>) {
    let (mut pool, mut strata) = (Vec::new(), Vec::new());
    let ratio = b_hi as f64 / b_lo as f64;
    for &algo in algos {
        for level in 0..levels {
            let budget = b_lo as f64 * ratio.powf(level as f64 / (levels - 1) as f64);
            let mut stratum = Vec::new();
            for _ in 0..replicas {
                for w in PAPER {
                    for k in KS {
                        let b = (budget * (0.97 + 0.06 * rng.unit())).round() as usize;
                        let b = b.clamp(b_lo, b_hi);
                        let seed = rng.next_u64() % 1_000;
                        stratum.push(pool.len());
                        pool.push(spec(WorkloadSpec::Bench(w.into()), algo, k, b, seed));
                    }
                }
            }
            strata.push(stratum);
        }
    }
    (pool, strata)
}

fn spec(
    workload: WorkloadSpec,
    algo: AlgorithmSpec,
    k: usize,
    budget: usize,
    seed: u64,
) -> SubmitSpec {
    let mut s = SubmitSpec::new(workload, algo, k, budget);
    s.seed = seed;
    s.session_threads = MAX_SESSION_THREADS;
    s
}
