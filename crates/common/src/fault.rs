//! Deterministic, seeded fault-injection plane.
//!
//! A [`FaultPlan`] is compiled once from a spec string (CLI `--fault-spec`
//! or `IXTUNE_FAULT_SPEC`) and threaded through the daemon. Each named
//! *injection site* carries one trigger:
//!
//! * `p<float>`  — fire with probability `p` per call, decided by a pure
//!   hash of `(seed, site, call-index)`; no RNG state, no ordering
//!   dependence between sites;
//! * `every<N>`  — fire on every N-th call at the site (1-based);
//! * `after<K>`  — fire on every call once `K` calls have happened.
//!
//! The whole schedule is reproducible from the single `u64` seed plus the
//! per-site call index, so a failing chaos run is replayed exactly by
//! re-running with the same spec. Sites come in two consumption styles:
//!
//! * [`FaultPlan::fire`] advances a *shared* per-site cursor — right for
//!   sites serialized by a lock or a single consumer (WAL appends, wire
//!   writes, worker claims);
//! * [`FaultPlan::cursor`] hands out a *caller-local* cursor — right for
//!   per-session call streams (the what-if path), where a shared counter
//!   would make injection depend on thread interleaving.
//!
//! The default [`FaultPlan::none`] holds no allocation and every check is
//! a single `Option` branch, so production paths pay nothing.
//!
//! Spec grammar (`;`-separated, whitespace ignored):
//!
//! ```text
//! seed=42;whatif.error=p0.05;persist.fsync=every3;wire.drop=after10
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The closed set of injection-site names. Specs naming anything else are
/// rejected at parse time so typos cannot silently disable a fault.
pub mod site {
    /// Budgeted what-if call fails (cost source error).
    pub const WHATIF_ERROR: &str = "whatif.error";
    /// Budgeted what-if call returns late (latency spike, observation only).
    pub const WHATIF_LATENCY: &str = "whatif.latency";
    /// WAL frame append fails with an IO error.
    pub const PERSIST_APPEND: &str = "persist.append";
    /// fsync of the WAL or snapshot fails.
    pub const PERSIST_FSYNC: &str = "persist.fsync";
    /// Snapshot rename (commit point of compaction) fails.
    pub const PERSIST_RENAME: &str = "persist.rename";
    /// Response frame silently dropped (connection closed, no reply).
    pub const WIRE_DROP: &str = "wire.drop";
    /// Response frame truncated mid-payload.
    pub const WIRE_TRUNCATE: &str = "wire.truncate";
    /// Response frame bytes corrupted before the terminator.
    pub const WIRE_GARBLE: &str = "wire.garble";
    /// Session worker panics mid-run.
    pub const WORKER_PANIC: &str = "worker.panic";

    /// Every site, in canonical (spec-render) order.
    pub const ALL: [&str; 9] = [
        WHATIF_ERROR,
        WHATIF_LATENCY,
        PERSIST_APPEND,
        PERSIST_FSYNC,
        PERSIST_RENAME,
        WIRE_DROP,
        WIRE_TRUNCATE,
        WIRE_GARBLE,
        WORKER_PANIC,
    ];
}

/// When a site fires, in terms of the site-local call index `n` (0-based).
#[derive(Clone, Copy, Debug, PartialEq)]
enum Trigger {
    /// Fire iff `hash(seed, site, n)` lands below `p`.
    Probability(f64),
    /// Fire iff `(n + 1) % k == 0`.
    Every(u64),
    /// Fire iff `n >= k`.
    After(u64),
}

impl Trigger {
    fn parse(s: &str) -> Result<Self, String> {
        if let Some(p) = s.strip_prefix('p') {
            let p: f64 = p
                .parse()
                .map_err(|_| format!("bad probability in trigger `{s}`"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("probability out of [0,1] in trigger `{s}`"));
            }
            return Ok(Trigger::Probability(p));
        }
        if let Some(k) = s.strip_prefix("every") {
            let k: u64 = k.parse().map_err(|_| format!("bad count in `{s}`"))?;
            if k == 0 {
                return Err("`every0` never fires; use a real period".into());
            }
            return Ok(Trigger::Every(k));
        }
        if let Some(k) = s.strip_prefix("after") {
            let k: u64 = k.parse().map_err(|_| format!("bad count in `{s}`"))?;
            return Ok(Trigger::After(k));
        }
        Err(format!(
            "unknown trigger `{s}` (expected p<float>, every<N>, or after<K>)"
        ))
    }

    fn render(&self) -> String {
        match self {
            Trigger::Probability(p) => format!("p{p}"),
            Trigger::Every(k) => format!("every{k}"),
            Trigger::After(k) => format!("after{k}"),
        }
    }
}

struct SiteState {
    name: &'static str,
    trigger: Trigger,
    label_hash: u64,
    /// Shared call cursor for [`FaultPlan::fire`] consumers.
    cursor: AtomicU64,
    /// Total fires across shared and local cursors.
    injected: AtomicU64,
}

struct PlanInner {
    seed: u64,
    /// Configured sites only, in `site::ALL` order.
    sites: Vec<SiteState>,
}

impl PlanInner {
    fn site(&self, name: &str) -> Option<&SiteState> {
        self.sites.iter().find(|s| s.name == name)
    }

    /// The pure per-call decision: no state, no ordering dependence.
    fn decide(&self, st: &SiteState, n: u64) -> bool {
        let fired = match st.trigger {
            Trigger::Probability(p) => unit(mix(self.seed, st.label_hash, n)) < p,
            Trigger::Every(k) => (n + 1).is_multiple_of(k),
            Trigger::After(k) => n >= k,
        };
        if fired {
            st.injected.fetch_add(1, Ordering::Relaxed);
        }
        fired
    }
}

/// FNV-1a over the site label — same constants as `rng::derive`, so fault
/// streams and tuning RNG streams share one derivation idiom.
fn label_hash(label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer over `(seed, site, call-index)`: adjacent call
/// indexes land far apart in seed space.
fn mix(seed: u64, site_hash: u64, n: u64) -> u64 {
    let mut z =
        (seed ^ site_hash).wrapping_add(n.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Map the top 53 bits to a uniform float in `[0, 1)`.
fn unit(z: u64) -> f64 {
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A compiled, shareable fault schedule. Clones share cursors and
/// injected counters.
#[derive(Clone, Default)]
pub struct FaultPlan {
    inner: Option<Arc<PlanInner>>,
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "FaultPlan(none)"),
            Some(_) => write!(f, "FaultPlan({})", self.spec()),
        }
    }
}

impl FaultPlan {
    /// The inert plan: every check is one branch, nothing allocates.
    pub fn none() -> Self {
        Self { inner: None }
    }

    /// Compile a spec string. The empty string (and all-whitespace)
    /// compiles to the inert plan, so `IXTUNE_FAULT_SPEC=""` is a no-op.
    pub fn parse(spec: &str) -> Result<Self, String> {
        if spec.trim().is_empty() {
            return Ok(Self::none());
        }
        let mut seed: u64 = 0;
        let mut triggers: Vec<(&'static str, Trigger)> = Vec::new();
        for part in spec.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("expected `key=value`, got `{part}`"))?;
            let (key, value) = (key.trim(), value.trim());
            if key == "seed" {
                seed = value
                    .parse()
                    .map_err(|_| format!("bad seed `{value}` (expected u64)"))?;
                continue;
            }
            let name = site::ALL
                .iter()
                .find(|s| **s == key)
                .copied()
                .ok_or_else(|| {
                    format!(
                        "unknown fault site `{key}` (known: {})",
                        site::ALL.join(", ")
                    )
                })?;
            if triggers.iter().any(|(n, _)| *n == name) {
                return Err(format!("fault site `{name}` given twice"));
            }
            triggers.push((name, Trigger::parse(value)?));
        }
        if triggers.is_empty() {
            return Ok(Self::none());
        }
        // Canonical order so spec() renders identically however written.
        triggers.sort_by_key(|(name, _)| site::ALL.iter().position(|s| s == name));
        let sites = triggers
            .into_iter()
            .map(|(name, trigger)| SiteState {
                name,
                trigger,
                label_hash: label_hash(name),
                cursor: AtomicU64::new(0),
                injected: AtomicU64::new(0),
            })
            .collect();
        Ok(Self {
            inner: Some(Arc::new(PlanInner { seed, sites })),
        })
    }

    /// Whether any site is configured at all.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The plan's seed (0 for the inert plan).
    pub fn seed(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.seed)
    }

    /// Canonical re-render of the spec — written to artifacts so a failing
    /// chaos run can be replayed byte-for-byte.
    pub fn spec(&self) -> String {
        let Some(inner) = &self.inner else {
            return String::new();
        };
        let mut out = format!("seed={}", inner.seed);
        for s in &inner.sites {
            out.push(';');
            out.push_str(s.name);
            out.push('=');
            out.push_str(&s.trigger.render());
        }
        out
    }

    /// Advance the *shared* cursor for `site` and report whether this call
    /// is faulted. Use only at sites whose calls are serialized (a lock, a
    /// single consumer); concurrent callers would race for indices.
    pub fn fire(&self, site: &str) -> bool {
        let Some(inner) = &self.inner else {
            return false;
        };
        let Some(st) = inner.site(site) else {
            return false;
        };
        let n = st.cursor.fetch_add(1, Ordering::Relaxed);
        inner.decide(st, n)
    }

    /// A caller-local cursor over `site`: each holder sees call indices
    /// 0, 1, 2, … of its own stream, independent of other threads. The
    /// injected-total counter is still shared with the plan.
    pub fn cursor(&self, site: &str) -> FaultCursor {
        let present = self.inner.as_ref().is_some_and(|i| i.site(site).is_some());
        FaultCursor {
            inner: if present { self.inner.clone() } else { None },
            site: site.to_string(),
            n: 0,
        }
    }

    /// Total fires recorded at `site` (0 if unconfigured).
    pub fn injected(&self, site: &str) -> u64 {
        self.inner
            .as_ref()
            .and_then(|i| i.site(site))
            .map_or(0, |s| s.injected.load(Ordering::Relaxed))
    }

    /// Every configured site with its injected-total, in canonical order.
    pub fn sites(&self) -> Vec<(&'static str, u64)> {
        self.inner.as_ref().map_or_else(Vec::new, |i| {
            i.sites
                .iter()
                .map(|s| (s.name, s.injected.load(Ordering::Relaxed)))
                .collect()
        })
    }
}

/// Caller-local fault cursor; see [`FaultPlan::cursor`].
#[derive(Clone)]
pub struct FaultCursor {
    inner: Option<Arc<PlanInner>>,
    site: String,
    n: u64,
}

impl FaultCursor {
    /// Advance this cursor's private call index and report the decision.
    pub fn fire(&mut self) -> bool {
        let Some(inner) = &self.inner else {
            return false;
        };
        let n = self.n;
        self.n += 1;
        let Some(st) = inner.site(&self.site) else {
            return false;
        };
        inner.decide(st, n)
    }

    /// An inert cursor that never fires.
    pub fn none() -> Self {
        Self {
            inner: None,
            site: String::new(),
            n: 0,
        }
    }
}

impl Default for FaultCursor {
    fn default() -> Self {
        Self::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_missing_specs_are_inert() {
        assert!(!FaultPlan::none().enabled());
        assert!(!FaultPlan::parse("").unwrap().enabled());
        assert!(!FaultPlan::parse("  ; ; ").unwrap().enabled());
        assert!(!FaultPlan::parse("seed=7").unwrap().enabled());
        assert!(!FaultPlan::none().fire(site::WHATIF_ERROR));
        assert!(!FaultPlan::none().cursor(site::WHATIF_ERROR).fire());
    }

    #[test]
    fn unknown_sites_and_bad_triggers_are_rejected() {
        assert!(FaultPlan::parse("whatif.eror=p0.5").is_err());
        assert!(FaultPlan::parse("whatif.error=q0.5").is_err());
        assert!(FaultPlan::parse("whatif.error=p1.5").is_err());
        assert!(FaultPlan::parse("whatif.error=every0").is_err());
        assert!(FaultPlan::parse("seed=abc;whatif.error=p0.5").is_err());
        assert!(FaultPlan::parse("whatif.error=p0.5;whatif.error=p0.1").is_err());
        assert!(FaultPlan::parse("whatif.error").is_err());
    }

    #[test]
    fn spec_rerenders_canonically() {
        let plan = FaultPlan::parse("wire.drop=every4; seed=9 ; whatif.error=p0.25").unwrap();
        assert_eq!(plan.spec(), "seed=9;whatif.error=p0.25;wire.drop=every4");
        let replay = FaultPlan::parse(&plan.spec()).unwrap();
        assert_eq!(replay.spec(), plan.spec());
    }

    #[test]
    fn every_and_after_semantics() {
        let plan = FaultPlan::parse("persist.append=every3").unwrap();
        let fired: Vec<bool> = (0..7).map(|_| plan.fire(site::PERSIST_APPEND)).collect();
        assert_eq!(fired, [false, false, true, false, false, true, false]);

        let plan = FaultPlan::parse("persist.fsync=after2").unwrap();
        let fired: Vec<bool> = (0..5).map(|_| plan.fire(site::PERSIST_FSYNC)).collect();
        assert_eq!(fired, [false, false, true, true, true]);
        assert_eq!(plan.injected(site::PERSIST_FSYNC), 3);
    }

    #[test]
    fn probability_stream_is_a_pure_function_of_seed_and_index() {
        let a = FaultPlan::parse("seed=1234;whatif.error=p0.3").unwrap();
        let b = FaultPlan::parse("seed=1234;whatif.error=p0.3").unwrap();
        let run = |p: &FaultPlan| -> Vec<bool> {
            let mut c = p.cursor(site::WHATIF_ERROR);
            (0..256).map(|_| c.fire()).collect()
        };
        assert_eq!(run(&a), run(&b), "same seed, same schedule");
        let fires = run(&a).iter().filter(|f| **f).count();
        assert!(
            (32..160).contains(&fires),
            "p=0.3 over 256 calls fired {fires} times"
        );
        let c = FaultPlan::parse("seed=1235;whatif.error=p0.3").unwrap();
        assert_ne!(run(&a), run(&c), "different seed, different schedule");
    }

    #[test]
    fn local_cursors_are_independent_but_share_the_injected_total() {
        let plan = FaultPlan::parse("whatif.error=every2").unwrap();
        let mut x = plan.cursor(site::WHATIF_ERROR);
        let mut y = plan.cursor(site::WHATIF_ERROR);
        let xs: Vec<bool> = (0..4).map(|_| x.fire()).collect();
        let ys: Vec<bool> = (0..4).map(|_| y.fire()).collect();
        assert_eq!(xs, ys, "each cursor sees its own index stream");
        assert_eq!(plan.injected(site::WHATIF_ERROR), 4);
        assert_eq!(
            plan.sites(),
            vec![(site::WHATIF_ERROR, 4)],
            "sites() reports canonical order and totals"
        );
    }

    #[test]
    fn shared_and_local_cursors_do_not_perturb_each_other() {
        let plan = FaultPlan::parse("whatif.error=every2").unwrap();
        let mut local = plan.cursor(site::WHATIF_ERROR);
        assert!(!local.fire());
        assert!(!plan.fire(site::WHATIF_ERROR), "shared index 0");
        assert!(local.fire(), "local index 1 unaffected by shared calls");
    }
}
