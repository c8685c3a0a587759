//! Multi-tenant fairness-aware admission: the entry point
//! [`ServeSession`](crate::ServeSession) runs its admit phase through.
//!
//! ## Model
//!
//! Every request carries a [`TenantId`]; untagged submissions belong to
//! the **default tenant** and reproduce the pre-tenant admission
//! behavior bit for bit. Per batch (one **tick** of the fake clock —
//! never wall time) the [`Admitter`] decides each request's fate in
//! arrival order:
//!
//! 1. **Quota** — each tenant owns a deterministic token bucket
//!    refilled by [`TenantPolicy::quota_per_tick`] tokens per tick up
//!    to [`TenantPolicy::burst`]; an empty bucket sheds with
//!    [`ServeError::QuotaExceeded`]. `u64::MAX` means unlimited (the
//!    default-tenant policy), with pure saturating arithmetic — no
//!    special cases, no entropy.
//! 2. **Queue share** — the batch's `queue_capacity` slots are split
//!    among the tenants with demand this tick, proportional to
//!    `weight × (1 + aging)` (floored, minimum 1). Reserved slots are
//!    allocated in priority order (aging desc, weight desc, name asc);
//!    unreserved slots are granted first-come-first-served. A tenant
//!    denied its *base* (aging-free) share by queue contention ages by
//!    one per window, up to [`AdmitConfig::aging_cap`], so a backlogged
//!    tenant's priority grows until it is served — it cannot starve.
//!    Aging persists across idle windows and resets only once the
//!    tenant receives its share again. No slot sheds with
//!    [`ServeError::QueueFull`].
//! 3. **Breaker** — each tenant owns its own half-open
//!    [`RecoveringBreaker`] (same threshold/cooldown for all tenants,
//!    cooldown measured in batch ticks), so one tenant's poison
//!    requests never shed another tenant's traffic. An open breaker
//!    sheds with [`ServeError::CircuitOpen`] without consuming the
//!    tenant's token or queue slot.
//!
//! Shed precedence is therefore **quota > queue > breaker**, and shed
//! requests never feed any breaker.
//!
//! ## Tenant isolation
//!
//! Each admitted request executes on its own RNG stream derived from
//! the **tenant's** seed lane and the **tenant-local** arrival index:
//! `stream_seed(tenant lane, tenant arrival)`. The default tenant's
//! lane is the session seed itself (so single-tenant streams replay
//! bitwise against pre-tenant sessions); tenant `t`'s lane is
//! `stream_seed(session seed, fnv1a(t))`. Because neither the lane nor
//! the tenant-local arrival index depends on *other* tenants' traffic,
//! a victim tenant's admitted responses are bitwise identical with and
//! without an adversary interleaved into the same session — the
//! bounded-blast-radius invariant E22 replays.
//!
//! Everything reports through `rdi-obs`: the global `serve.*` batch
//! counters plus per-tenant `serve.tenant.{t}.*` families (requests,
//! admitted, typed sheds, failures) that let harnesses prove fairness
//! by exact counter arithmetic.

use std::collections::BTreeMap;

use rdi_fault::{Admission, RecoveringBreaker, RecoveryState};
use rdi_obs::ProvenanceEvent;
use rdi_par::stream_seed;
use rdi_policy::{Candidate, PolicyId, PolicyParams, RankByScore, Score, SelectionPolicy};

use crate::error::ServeError;
use crate::request::{ServeRequest, ServeResponse};
use crate::session::SessionConfig;

/// Histogram bounds for batch size and admitted queue depth.
pub(crate) const SIZE_BOUNDS: [f64; 8] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];

/// Name of the tenant untagged requests belong to.
const DEFAULT_TENANT: &str = "default";

/// An opaque tenant name. Ordering is lexicographic on the name — the
/// deterministic tie-break everywhere the admitter iterates tenants.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(String);

impl TenantId {
    /// Tag for the named tenant.
    pub fn new(name: impl Into<String>) -> Self {
        TenantId(name.into())
    }

    /// The tenant name.
    pub fn name(&self) -> &str {
        &self.0
    }

    /// True for the default tenant untagged requests belong to.
    pub fn is_default(&self) -> bool {
        self.0 == DEFAULT_TENANT
    }
}

impl Default for TenantId {
    /// The tenant untagged requests belong to (`"default"`).
    fn default() -> Self {
        TenantId(DEFAULT_TENANT.to_string())
    }
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// A [`ServeRequest`] tagged with the submitting tenant.
#[derive(Debug, Clone)]
pub struct TaggedRequest {
    /// Who submitted the request.
    pub tenant: TenantId,
    /// The request itself.
    pub request: ServeRequest,
}

impl From<ServeRequest> for TaggedRequest {
    /// Tag a bare request with the default tenant.
    fn from(request: ServeRequest) -> Self {
        TaggedRequest {
            tenant: TenantId::default(),
            request,
        }
    }
}

impl ServeRequest {
    /// Tag this request with a tenant.
    pub fn tagged(self, tenant: TenantId) -> TaggedRequest {
        TaggedRequest {
            tenant,
            request: self,
        }
    }
}

/// Per-tenant admission contract: queue weight and token-bucket quota.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantPolicy {
    /// Relative queue-share weight (clamped to ≥ 1 when applied).
    pub weight: u64,
    /// Tokens added to the bucket per tick; `u64::MAX` is unlimited.
    pub quota_per_tick: u64,
    /// Bucket capacity (refills saturate here); `u64::MAX` is
    /// unlimited. `0` admits nothing, ever.
    pub burst: u64,
}

impl Default for TenantPolicy {
    /// Weight 1, unlimited quota — the default tenant's contract,
    /// which reproduces pre-tenant admission exactly.
    fn default() -> Self {
        TenantPolicy {
            weight: 1,
            quota_per_tick: u64::MAX,
            burst: u64::MAX,
        }
    }
}

impl TenantPolicy {
    /// A rate-limited contract: `quota_per_tick` tokens per tick,
    /// bucket capped at `burst`, queue weight `weight`.
    pub fn limited(weight: u64, quota_per_tick: u64, burst: u64) -> Self {
        TenantPolicy {
            weight,
            quota_per_tick,
            burst,
        }
    }

    fn clamped_weight(&self) -> u64 {
        self.weight.max(1)
    }
}

/// Admission knobs shared by both serving paths. Queue capacity and
/// breaker parameters mirror [`SessionConfig`]; tenant policies and the
/// aging cap are admission-only.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmitConfig {
    /// Maximum requests admitted per batch, shared by all tenants.
    pub queue_capacity: usize,
    /// Consecutive failures after which a tenant's breaker opens
    /// (clamped to ≥ 1).
    pub breaker_threshold: u32,
    /// Ticks an open tenant breaker cools down before a single
    /// half-open probe (clamped to ≥ 1).
    pub breaker_cooldown_ticks: u64,
    /// Upper bound on a tenant's aging credit (windows of denied base
    /// share it can bank).
    pub aging_cap: u64,
    /// Contract for tenants without an explicit policy (including the
    /// default tenant).
    pub default_policy: TenantPolicy,
    /// Explicit per-tenant contracts.
    pub tenants: Vec<(TenantId, TenantPolicy)>,
}

impl AdmitConfig {
    /// Derive admission knobs from a session configuration: same
    /// capacity and breaker parameters, unlimited default policy, no
    /// explicit tenants — the exact pre-tenant behavior.
    pub fn from_session(config: &SessionConfig) -> Self {
        AdmitConfig {
            queue_capacity: config.queue_capacity,
            breaker_threshold: config.breaker_threshold,
            breaker_cooldown_ticks: config.breaker_cooldown_ticks,
            aging_cap: 8,
            default_policy: TenantPolicy::default(),
            tenants: Vec::new(),
        }
    }

    /// Replace the explicit tenant contracts.
    pub fn with_tenants(mut self, tenants: Vec<(TenantId, TenantPolicy)>) -> Self {
        self.tenants = tenants;
        self
    }

    /// The contract governing `tenant`.
    pub fn policy(&self, tenant: &TenantId) -> TenantPolicy {
        self.tenants
            .iter()
            .find(|(t, _)| t == tenant)
            .map(|(_, p)| *p)
            .unwrap_or(self.default_policy)
    }
}

/// One request's admission outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmitVerdict {
    /// Admitted; execute on this RNG stream seed. `probe` marks the
    /// single half-open probe of a recovering tenant breaker.
    Admitted {
        /// `stream_seed(tenant lane, tenant arrival)` for the execute
        /// phase.
        seed: u64,
        /// True when this admission is a breaker probe.
        probe: bool,
    },
    /// Shed with this typed error (quota, queue, or breaker).
    Shed(ServeError),
}

/// Per-tenant admission state.
#[derive(Debug)]
struct TenantState {
    policy: TenantPolicy,
    /// Token bucket level (saturating; `u64::MAX` lane for unlimited).
    tokens: u64,
    /// Priority-aging credit: windows of denied base share.
    aging: u64,
    /// Tenant-local arrival counter (admitted or shed).
    arrivals: u64,
    /// This tenant's seed lane (see module docs).
    lane: u64,
    breaker: RecoveringBreaker,
}

/// FNV-1a over the tenant name: the deterministic, dependency-free map
/// from tenant names to seed lanes.
fn fnv1a(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The fairness-aware admission state machine shared by both serving
/// paths. Owns every tenant's token bucket, aging credit, arrival
/// counter, and circuit breaker; one tick per submitted batch.
#[derive(Debug)]
pub struct Admitter {
    config: AdmitConfig,
    seed: u64,
    states: BTreeMap<TenantId, TenantState>,
    ticks: u64,
    arrivals: u64,
    reserve_params: PolicyParams,
    decisions: Vec<ProvenanceEvent>,
}

impl Admitter {
    /// A fresh admitter over `config`, deriving per-request RNG streams
    /// from the session `seed`.
    pub fn new(config: AdmitConfig, seed: u64) -> Self {
        Admitter {
            config,
            seed,
            states: BTreeMap::new(),
            ticks: 0,
            arrivals: 0,
            reserve_params: PolicyParams::new(),
            decisions: Vec::new(),
        }
    }

    /// Override the `serve.admit_reserve` selection params (the default
    /// ranks aging desc, weight desc, tenant name asc).
    pub fn set_reserve_params(&mut self, params: PolicyParams) {
        self.reserve_params = params;
    }

    /// Take the [`ProvenanceEvent::PolicyDecision`] audit records
    /// accumulated since the last drain (one per batch with demand).
    pub fn drain_decisions(&mut self) -> Vec<ProvenanceEvent> {
        std::mem::take(&mut self.decisions)
    }

    /// The admission configuration.
    pub fn config(&self) -> &AdmitConfig {
        &self.config
    }

    /// Batches admitted so far (the fake clock breaker cooldowns and
    /// bucket refills run on).
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Requests seen so far across all tenants (admitted or shed).
    pub fn arrivals(&self) -> u64 {
        self.arrivals
    }

    /// Requests seen so far from `tenant`.
    pub fn tenant_arrivals(&self, tenant: &TenantId) -> u64 {
        self.states.get(tenant).map_or(0, |s| s.arrivals)
    }

    /// Current bucket level for `tenant` (`None` before first contact).
    pub fn tokens(&self, tenant: &TenantId) -> Option<u64> {
        self.states.get(tenant).map(|s| s.tokens)
    }

    /// Current aging credit for `tenant` (0 before first contact).
    pub fn aging(&self, tenant: &TenantId) -> u64 {
        self.states.get(tenant).map_or(0, |s| s.aging)
    }

    /// `tenant`'s breaker state (closed before first contact).
    pub fn breaker_state(&self, tenant: &TenantId) -> RecoveryState {
        self.states
            .get(tenant)
            .map_or(RecoveryState::Closed, |s| s.breaker.state())
    }

    /// True while `tenant`'s breaker sheds its ordinary traffic.
    pub fn breaker_is_open(&self, tenant: &TenantId) -> bool {
        self.states.get(tenant).is_some_and(|s| s.breaker.is_open())
    }

    /// Consecutive failures currently recorded against `tenant`.
    pub fn breaker_failures(&self, tenant: &TenantId) -> u32 {
        self.states
            .get(tenant)
            .map_or(0, |s| s.breaker.consecutive_failures())
    }

    /// Decide one batch, serially in arrival order (see module docs for
    /// the quota > queue > breaker precedence). Emits the global
    /// `serve.*` batch counters and per-tenant `serve.tenant.{t}.*`
    /// families. One call advances the fake clock by one tick.
    pub fn admit_batch(&mut self, tenants: &[TenantId]) -> Vec<AdmitVerdict> {
        self.ticks += 1;
        rdi_obs::counter("serve.batches").inc();
        rdi_obs::counter("serve.requests").add(tenants.len() as u64);
        rdi_obs::histogram("serve.batch_size", &SIZE_BOUNDS).record(tenants.len() as f64);

        // Refill known buckets (one tick), then open accounts for
        // first-seen tenants with one tick's worth of tokens.
        for st in self.states.values_mut() {
            st.tokens = st
                .tokens
                .saturating_add(st.policy.quota_per_tick)
                .min(st.policy.burst);
        }
        for t in tenants {
            if !self.states.contains_key(t) {
                let policy = self.config.policy(t);
                let lane = if t.is_default() {
                    self.seed
                } else {
                    stream_seed(self.seed, fnv1a(t.name()))
                };
                self.states.insert(
                    t.clone(),
                    TenantState {
                        policy,
                        tokens: policy.quota_per_tick.min(policy.burst),
                        aging: 0,
                        arrivals: 0,
                        lane,
                        breaker: RecoveringBreaker::new(
                            self.config.breaker_threshold,
                            self.config.breaker_cooldown_ticks,
                        ),
                    },
                );
            }
        }
        rdi_obs::gauge("serve.tenants").set(self.states.len() as f64);

        // Pass 1: per-tenant demand, then the queue-share plan. Slots
        // reserve in priority order (aging desc, weight desc, name
        // asc); what remains is first-come-first-served leftover.
        let mut demand: BTreeMap<&TenantId, u64> = BTreeMap::new();
        for t in tenants {
            *demand.entry(t).or_default() += 1;
        }
        let cap = self.config.queue_capacity as u64;
        let base_weight: u128 = demand
            .keys()
            .map(|t| u128::from(self.states[*t].policy.clamped_weight()))
            .sum();
        let aged_weight: u128 = demand
            .keys()
            .map(|t| {
                let st = &self.states[*t];
                u128::from(st.policy.clamped_weight()) * u128::from(1 + st.aging)
            })
            .sum();
        let share = |w: u128, total: u128| -> u64 {
            if total == 0 {
                return 0;
            }
            u64::try_from((u128::from(cap) * w / total).max(1)).unwrap_or(u64::MAX)
        };
        let keys: Vec<&TenantId> = demand.keys().copied().collect();
        let candidates: Vec<Candidate> = keys
            .iter()
            .map(|t| {
                let st = &self.states[*t];
                Candidate::new(
                    t.name(),
                    Score::Tuple(vec![
                        Score::U64(st.aging),
                        Score::U64(st.policy.clamped_weight()),
                    ]),
                )
            })
            .collect();
        let order: Vec<&TenantId> = if candidates.is_empty() {
            Vec::new()
        } else {
            let reserve = RankByScore::new(PolicyId::ADMIT_RESERVE);
            let decision = reserve.choose(&candidates, &self.reserve_params);
            self.decisions.push(rdi_obs::policy_decision_event(
                &decision.rationale(&candidates, &self.reserve_params),
            ));
            decision.ranking.iter().map(|&i| keys[i]).collect()
        };
        let mut remaining = cap;
        let mut reserved: BTreeMap<&TenantId, u64> = BTreeMap::new();
        let mut base_share: BTreeMap<&TenantId, u64> = BTreeMap::new();
        for t in order {
            let st = &self.states[t];
            let w = u128::from(st.policy.clamped_weight());
            let aged = share(w * u128::from(1 + st.aging), aged_weight);
            base_share.insert(t, share(w, base_weight));
            let r = aged.min(demand[t]).min(st.tokens).min(remaining);
            remaining -= r;
            reserved.insert(t, r);
        }
        let mut leftover = remaining;

        // Pass 2: serial in arrival order — quota, then slot, then the
        // tenant's breaker. Tokens and slots are consumed only on
        // admission, so a breaker shed never burns either.
        let mut verdicts = Vec::with_capacity(tenants.len());
        let mut admitted_by: BTreeMap<&TenantId, u64> = BTreeMap::new();
        let mut quota_shed: BTreeMap<&TenantId, u64> = BTreeMap::new();
        let mut queue_shed: BTreeMap<&TenantId, u64> = BTreeMap::new();
        let mut breaker_shed: BTreeMap<&TenantId, u64> = BTreeMap::new();
        let mut admitted_total = 0u64;
        let mut shed_total = 0u64;
        for t in tenants {
            let st = self
                .states
                .get_mut(t)
                // rdi-lint: allow(R5): every batch tenant's state was inserted above
                .expect("state opened above");
            let arrival = st.arrivals;
            st.arrivals += 1;
            self.arrivals += 1;
            if st.tokens == 0 {
                verdicts.push(AdmitVerdict::Shed(ServeError::QuotaExceeded {
                    tenant: t.name().to_string(),
                }));
                *quota_shed.entry(t).or_default() += 1;
                shed_total += 1;
                continue;
            }
            let granted = admitted_by.get(t).copied().unwrap_or(0);
            let has_reserved = granted < reserved[t];
            if !has_reserved && leftover == 0 {
                verdicts.push(AdmitVerdict::Shed(ServeError::QueueFull {
                    capacity: self.config.queue_capacity,
                }));
                *queue_shed.entry(t).or_default() += 1;
                shed_total += 1;
                continue;
            }
            let probe = match st.breaker.admit(self.ticks) {
                Admission::Admit => false,
                Admission::Probe => {
                    rdi_obs::counter("serve.breaker_probes").inc();
                    true
                }
                Admission::Shed => {
                    verdicts.push(AdmitVerdict::Shed(ServeError::CircuitOpen {
                        consecutive_failures: st.breaker.consecutive_failures(),
                    }));
                    *breaker_shed.entry(t).or_default() += 1;
                    shed_total += 1;
                    continue;
                }
            };
            if !has_reserved {
                leftover -= 1;
            }
            st.tokens -= 1;
            *admitted_by.entry(t).or_default() += 1;
            admitted_total += 1;
            verdicts.push(AdmitVerdict::Admitted {
                seed: stream_seed(st.lane, arrival),
                probe,
            });
        }
        rdi_obs::counter("serve.shed").add(shed_total);
        rdi_obs::histogram("serve.queue_depth", &SIZE_BOUNDS).record(admitted_total as f64);

        // Aging: a tenant denied its base (aging-free) share by queue
        // contention banks one window of priority, up to the cap; a
        // tenant served its share resets. Quota and breaker sheds are
        // the tenant's own contract/poison and never age. Idle tenants
        // keep their credit — aging persists across idle windows.
        for (t, d) in &demand {
            let granted = admitted_by.get(t).copied().unwrap_or(0);
            let squeezed =
                queue_shed.get(t).copied().unwrap_or(0) > 0 && granted < (*d).min(base_share[t]);
            let st = self
                .states
                .get_mut(*t)
                // rdi-lint: allow(R5): demand keys are batch tenants, all opened above
                .expect("state opened above");
            st.aging = if squeezed {
                (st.aging + 1).min(self.config.aging_cap)
            } else {
                0
            };
        }

        // Per-tenant counter families (only nonzero deltas, so goldens
        // carry no dead zero keys).
        for (t, d) in &demand {
            if *d > 0 {
                rdi_obs::counter(&format!("serve.tenant.{t}.requests")).add(*d);
            }
            if let Some(v) = admitted_by.get(t).filter(|v| **v > 0) {
                rdi_obs::counter(&format!("serve.tenant.{t}.admitted")).add(*v);
            }
            if let Some(v) = quota_shed.get(t).filter(|v| **v > 0) {
                rdi_obs::counter(&format!("serve.tenant.{t}.shed_quota")).add(*v);
            }
            if let Some(v) = queue_shed.get(t).filter(|v| **v > 0) {
                rdi_obs::counter(&format!("serve.tenant.{t}.shed_queue")).add(*v);
            }
            if let Some(v) = breaker_shed.get(t).filter(|v| **v > 0) {
                rdi_obs::counter(&format!("serve.tenant.{t}.shed_breaker")).add(*v);
            }
        }
        verdicts
    }

    /// Post phase, shared by both paths: feed each tenant's breaker its
    /// own outcomes in arrival order (sheds never feed any breaker) and
    /// emit failure/degradation counters. Returns the failed count.
    pub(crate) fn note_outcomes(
        &mut self,
        tenants: &[TenantId],
        responses: &[Option<Result<ServeResponse, ServeError>>],
    ) -> usize {
        let mut failed = 0usize;
        let mut shed = 0usize;
        let mut failed_by: BTreeMap<&TenantId, u64> = BTreeMap::new();
        for (t, r) in tenants.iter().zip(responses) {
            let Some(r) = r else { continue };
            let st = self
                .states
                .get_mut(t)
                // rdi-lint: allow(R5): outcomes only arrive for tenants admit_batch saw
                .expect("tenant admitted this batch");
            match r {
                Ok(_) => {
                    let was_half_open = st.breaker.state() == RecoveryState::HalfOpen;
                    st.breaker.record_success();
                    if was_half_open {
                        rdi_obs::counter("serve.breaker_recoveries").inc();
                    }
                }
                Err(ServeError::QuotaExceeded { .. })
                | Err(ServeError::QueueFull { .. })
                | Err(ServeError::CircuitOpen { .. }) => {
                    // shed, not failed: sheds never trip any breaker
                    shed += 1;
                }
                Err(_) => {
                    failed += 1;
                    *failed_by.entry(t).or_default() += 1;
                    if st.breaker.record_failure(self.ticks) {
                        rdi_obs::counter("serve.breaker_trips").inc();
                    }
                }
            }
        }
        rdi_obs::counter("serve.requests_failed").add(failed as u64);
        rdi_obs::counter("serve.requests_degraded").add((shed + failed) as u64);
        for (t, v) in failed_by {
            rdi_obs::counter(&format!("serve.tenant.{t}.failed")).add(v);
        }
        failed
    }
}

/// Admission verdicts laid out as batch-report scaffolding: shed slots
/// pre-filled with their typed errors, admitted positions paired with
/// their execute seeds.
#[derive(Debug)]
pub(crate) struct AdmissionLayout {
    /// One slot per request; `Some(Err(..))` for sheds, `None` pending.
    pub responses: Vec<Option<Result<ServeResponse, ServeError>>>,
    /// `(position, execute seed)` per admitted request, arrival order.
    pub admitted: Vec<(usize, u64)>,
    /// Requests shed at admission.
    pub shed: usize,
}

/// Expand verdicts into the layout both serving paths build their batch
/// around.
pub(crate) fn lay_out(verdicts: Vec<AdmitVerdict>) -> AdmissionLayout {
    let mut responses: Vec<Option<Result<ServeResponse, ServeError>>> =
        (0..verdicts.len()).map(|_| None).collect();
    let mut admitted = Vec::new();
    let mut shed = 0usize;
    for (pos, v) in verdicts.into_iter().enumerate() {
        match v {
            AdmitVerdict::Admitted { seed, .. } => admitted.push((pos, seed)),
            AdmitVerdict::Shed(e) => {
                responses[pos] = Some(Err(e));
                shed += 1;
            }
        }
    }
    AdmissionLayout {
        responses,
        admitted,
        shed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tagged(counts: &[(&str, usize)]) -> Vec<TenantId> {
        // round-robin interleave so no tenant monopolizes the prefix
        let ids: Vec<TenantId> = counts.iter().map(|(n, _)| TenantId::new(*n)).collect();
        let max = counts.iter().map(|(_, c)| *c).max().unwrap_or(0);
        let mut out = Vec::new();
        for i in 0..max {
            for (t, (_, c)) in ids.iter().zip(counts) {
                if i < *c {
                    out.push(t.clone());
                }
            }
        }
        out
    }

    fn admitter(capacity: usize, tenants: Vec<(TenantId, TenantPolicy)>) -> Admitter {
        let cfg = AdmitConfig {
            queue_capacity: capacity,
            breaker_threshold: 3,
            breaker_cooldown_ticks: 2,
            aging_cap: 8,
            default_policy: TenantPolicy::default(),
            tenants,
        };
        Admitter::new(cfg, 42)
    }

    fn admitted(verdicts: &[AdmitVerdict]) -> usize {
        verdicts
            .iter()
            .filter(|v| matches!(v, AdmitVerdict::Admitted { .. }))
            .count()
    }

    fn shed_kind(verdicts: &[AdmitVerdict], f: impl Fn(&ServeError) -> bool) -> usize {
        verdicts
            .iter()
            .filter(|v| matches!(v, AdmitVerdict::Shed(e) if f(e)))
            .count()
    }

    #[test]
    fn default_tenant_fills_capacity_then_queue_sheds() {
        let mut a = admitter(2, vec![]);
        let batch = vec![TenantId::default(); 5];
        let v = a.admit_batch(&batch);
        assert_eq!(admitted(&v), 2);
        assert_eq!(
            shed_kind(&v, |e| matches!(e, ServeError::QueueFull { .. })),
            3
        );
    }

    #[test]
    fn zero_quota_tenant_sheds_everything_without_touching_others() {
        let zero = TenantId::new("zero");
        let mut a = admitter(8, vec![(zero.clone(), TenantPolicy::limited(1, 0, 0))]);
        for _ in 0..3 {
            let batch = tagged(&[("zero", 3), ("default", 3)]);
            let v = a.admit_batch(&batch);
            assert_eq!(
                shed_kind(&v, |e| matches!(e, ServeError::QuotaExceeded { .. })),
                3
            );
            assert_eq!(admitted(&v), 3, "default tenant unaffected");
        }
        assert_eq!(a.tokens(&zero), Some(0));
    }

    #[test]
    fn quota_larger_than_queue_capacity_is_bounded_by_the_queue() {
        let big = TenantId::new("big");
        let mut a = admitter(4, vec![(big.clone(), TenantPolicy::limited(1, 100, 100))]);
        let batch = vec![big.clone(); 10];
        let v = a.admit_batch(&batch);
        assert_eq!(admitted(&v), 4, "queue bounds a huge quota");
        assert_eq!(
            shed_kind(&v, |e| matches!(e, ServeError::QueueFull { .. })),
            6
        );
        // only admissions consumed tokens; the rest banked up to burst
        assert_eq!(a.tokens(&big), Some(96));
    }

    #[test]
    fn flooding_tenant_cannot_starve_honest_tenants() {
        let mut a = admitter(8, vec![]);
        for _ in 0..6 {
            let batch = tagged(&[("alice", 2), ("bob", 2), ("carol", 2), ("mallory", 24)]);
            let v = a.admit_batch(&batch);
            // base share is 2 each; honest demand 2 is always admitted
            let by_tenant = |name: &str| {
                batch
                    .iter()
                    .zip(&v)
                    .filter(|(t, v)| t.name() == name && matches!(v, AdmitVerdict::Admitted { .. }))
                    .count()
            };
            assert_eq!(by_tenant("alice"), 2);
            assert_eq!(by_tenant("bob"), 2);
            assert_eq!(by_tenant("carol"), 2);
            assert_eq!(by_tenant("mallory"), 2, "flood is capped at its share");
            // the flooder got its base share, so it never banks aging
            assert_eq!(a.aging(&TenantId::new("mallory")), 0);
        }
    }

    #[test]
    fn oversubscribed_tenants_rotate_via_aging_and_none_starves() {
        // three tenants, one slot: aging must rotate the slot so every
        // tenant is served within a bounded number of windows
        let mut a = admitter(1, vec![]);
        let mut served: BTreeMap<String, usize> = BTreeMap::new();
        for _ in 0..9 {
            let batch = tagged(&[("x", 1), ("y", 1), ("z", 1)]);
            let v = a.admit_batch(&batch);
            assert_eq!(admitted(&v), 1);
            for (t, verdict) in batch.iter().zip(&v) {
                if matches!(verdict, AdmitVerdict::Admitted { .. }) {
                    *served.entry(t.name().to_string()).or_default() += 1;
                }
            }
        }
        assert_eq!(served.len(), 3, "every tenant served: {served:?}");
        assert_eq!(served.values().sum::<usize>(), 9);
        for (t, n) in &served {
            assert!(*n >= 2, "tenant {t} starved: {served:?}");
        }
    }

    #[test]
    fn aging_persists_across_an_idle_window_and_resets_once_served() {
        let mut a = admitter(1, vec![]);
        // x and y contend for one slot: name order serves x, ages y
        let batch = tagged(&[("x", 1), ("y", 1)]);
        a.admit_batch(&batch);
        let y = TenantId::new("y");
        assert_eq!(a.aging(&y), 1);
        // y sits out a window; its credit must survive idleness
        a.admit_batch(&tagged(&[("x", 1)]));
        assert_eq!(a.aging(&y), 1, "aging persists across idle windows");
        // back in contention, y's banked priority wins the slot
        let v = a.admit_batch(&batch);
        let y_admitted = batch
            .iter()
            .zip(&v)
            .any(|(t, v)| t == &y && matches!(v, AdmitVerdict::Admitted { .. }));
        assert!(y_admitted, "aged tenant wins the next contended slot");
        assert_eq!(a.aging(&y), 0, "served share resets aging");
    }

    #[test]
    fn tokens_refill_only_on_ticks_and_saturate_at_burst() {
        let t = TenantId::new("metered");
        let mut a = admitter(8, vec![(t.clone(), TenantPolicy::limited(1, 2, 3))]);
        let v = a.admit_batch(&vec![t.clone(); 4]);
        assert_eq!(admitted(&v), 2, "first tick grants one refill");
        assert_eq!(
            shed_kind(&v, |e| matches!(e, ServeError::QuotaExceeded { .. })),
            2
        );
        assert_eq!(a.tokens(&t), Some(0));
        // two idle ticks bank tokens, saturating at burst = 3
        a.admit_batch(&[]);
        a.admit_batch(&[]);
        assert_eq!(a.tokens(&t), Some(3));
        let v = a.admit_batch(&vec![t.clone(); 6]);
        // the tick of the batch itself also refills (+2, capped at 3)
        assert_eq!(admitted(&v), 3);
    }

    #[test]
    fn tenant_streams_are_independent_of_interleaved_traffic() {
        let victim = TenantId::new("victim");
        let quiet: Vec<AdmitVerdict> = {
            let mut a = admitter(8, vec![]);
            (0..3)
                .flat_map(|_| a.admit_batch(&vec![victim.clone(); 2]))
                .collect()
        };
        let noisy: Vec<AdmitVerdict> = {
            let mut a = admitter(
                8,
                vec![(TenantId::new("flood"), TenantPolicy::limited(1, 2, 2))],
            );
            let batch = tagged(&[("victim", 2), ("flood", 6)]);
            (0..3)
                .flat_map(|_| a.admit_batch(&batch))
                .zip(batch.iter().cycle())
                .filter(|(_, t)| **t == victim)
                .map(|(v, _)| v)
                .collect()
        };
        assert_eq!(quiet, noisy, "victim seeds independent of the adversary");
    }

    #[test]
    fn per_tenant_breakers_isolate_poison() {
        let mut a = admitter(8, vec![]);
        let good = TenantId::new("good");
        let bad = TenantId::new("bad");
        let batch = vec![good.clone(), bad.clone()];
        // the bad tenant fails every admitted request; threshold 3
        for _ in 0..3 {
            let v = a.admit_batch(&batch);
            assert_eq!(admitted(&v), 2);
            let outcomes = vec![
                Some(Ok(ServeResponse::UnionTopK(vec![]))),
                Some(Err(ServeError::UnknownTable("ghost".into()))),
            ];
            a.note_outcomes(&batch, &outcomes);
        }
        assert!(a.breaker_is_open(&bad));
        assert!(!a.breaker_is_open(&good), "good tenant's breaker isolated");
        let v = a.admit_batch(&batch);
        assert!(matches!(v[0], AdmitVerdict::Admitted { .. }));
        assert!(matches!(
            &v[1],
            AdmitVerdict::Shed(ServeError::CircuitOpen { .. })
        ));
    }

    #[test]
    fn sheds_never_feed_breakers() {
        let zero = TenantId::new("zero");
        let mut a = admitter(8, vec![(zero.clone(), TenantPolicy::limited(1, 0, 0))]);
        for _ in 0..5 {
            let batch = vec![zero.clone(); 3];
            let v = a.admit_batch(&batch);
            let layout = lay_out(v);
            a.note_outcomes(&batch, &layout.responses);
        }
        assert_eq!(a.breaker_failures(&zero), 0);
        assert_eq!(a.breaker_state(&zero), RecoveryState::Closed);
    }

    #[test]
    fn default_config_round_trips_session_knobs() {
        let sc = SessionConfig::default();
        let ac = AdmitConfig::from_session(&sc);
        assert_eq!(ac.queue_capacity, sc.queue_capacity);
        assert_eq!(ac.breaker_threshold, sc.breaker_threshold);
        assert_eq!(ac.breaker_cooldown_ticks, sc.breaker_cooldown_ticks);
        assert_eq!(ac.policy(&TenantId::default()), TenantPolicy::default());
    }
}
