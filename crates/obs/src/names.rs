//! The metric-name registry for the serving, cleaning, fault, and
//! policy layers.
//!
//! Every `serve.*`, `cleaning.*`, `fault.*`, or `policy.*`
//! counter/gauge/histogram/span name updated anywhere in the workspace
//! must appear here exactly once — rdi-lint's R12 metrics-consistency
//! rule cross-checks this list against the call sites, the CI
//! expect-lists, and the checked-in goldens, so a silent rename (the
//! drift byte-replay CI cannot see until the golden churns) fails the
//! lint gate instead.
//!
//! Names with a `{…}` segment are **patterns** for families constructed
//! with `format!` at runtime (one entry covers the whole family).
//! Other prefixes (`executor.*`, `coverage.*`, `tailor.*`, …) predate
//! the registry policy and are covered only by the asserted-names
//! check; extending the policy to them means adding their names here
//! and widening `REGISTRY_PREFIXES` in rdi-lint.

/// All registered metric names, sorted; see the module docs for the
/// registry policy.
pub const METRIC_NAMES: &[&str] = &[
    "cleaning.cells_imputed",
    "cleaning.knn_distances",
    "fault.breaker.closed",
    "fault.breaker.failures",
    "fault.breaker.opened",
    "fault.injected.{kind}",
    "policy.decisions",
    "policy.{id}.decisions",
    "serve.batch",
    "serve.batch_size",
    "serve.batches",
    "serve.breaker_probes",
    "serve.breaker_recoveries",
    "serve.breaker_trips",
    "serve.cache.bytes",
    "serve.cache.evicted_bytes",
    "serve.cache.evictions",
    "serve.cache.hits",
    "serve.cache.invalidated",
    "serve.cache.misses",
    "serve.candidates_scored",
    "serve.delta.rows_applied",
    "serve.index.tables",
    "serve.queue_depth",
    "serve.requests",
    "serve.requests_degraded",
    "serve.requests_failed",
    "serve.shard.routed",
    "serve.shard.{i}.cache_bytes",
    "serve.shard.{i}.tables",
    "serve.shed",
    "serve.tailor",
    "serve.tenant.{t}.admitted",
    "serve.tenant.{t}.failed",
    "serve.tenant.{t}.requests",
    "serve.tenant.{t}.shed_breaker",
    "serve.tenant.{t}.shed_queue",
    "serve.tenant.{t}.shed_quota",
    "serve.tenants",
];
