//! The persistent lake index: registered tables + memoized sketches,
//! sharded by table id and maintained incrementally under lake churn.
//!
//! A [`LakeIndex`] owns every registered table (shared as `Arc` so
//! batch execution can read them without cloning) behind a fixed
//! number of **shards**: each table id is assigned to
//! `hash(id) % shard_count` — a pure function of the id, so the
//! assignment is identical across processes and thread counts — and
//! each shard carries its own [`SketchCache`] slice of the global byte
//! budget. All mutation — registration, delta application, and cache
//! warming — happens on `&mut self`; query *execution* runs over
//! immutable `Prepared` plans whose `Arc` handles were cloned out of
//! the caches during the serial warm pass, which is what lets a batch
//! fan out over `rdi-par` while staying bitwise identical to serial
//! execution.
//!
//! ## Incremental maintenance
//!
//! [`LakeIndex::apply_delta`] absorbs a [`TableDelta`] with sketch
//! work proportional to the delta, not the table: appends extend the
//! maintained per-column sketches value by value, deletes repair them
//! exactly through their multiplicity maps, and both refresh the
//! table's [`crate::fingerprint::FpState`] incrementally. Each delta
//! re-inserts the refreshed sketches under the new fingerprint and
//! eagerly evicts the old-fingerprint entries, so the next query is a
//! cache hit that builds nothing. Deletion repair is exact but its
//! signature-position repair cost grows with accumulated churn, so
//! once absorbed deletions exceed
//! [`LakeIndexConfig::deletion_debt_threshold`] the index performs one
//! counted rebuild (`sketch.rebuilds`) and resets the debt — a cost
//! policy only; answers are bitwise identical on both sides.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rdi_coverage::CoverageAnalyzer;
use rdi_discovery::hash::hash_bytes;
use rdi_discovery::{rank_scored, table_unionability, MinHash, TableSignature};
use rdi_obs::ProvenanceEvent;
use rdi_policy::{PolicyId, PolicyParams, PolicySet};
use rdi_table::{Table, TableDelta};
use rdi_tailor::{DtProblem, RandomPolicy, TableSource};

use crate::cache::{CacheKey, KeyProfile, Sketch, SketchCache, SketchKind};
use crate::error::ServeError;
use crate::fingerprint::{table_fingerprint, FpState};
use crate::maint::{Maintained, UpdatableKeyProfile, UpdatableSignature};
use crate::request::{CoverageReport, ServeRequest, ServeResponse, TailorReport};

/// Seed domain for shard assignment (distinct from every sketch seed).
const SHARD_SEED: u64 = 0x5348_4152_4421;

/// Deterministic shard assignment: a pure function of the id bytes and
/// the shard count, identical across processes and thread counts.
fn shard_route(id: &str, shard_count: usize) -> usize {
    (hash_bytes(id.as_bytes(), SHARD_SEED) % shard_count.max(1) as u64) as usize
}

/// Sizing knobs for a [`LakeIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LakeIndexConfig {
    /// MinHash signature length for union signatures and join profiles
    /// (≥ 1; [`LakeIndex::new`] treats 0 as 1).
    pub minhash_k: usize,
    /// Total sketch-cache capacity in accounted bytes, split across
    /// shards (remainder bytes go to the lowest-numbered shards).
    pub cache_capacity_bytes: usize,
    /// Number of index shards (≥ 1; table ids are assigned by hash).
    pub shard_count: usize,
    /// Deleted rows absorbed incrementally per table before one counted
    /// sketch rebuild resets the debt.
    pub deletion_debt_threshold: u64,
}

impl Default for LakeIndexConfig {
    fn default() -> Self {
        LakeIndexConfig {
            minhash_k: 128,
            cache_capacity_bytes: 4 << 20,
            shard_count: 8,
            deletion_debt_threshold: 512,
        }
    }
}

/// One registered table plus its maintained sketch state.
#[derive(Debug)]
struct Registered {
    table: Arc<Table>,
    /// Incrementally maintained content fingerprint.
    fp: FpState,
    cost: f64,
    /// Lazily-populated maintained sketch state (see `maint`).
    maint: Maintained,
}

/// One shard: its slice of the table map and its slice of the cache
/// byte budget.
///
/// All per-shard operations live here; the owning [`LakeIndex`] routes
/// each table id to its shard. Sizing knobs (`minhash_k`,
/// `deletion_debt_threshold`) are passed per call, so the index config
/// stays the one place they are read from.
#[derive(Debug)]
struct Shard {
    tables: BTreeMap<String, Registered>,
    cache: SketchCache,
}

impl Shard {
    fn new(cache_capacity: usize) -> Self {
        Shard {
            tables: BTreeMap::new(),
            cache: SketchCache::new(cache_capacity),
        }
    }

    /// Register or replace a table (validation included); evicts
    /// stale-fingerprint cache entries for the id.
    fn upsert(&mut self, id: String, table: Table, cost: f64) -> Result<(), ServeError> {
        if table.is_empty() {
            return Err(ServeError::EmptyTable(id));
        }
        if cost.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(ServeError::InvalidCost(cost));
        }
        rdi_obs::counter("serve.shard.routed").inc();
        let fp = FpState::from_table(&table);
        let keep = fp.fingerprint();
        self.tables.insert(
            id.clone(),
            Registered {
                table: Arc::new(table),
                fp,
                cost,
                maint: Maintained::default(),
            },
        );
        // Defensive even on fresh registration: a previous life of this
        // id (dropped, re-registered) must leave no stale entries.
        self.cache.evict_stale(&id, keep);
        Ok(())
    }

    /// Apply a delta to a table registered in this shard (see
    /// [`LakeIndex::apply_delta`] for the maintenance contract).
    fn apply_delta(
        &mut self,
        id: &str,
        delta: &TableDelta,
        k: usize,
        debt_threshold: u64,
    ) -> Result<usize, ServeError> {
        rdi_obs::counter("serve.shard.routed").inc();

        if matches!(delta, TableDelta::Drop) {
            if self.tables.remove(id).is_none() {
                return Err(ServeError::UnknownTable(id.to_string()));
            }
            self.cache.evict_owner(id);
            return Ok(0);
        }

        let r = self
            .tables
            .get_mut(id)
            .ok_or_else(|| ServeError::UnknownTable(id.to_string()))?;
        let rows_touched = match delta {
            TableDelta::Append(rows) => {
                Arc::make_mut(&mut r.table).append(rows)?;
                r.fp.append(rows);
                if let Some(u) = &mut r.maint.union {
                    u.append_rows(rows);
                }
                for p in r.maint.joins.values_mut() {
                    p.append_rows(rows)?;
                }
                rows.num_rows()
            }
            TableDelta::Delete(indices) => {
                let removed = Arc::make_mut(&mut r.table).delete_rows(indices)?;
                let mut sorted = indices.clone();
                sorted.sort_unstable();
                sorted.dedup();
                r.fp.delete(&sorted);
                if r.maint.has_sketches() {
                    r.maint.debt += removed.num_rows() as u64;
                    if r.maint.debt > debt_threshold {
                        // debt crossed: one counted rebuild per
                        // maintained sketch, then a clean slate
                        let table = r.table.clone();
                        if let Some(u) = &mut r.maint.union {
                            *u = UpdatableSignature::build(id, &table, k);
                            rdi_obs::counter("sketch.rebuilds").inc();
                        }
                        for (col, p) in r.maint.joins.iter_mut() {
                            *p = UpdatableKeyProfile::build(&table, col, k)?;
                            rdi_obs::counter("sketch.rebuilds").inc();
                        }
                        r.maint.debt = 0;
                    } else {
                        if let Some(u) = &mut r.maint.union {
                            u.remove_rows(&removed);
                        }
                        for p in r.maint.joins.values_mut() {
                            p.remove_rows(&removed)?;
                        }
                    }
                }
                removed.num_rows()
            }
            TableDelta::Drop => 0, // handled above
        };

        // Refresh the cache under the new fingerprint and eagerly evict
        // the now-unreachable old-fingerprint entries.
        let new_fp = r.fp.fingerprint();
        if let Some(u) = &r.maint.union {
            self.cache.insert(
                CacheKey {
                    owner: id.to_string(),
                    fingerprint: new_fp,
                    kind: SketchKind::Union { k },
                },
                Sketch::Union(Arc::new(u.signature())),
            );
        }
        for (col, p) in &r.maint.joins {
            self.cache.insert(
                CacheKey {
                    owner: id.to_string(),
                    fingerprint: new_fp,
                    kind: SketchKind::Join {
                        column: col.clone(),
                        k,
                    },
                },
                Sketch::Join(Arc::new(p.profile())),
            );
        }
        self.cache.evict_stale(id, new_fp);
        rdi_obs::counter("serve.delta.rows_applied").add(rows_touched as u64);
        Ok(rows_touched)
    }

    /// Union signature for a registered table: cache hit, or derive
    /// from maintained state, or cold-build (which starts maintenance).
    fn union_signature(&mut self, id: &str, k: usize) -> Result<Arc<TableSignature>, ServeError> {
        let r = self
            .tables
            .get_mut(id)
            .ok_or_else(|| ServeError::UnknownTable(id.to_string()))?;
        let key = CacheKey {
            owner: id.to_string(),
            fingerprint: r.fp.fingerprint(),
            kind: SketchKind::Union { k },
        };
        if let Some(Sketch::Union(sig)) = self.cache.get(&key) {
            return Ok(sig);
        }
        let table = r.table.clone();
        let u = r
            .maint
            .union
            .get_or_insert_with(|| UpdatableSignature::build(id, &table, k));
        let sig = Arc::new(u.signature());
        self.cache.insert(key, Sketch::Union(sig.clone()));
        Ok(sig)
    }

    /// Join profile for one column of a registered table: cache hit,
    /// or derive from maintained state, or cold-build (which starts
    /// maintenance). The column must exist — callers check first.
    fn key_profile(
        &mut self,
        id: &str,
        column: &str,
        k: usize,
    ) -> Result<Arc<KeyProfile>, ServeError> {
        let r = self
            .tables
            .get_mut(id)
            .ok_or_else(|| ServeError::UnknownTable(id.to_string()))?;
        let key = CacheKey {
            owner: id.to_string(),
            fingerprint: r.fp.fingerprint(),
            kind: SketchKind::Join {
                column: column.to_string(),
                k,
            },
        };
        if let Some(Sketch::Join(p)) = self.cache.get(&key) {
            return Ok(p);
        }
        let table = r.table.clone();
        let profile = match r.maint.joins.entry(column.to_string()) {
            Entry::Occupied(e) => Arc::new(e.get().profile()),
            Entry::Vacant(v) => Arc::new(
                v.insert(UpdatableKeyProfile::build(&table, column, k)?)
                    .profile(),
            ),
        };
        self.cache.insert(key, Sketch::Join(profile.clone()));
        Ok(profile)
    }

    /// Union signature for an ad-hoc query table, cached (without
    /// maintenance). Only the query-owner shard is asked.
    fn query_union_signature(
        &mut self,
        fingerprint: u64,
        query: &Table,
        k: usize,
    ) -> Result<Arc<TableSignature>, ServeError> {
        let key = CacheKey {
            owner: CacheKey::QUERY_OWNER.to_string(),
            fingerprint,
            kind: SketchKind::Union { k },
        };
        if let Some(Sketch::Union(sig)) = self.cache.get(&key) {
            return Ok(sig);
        }
        let sig = Arc::new(TableSignature::build(CacheKey::QUERY_OWNER, query, k)?);
        self.cache.insert(key, Sketch::Union(sig.clone()));
        Ok(sig)
    }

    /// Join profile for one column of an ad-hoc query table, cached
    /// (without maintenance). Only the query-owner shard is asked.
    fn query_key_profile(
        &mut self,
        fingerprint: u64,
        query: &Table,
        column: &str,
        k: usize,
    ) -> Result<Arc<KeyProfile>, ServeError> {
        let key = CacheKey {
            owner: CacheKey::QUERY_OWNER.to_string(),
            fingerprint,
            kind: SketchKind::Join {
                column: column.to_string(),
                k,
            },
        };
        if let Some(Sketch::Join(p)) = self.cache.get(&key) {
            return Ok(p);
        }
        let distinct = query
            .distinct(column)?
            .iter()
            .filter(|v| !v.is_null())
            .count();
        let profile = Arc::new(KeyProfile {
            column: column.to_string(),
            minhash: MinHash::from_column(query, column, k)?,
            distinct,
        });
        self.cache.insert(key, Sketch::Join(profile.clone()));
        Ok(profile)
    }
}

/// A persistent, in-process index over a lake of registered tables.
#[derive(Debug)]
pub struct LakeIndex {
    config: LakeIndexConfig,
    shards: Vec<Shard>,
    policies: PolicySet,
    decisions: Vec<ProvenanceEvent>,
}

impl Default for LakeIndex {
    fn default() -> Self {
        LakeIndex::new(LakeIndexConfig::default())
    }
}

impl LakeIndex {
    /// An empty index with the given sizing. A `shard_count` or a
    /// `minhash_k` of 0 is treated as 1.
    pub fn new(config: LakeIndexConfig) -> Self {
        let config = LakeIndexConfig {
            minhash_k: config.minhash_k.max(1),
            ..config
        };
        let n = config.shard_count.max(1);
        let total = config.cache_capacity_bytes;
        let shards = (0..n)
            .map(|i| Shard::new(total / n + usize::from(i < total % n)))
            .collect();
        LakeIndex {
            config,
            shards,
            policies: PolicySet::new(),
            decisions: Vec::new(),
        }
    }

    /// Override one selection site's params for this index. The union /
    /// join rankers consult the set when a plan is prepared;
    /// [`PolicyId::CACHE_EVICT`] overrides are pushed down into every
    /// shard's [`SketchCache`]. An empty set (the default) is
    /// bitwise-identical to the historic inline rules — note the cache
    /// site's *documented default* is `dir=min` (LRU), applied by the
    /// cache itself, so an explicit empty override here flips it to the
    /// policy-level default `dir=max` (MRU).
    pub fn set_policy(&mut self, site: PolicyId, params: PolicyParams) {
        if site == PolicyId::CACHE_EVICT {
            for s in &mut self.shards {
                s.cache.set_evict_params(params.clone());
            }
        }
        self.policies.set(site, params);
    }

    /// The selection-policy overrides active on this index.
    pub fn policies(&self) -> &PolicySet {
        &self.policies
    }

    /// Take every [`ProvenanceEvent::PolicyDecision`] recorded since
    /// the last drain: ranking decisions from the one-shot query paths
    /// first, then each shard cache's eviction decisions, in shard
    /// order.
    pub fn drain_decisions(&mut self) -> Vec<ProvenanceEvent> {
        let mut out = std::mem::take(&mut self.decisions);
        for s in &mut self.shards {
            out.extend(s.cache.drain_decisions());
        }
        out
    }

    /// The index configuration.
    pub fn config(&self) -> &LakeIndexConfig {
        &self.config
    }

    /// Number of shards (≥ 1).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Deterministic shard assignment for a table id: a pure function
    /// of the id bytes and the shard count.
    pub fn shard_of(&self, id: &str) -> usize {
        shard_route(id, self.shards.len())
    }

    /// Registered-table count per shard, in shard order.
    pub fn shard_table_counts(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.tables.len()).collect()
    }

    /// Per-shard cache capacities, in shard order; they sum to the
    /// configured global budget.
    pub fn shard_cache_capacities(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.cache.capacity()).collect()
    }

    fn registered(&self, id: &str) -> Option<&Registered> {
        self.shards[self.shard_of(id)].tables.get(id)
    }

    /// Register a table under a unique id with a per-draw cost (used by
    /// [`ServeRequest::TailorRun`]). The content fingerprint is
    /// computed once here; re-registering the same id is an error
    /// ([`ServeError::DuplicateTable`]) — use [`LakeIndex::upsert`] to
    /// replace — as are empty tables and non-positive costs.
    pub fn register(
        &mut self,
        id: impl Into<String>,
        table: Table,
        cost: f64,
    ) -> Result<(), ServeError> {
        let id = id.into();
        if self.contains(&id) {
            return Err(ServeError::DuplicateTable(id));
        }
        self.upsert(id, table, cost)
    }

    /// Register or replace a table. Replacing an id whose content
    /// changed eagerly evicts the old-fingerprint cache entries — they
    /// are unreachable (nothing holds the old fingerprint any more)
    /// and must not squat in the byte budget. Replacing with identical
    /// content keeps the warm entries.
    pub fn upsert(
        &mut self,
        id: impl Into<String>,
        table: Table,
        cost: f64,
    ) -> Result<(), ServeError> {
        let id = id.into();
        let si = self.shard_of(&id);
        self.shards[si].upsert(id, table, cost)?;
        self.publish_stats();
        Ok(())
    }

    /// Apply a delta to a registered table, maintaining its fingerprint
    /// and any materialized sketches with work proportional to the
    /// delta. Counts `serve.delta.rows_applied`; sketch maintenance
    /// counts `sketch.incremental_updates` per absorbed value and
    /// `sketch.rebuilds` when deletion debt crosses the threshold.
    /// Returns the number of rows touched.
    ///
    /// `Drop` deregisters the table and evicts everything it cached;
    /// the id can be registered again later.
    pub fn apply_delta(&mut self, id: &str, delta: &TableDelta) -> Result<usize, ServeError> {
        let k = self.config.minhash_k;
        let debt_threshold = self.config.deletion_debt_threshold;
        let si = self.shard_of(id);
        let rows_touched = self.shards[si].apply_delta(id, delta, k, debt_threshold)?;
        self.publish_stats();
        Ok(rows_touched)
    }

    /// Publish index-level and per-shard gauges.
    fn publish_stats(&self) {
        rdi_obs::gauge("serve.index.tables").set(self.len() as f64);
        for (i, s) in self.shards.iter().enumerate() {
            rdi_obs::gauge(&format!("serve.shard.{i}.tables")).set(s.tables.len() as f64);
            rdi_obs::gauge(&format!("serve.shard.{i}.cache_bytes")).set(s.cache.bytes() as f64);
        }
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.tables.len()).sum()
    }

    /// True when no table is registered.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.tables.is_empty())
    }

    /// True when `id` is registered.
    pub fn contains(&self, id: &str) -> bool {
        self.registered(id).is_some()
    }

    /// Registered ids in deterministic (sorted) order.
    pub fn table_ids(&self) -> Vec<&str> {
        let mut ids: Vec<&str> = self
            .shards
            .iter()
            .flat_map(|s| s.tables.keys().map(String::as_str))
            .collect();
        ids.sort_unstable();
        ids
    }

    fn sorted_ids(&self) -> Vec<String> {
        self.table_ids().into_iter().map(String::from).collect()
    }

    /// A registered table by id.
    pub fn table(&self, id: &str) -> Option<&Table> {
        self.registered(id).map(|r| r.table.as_ref())
    }

    /// Accounted bytes currently held across all shard caches.
    pub fn cache_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.cache.bytes()).sum()
    }

    /// Number of cached sketches across all shards.
    pub fn cached_sketches(&self) -> usize {
        self.shards.iter().map(|s| s.cache.len()).sum()
    }

    /// Union signature for an ad-hoc query table, cached (without
    /// maintenance) in the query owner's shard.
    fn query_union_signature(
        &mut self,
        fingerprint: u64,
        query: &Table,
    ) -> Result<Arc<TableSignature>, ServeError> {
        let k = self.config.minhash_k;
        let si = self.shard_of(CacheKey::QUERY_OWNER);
        self.shards[si].query_union_signature(fingerprint, query, k)
    }

    /// Join profile for one column of an ad-hoc query table, cached
    /// (without maintenance) in the query owner's shard.
    fn query_key_profile(
        &mut self,
        fingerprint: u64,
        query: &Table,
        column: &str,
    ) -> Result<Arc<KeyProfile>, ServeError> {
        let k = self.config.minhash_k;
        let si = self.shard_of(CacheKey::QUERY_OWNER);
        self.shards[si].query_key_profile(fingerprint, query, column, k)
    }

    /// Union signature for a registered table: cache hit, or derive
    /// from maintained state, or cold-build (which starts maintenance).
    fn registered_union_signature(&mut self, id: &str) -> Result<Arc<TableSignature>, ServeError> {
        let k = self.config.minhash_k;
        let si = self.shard_of(id);
        self.shards[si].union_signature(id, k)
    }

    /// Join profile for one column of a registered table: cache hit,
    /// or derive from maintained state, or cold-build (which starts
    /// maintenance). The column must exist — callers check first.
    fn registered_key_profile(
        &mut self,
        id: &str,
        column: &str,
    ) -> Result<Arc<KeyProfile>, ServeError> {
        let k = self.config.minhash_k;
        let si = self.shard_of(id);
        self.shards[si].key_profile(id, column, k)
    }

    /// Validate a request and warm every sketch it needs, returning an
    /// immutable execution plan. This is the *only* cache-mutating
    /// step of request handling; [`execute`] is a pure function of the
    /// plan and a seed, so plans from one serial warm pass can run in
    /// parallel with bitwise-serial results.
    pub(crate) fn prepare(&mut self, request: &ServeRequest) -> Result<Prepared, ServeError> {
        match request {
            ServeRequest::UnionTopK { query, k } => {
                self.check_top_k(*k)?;
                check_query_shape(query)?;
                let fp = table_fingerprint(query);
                let query_sig = self.query_union_signature(fp, query)?;
                let ids = self.sorted_ids();
                let mut candidates = Vec::with_capacity(ids.len());
                for id in ids {
                    let sig = self.registered_union_signature(&id)?;
                    candidates.push((id, sig));
                }
                Ok(Prepared::Union {
                    k: *k,
                    query: query_sig,
                    candidates,
                    params: self.policies.params_for(PolicyId::UNION_RANK),
                })
            }
            ServeRequest::JoinableTopK { query, column, k } => {
                self.check_top_k(*k)?;
                check_query_shape(query)?;
                if query.column(column).is_err() {
                    return Err(ServeError::UnknownColumn {
                        table: CacheKey::QUERY_OWNER.to_string(),
                        column: column.clone(),
                    });
                }
                let fp = table_fingerprint(query);
                let query_profile = self.query_key_profile(fp, query, column)?;
                if query_profile.distinct == 0 {
                    return Err(ServeError::EmptyQuery(format!(
                        "query column `{column}` has no non-null values"
                    )));
                }
                let ids = self.sorted_ids();
                let mut candidates = Vec::with_capacity(ids.len());
                for id in ids {
                    // candidates without the key column are skipped, not errors
                    let has_column = self.table(&id).is_some_and(|t| t.column(column).is_ok());
                    if !has_column {
                        continue;
                    }
                    let p = self.registered_key_profile(&id, column)?;
                    candidates.push((id, p));
                }
                Ok(Prepared::Join {
                    k: *k,
                    query: query_profile,
                    candidates,
                    params: self.policies.params_for(PolicyId::JOIN_RANK),
                })
            }
            ServeRequest::CoverageProbe {
                table,
                attributes,
                threshold,
            } => {
                let r = self
                    .registered(table)
                    .ok_or_else(|| ServeError::UnknownTable(table.clone()))?;
                for a in attributes {
                    if r.table.column(a).is_err() {
                        return Err(ServeError::UnknownColumn {
                            table: table.clone(),
                            column: a.clone(),
                        });
                    }
                }
                Ok(Prepared::Coverage {
                    table_id: table.clone(),
                    table: r.table.clone(),
                    attributes: attributes.clone(),
                    threshold: *threshold,
                })
            }
            ServeRequest::TailorRun {
                problem,
                sources,
                max_draws,
            } => {
                if sources.is_empty() {
                    return Err(ServeError::EmptyQuery("no tailoring sources named".into()));
                }
                let mut resolved = Vec::with_capacity(sources.len());
                for id in sources {
                    let r = self
                        .registered(id)
                        .ok_or_else(|| ServeError::UnknownTable(id.clone()))?;
                    resolved.push((id.clone(), r.table.clone(), r.cost));
                }
                Ok(Prepared::Tailor {
                    problem: problem.clone(),
                    sources: resolved,
                    max_draws: *max_draws,
                })
            }
        }
    }

    fn check_top_k(&self, k: usize) -> Result<(), ServeError> {
        if k == 0 {
            return Err(ServeError::ZeroK);
        }
        if self.is_empty() {
            return Err(ServeError::EmptyIndex);
        }
        Ok(())
    }

    /// One-shot union top-k (`(table id, score)` descending, ties by
    /// name) — prepare + execute without a session. Degenerate inputs
    /// (`k = 0`, empty index, empty query) are typed errors.
    pub fn union_top_k(
        &mut self,
        query: &Table,
        k: usize,
    ) -> Result<Vec<(String, f64)>, ServeError> {
        let plan = self.prepare(&ServeRequest::UnionTopK {
            query: query.clone(),
            k,
        })?;
        let (result, decisions) = execute(&plan, 0);
        self.decisions.extend(decisions);
        match result {
            Ok(ServeResponse::UnionTopK(v)) => Ok(v),
            Ok(_) => unreachable!("union plan executes to a union response"),
            Err(e) => Err(e),
        }
    }

    /// One-shot joinability top-k by estimated key containment.
    pub fn joinable_top_k(
        &mut self,
        query: &Table,
        column: &str,
        k: usize,
    ) -> Result<Vec<(String, f64)>, ServeError> {
        let plan = self.prepare(&ServeRequest::JoinableTopK {
            query: query.clone(),
            column: column.to_string(),
            k,
        })?;
        let (result, decisions) = execute(&plan, 0);
        self.decisions.extend(decisions);
        match result {
            Ok(ServeResponse::JoinableTopK(v)) => Ok(v),
            Ok(_) => unreachable!("join plan executes to a join response"),
            Err(e) => Err(e),
        }
    }
}

/// Reject query tables whose signature would be empty.
fn check_query_shape(query: &Table) -> Result<(), ServeError> {
    if query.num_columns() == 0 {
        return Err(ServeError::EmptyQuery("query table has no columns".into()));
    }
    if query.num_rows() == 0 {
        return Err(ServeError::EmptyQuery("query table has no rows".into()));
    }
    Ok(())
}

/// An immutable, `Send + Sync` execution plan produced by
/// [`LakeIndex::prepare`]. All shared state is behind `Arc`.
#[derive(Debug, Clone)]
pub(crate) enum Prepared {
    Union {
        k: usize,
        query: Arc<TableSignature>,
        candidates: Vec<(String, Arc<TableSignature>)>,
        params: PolicyParams,
    },
    Join {
        k: usize,
        query: Arc<KeyProfile>,
        candidates: Vec<(String, Arc<KeyProfile>)>,
        params: PolicyParams,
    },
    Coverage {
        table_id: String,
        table: Arc<Table>,
        attributes: Vec<String>,
        threshold: usize,
    },
    Tailor {
        problem: DtProblem,
        sources: Vec<(String, Arc<Table>, f64)>,
        max_draws: usize,
    },
}

/// Execute a prepared plan. Pure: the response *and* the returned
/// [`ProvenanceEvent::PolicyDecision`] audit records are functions of
/// the plan and `seed` alone (the seed feeds the request's private RNG
/// stream; only tailoring consumes randomness), so execution order and
/// thread count cannot change any answer — or any rationale.
pub(crate) fn execute(
    plan: &Prepared,
    seed: u64,
) -> (Result<ServeResponse, ServeError>, Vec<ProvenanceEvent>) {
    let mut decisions = Vec::new();
    let result = execute_inner(plan, seed, &mut decisions);
    (result, decisions)
}

fn execute_inner(
    plan: &Prepared,
    seed: u64,
    decisions: &mut Vec<ProvenanceEvent>,
) -> Result<ServeResponse, ServeError> {
    match plan {
        Prepared::Union {
            k,
            query,
            candidates,
            params,
        } => {
            rdi_obs::counter("serve.candidates_scored").add(candidates.len() as u64);
            let scored: Vec<(String, f64)> = candidates
                .iter()
                .map(|(id, sig)| (id.clone(), table_unionability(query, sig)))
                .collect();
            // under default params, identical ranking to the historic
            // inline sort and to `UnionSearchIndex::top_k`
            let (top, event) = rank_scored(PolicyId::UNION_RANK, &scored, *k, params);
            decisions.push(event);
            Ok(ServeResponse::UnionTopK(top))
        }
        Prepared::Join {
            k,
            query,
            candidates,
            params,
        } => {
            rdi_obs::counter("serve.candidates_scored").add(candidates.len() as u64);
            let scored: Vec<(String, f64)> = candidates
                .iter()
                .map(|(id, p)| (id.clone(), containment_estimate(query, p)))
                .collect();
            let (top, event) = rank_scored(PolicyId::JOIN_RANK, &scored, *k, params);
            decisions.push(event);
            Ok(ServeResponse::JoinableTopK(top))
        }
        Prepared::Coverage {
            table_id,
            table,
            attributes,
            threshold,
        } => {
            let attrs: Vec<&str> = attributes.iter().map(String::as_str).collect();
            let analyzer = CoverageAnalyzer::new(table, &attrs, *threshold)?;
            let mups = analyzer.maximal_uncovered_patterns();
            let uncovered_fraction = analyzer.uncovered_assignment_fraction(&mups);
            Ok(ServeResponse::Coverage(CoverageReport {
                table: table_id.clone(),
                mups: mups.iter().map(|p| analyzer.describe(p)).collect(),
                uncovered_fraction,
            }))
        }
        Prepared::Tailor {
            problem,
            sources,
            max_draws,
        } => {
            let mut table_sources = Vec::with_capacity(sources.len());
            for (id, table, cost) in sources {
                table_sources.push(TableSource::new(
                    id.clone(),
                    Arc::clone(table),
                    *cost,
                    problem,
                )?);
            }
            let mut policy = RandomPolicy::new(table_sources.len());
            let mut rng = StdRng::seed_from_u64(seed);
            let built = rdi_core::PipelineBuilder::new(problem.clone())
                .max_draws(*max_draws)
                .span_root("serve.tailor")
                .build();
            let result = built
                .run(&mut table_sources, &mut policy, &mut rng)
                .map_err(|e| match e {
                    rdi_core::PipelineError::Table(t) => ServeError::Table(t),
                })?;
            decisions.extend(
                result
                    .provenance
                    .iter()
                    .filter(|e| matches!(e, ProvenanceEvent::PolicyDecision { .. }))
                    .cloned(),
            );
            Ok(ServeResponse::Tailored(TailorReport {
                rows: result.data.num_rows(),
                total_cost: result.total_cost,
                degraded: result.degraded,
                quarantined: result.quarantined,
                audit_passed: result.audit.passed(),
            }))
        }
    }
}

/// Estimated containment of the query key set in a candidate key set,
/// from the two MinHashes and exact distinct counts:
/// `|Q ∩ X| ≈ J/(1+J) · (|Q| + |X|)`, containment `= |Q ∩ X| / |Q|`,
/// clamped into `[0, 1]`.
fn containment_estimate(q: &KeyProfile, x: &KeyProfile) -> f64 {
    if x.distinct == 0 {
        return 0.0;
    }
    let j = q.minhash.jaccard(&x.minhash);
    let inter = j / (1.0 + j) * (q.distinct + x.distinct) as f64;
    (inter / q.distinct as f64).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdi_table::{DataType, Field, Schema, Value};

    fn str_table(col: &str, vals: &[&str]) -> Table {
        let schema = Schema::new(vec![Field::new(col, DataType::Str)]);
        let mut t = Table::new(schema);
        for v in vals {
            t.push_row(vec![Value::str(*v)]).unwrap();
        }
        t
    }

    fn index_with(tables: &[(&str, &[&str])]) -> LakeIndex {
        let mut idx = LakeIndex::default();
        for (id, vals) in tables {
            idx.register(*id, str_table("key", vals), 1.0).unwrap();
        }
        idx
    }

    /// Bitwise equality of two rankings.
    fn assert_ranking_eq(a: &[(String, f64)], b: &[(String, f64)]) {
        assert_eq!(a.len(), b.len());
        for ((ai, asc), (bi, bsc)) in a.iter().zip(b) {
            assert_eq!(ai, bi);
            assert_eq!(asc.to_bits(), bsc.to_bits(), "scores byte-identical");
        }
    }

    #[test]
    fn degenerate_inputs_are_typed_errors() {
        let mut empty = LakeIndex::default();
        let q = str_table("key", &["a"]);
        assert_eq!(
            empty.union_top_k(&q, 3).unwrap_err(),
            ServeError::EmptyIndex
        );

        let mut idx = index_with(&[("t1", &["a", "b"])]);
        assert_eq!(idx.union_top_k(&q, 0).unwrap_err(), ServeError::ZeroK);
        let no_rows = Table::new(Schema::new(vec![Field::new("key", DataType::Str)]));
        assert!(matches!(
            idx.union_top_k(&no_rows, 3).unwrap_err(),
            ServeError::EmptyQuery(_)
        ));
        assert!(matches!(
            idx.joinable_top_k(&q, "nope", 3).unwrap_err(),
            ServeError::UnknownColumn { .. }
        ));
    }

    #[test]
    fn registration_is_validated() {
        let mut idx = LakeIndex::default();
        idx.register("t", str_table("key", &["a"]), 1.0).unwrap();
        assert_eq!(
            idx.register("t", str_table("key", &["a"]), 1.0)
                .unwrap_err(),
            ServeError::DuplicateTable("t".into())
        );
        assert_eq!(
            idx.register("e", str_table("key", &[]), 1.0).unwrap_err(),
            ServeError::EmptyTable("e".into())
        );
        assert_eq!(
            idx.register("c", str_table("key", &["a"]), 0.0)
                .unwrap_err(),
            ServeError::InvalidCost(0.0)
        );
        // NaN != NaN under `assert_eq!`; match on the variant instead
        assert!(matches!(
            idx.register("n", str_table("key", &["a"]), f64::NAN)
                .unwrap_err(),
            ServeError::InvalidCost(c) if c.is_nan()
        ));
    }

    #[test]
    fn union_ranking_matches_uncached_union_search() {
        use rdi_discovery::UnionSearchIndex;
        let corpus: Vec<(&str, &[&str])> = vec![
            ("twin", &["a", "b", "c", "d"]),
            ("half", &["a", "b", "x", "y"]),
            ("none", &["p", "q", "r", "s"]),
        ];
        let mut idx = index_with(&corpus);
        let q = str_table("key", &["a", "b", "c", "d"]);
        let got = idx.union_top_k(&q, 3).unwrap();

        // uncached reference path: fresh signatures, fresh index
        let k = idx.config().minhash_k;
        let mut reference = UnionSearchIndex::new();
        for (id, vals) in &corpus {
            reference.insert(TableSignature::build(*id, &str_table("key", vals), k).unwrap());
        }
        let qsig = TableSignature::build(CacheKey::QUERY_OWNER, &q, k).unwrap();
        let want = reference.top_k(&qsig, 3);
        assert_ranking_eq(&got, &want);
    }

    #[test]
    fn joinable_ranking_tracks_containment() {
        let mut idx = index_with(&[
            ("full", &["a", "b", "c", "d"]),
            ("half", &["a", "b", "x", "y"]),
            ("none", &["p", "q", "r", "s"]),
        ]);
        let q = str_table("key", &["a", "b", "c", "d"]);
        let top = idx.joinable_top_k(&q, "key", 3).unwrap();
        assert_eq!(top[0].0, "full");
        assert!(top[0].1 > top[1].1);
        assert_eq!(top[2].0, "none");
    }

    #[test]
    fn candidates_without_the_key_column_are_skipped() {
        let mut idx = LakeIndex::default();
        idx.register("with", str_table("key", &["a", "b"]), 1.0)
            .unwrap();
        idx.register("without", str_table("other", &["a", "b"]), 1.0)
            .unwrap();
        let q = str_table("key", &["a", "b"]);
        let top = idx.joinable_top_k(&q, "key", 5).unwrap();
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].0, "with");
    }

    #[test]
    fn shard_assignment_is_deterministic_and_budget_preserving() {
        let idx = index_with(&[
            ("a", &["1"]),
            ("b", &["2"]),
            ("c", &["3"]),
            ("d", &["4"]),
            ("e", &["5"]),
            ("f", &["6"]),
            ("g", &["7"]),
            ("h", &["8"]),
            ("i", &["9"]),
            ("j", &["10"]),
        ]);
        assert_eq!(idx.shard_count(), 8);
        assert_eq!(idx.shard_table_counts().iter().sum::<usize>(), 10);
        // assignment is a pure function of the id — identical on a
        // second index with the same config
        let other = LakeIndex::default();
        for id in idx.table_ids() {
            assert_eq!(idx.shard_of(id), other.shard_of(id));
        }
        // more than one shard is populated (the ids spread)
        let populated = idx.shard_table_counts().iter().filter(|&&n| n > 0).count();
        assert!(populated > 1, "counts={:?}", idx.shard_table_counts());
        // per-shard capacities partition the global budget exactly
        assert_eq!(
            idx.shard_cache_capacities().iter().sum::<usize>(),
            idx.config().cache_capacity_bytes
        );
        // uneven budgets distribute the remainder to the first shards
        let uneven = LakeIndex::new(LakeIndexConfig {
            cache_capacity_bytes: 1003,
            shard_count: 4,
            ..LakeIndexConfig::default()
        });
        assert_eq!(uneven.shard_cache_capacities(), vec![251, 251, 251, 250]);
    }

    #[test]
    fn drop_delta_deregisters_and_evicts_the_owner() {
        let mut idx = index_with(&[("t1", &["a", "b"]), ("t2", &["x", "y"])]);
        let q = str_table("key", &["a"]);
        idx.union_top_k(&q, 2).unwrap();
        assert!(idx.cached_sketches() >= 3, "query + two candidates cached");
        assert_eq!(idx.apply_delta("t1", &TableDelta::Drop).unwrap(), 0);
        assert!(!idx.contains("t1"));
        assert_eq!(idx.len(), 1);
        assert_eq!(
            idx.apply_delta("t1", &TableDelta::Drop).unwrap_err(),
            ServeError::UnknownTable("t1".into())
        );
        // the id can be registered again
        idx.register("t1", str_table("key", &["fresh"]), 1.0)
            .unwrap();
        assert!(idx.contains("t1"));
    }

    #[test]
    fn upsert_evicts_stale_fingerprint_entries_eagerly() {
        let mut idx = index_with(&[("t1", &["a", "b"])]);
        let q = str_table("key", &["a"]);
        idx.union_top_k(&q, 1).unwrap();
        assert_eq!(idx.cached_sketches(), 2, "query sig + t1 sig");
        let bytes_before = idx.cache_bytes();

        // changed content: the old-fingerprint entry must not squat
        idx.upsert("t1", str_table("key", &["a", "b", "c"]), 1.0)
            .unwrap();
        assert_eq!(
            idx.cached_sketches(),
            1,
            "stale t1 entry evicted; query entry kept"
        );
        assert!(idx.cache_bytes() < bytes_before);

        // identical content: warm entries survive an upsert
        idx.union_top_k(&q, 1).unwrap();
        assert_eq!(idx.cached_sketches(), 2);
        idx.upsert("t1", str_table("key", &["a", "b", "c"]), 2.0)
            .unwrap();
        assert_eq!(
            idx.cached_sketches(),
            2,
            "same fingerprint: nothing evicted"
        );
    }

    #[test]
    fn deltas_to_unknown_tables_are_typed_errors() {
        let mut idx = index_with(&[("t1", &["a"])]);
        assert_eq!(
            idx.apply_delta("ghost", &TableDelta::Delete(vec![0]))
                .unwrap_err(),
            ServeError::UnknownTable("ghost".into())
        );
        // bad delete indices surface the table error and change nothing
        assert!(matches!(
            idx.apply_delta("t1", &TableDelta::Delete(vec![7]))
                .unwrap_err(),
            ServeError::Table(_)
        ));
        assert_eq!(idx.table("t1").map(Table::num_rows), Some(1));
    }
}
