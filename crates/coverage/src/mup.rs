//! Maximal uncovered pattern (MUP) discovery.
//!
//! A pattern `p` is **covered** when at least `threshold` tuples match it,
//! and **uncovered** otherwise. The *maximal* uncovered patterns are the
//! most general uncovered ones — every strict generalization is covered —
//! and they concisely summarize the whole uncovered region: a pattern is
//! uncovered iff it specializes some MUP (Asudeh et al., ICDE 2019).

use std::collections::{BTreeMap, BTreeSet};

use crate::counter::PatternCounter;
use crate::pattern::Pattern;
use rdi_par::{par_map, Threads};
use rdi_table::Table;

/// Smallest lattice batch [`CoverageAnalyzer`] counts in parallel.
///
/// A two-thread split of `n` patterns beats a serial loop only once the
/// counting it saves exceeds one thread-scope spawn and join. Measured
/// on a 2-vCPU x86-64 VM (release build, medians of 200–3,000 calls):
///
/// - one two-thread `par_map` spawn and join on trivial work: 60–100 µs;
/// - one pattern count: ~0.5 µs against a 120-cell counter (2,000 rows,
///   4 attributes of 2–5 categories, the serving workload's probes),
///   0.1–0.15 µs against a ~20-cell one;
/// - two threads counted a batch only 1.1–1.25× faster than one, even
///   at 4,096 patterns, so the serial loop stayed as fast up to
///   ~1,500–2,000 patterns for both counters.
///
/// Smaller batches therefore run serially. That keeps every coverage
/// probe of a serving batch and of the pipeline's label stage inside
/// the caller's one parallel region (DESIGN.md, "Parallel grain").
const PARALLEL_MIN_PATTERNS: usize = 2048;

/// Coverage analyzer for a fixed table / attribute set / threshold.
pub struct CoverageAnalyzer {
    counter: PatternCounter,
    threshold: usize,
}

/// Search statistics for the ablation benchmark (nodes whose count was
/// actually computed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Lattice nodes whose count was evaluated.
    pub nodes_evaluated: usize,
    /// MUPs found.
    pub mups: usize,
    /// Peak size of the traversal frontier/stack (memory proxy; 0 for
    /// the naive full-lattice scan).
    pub peak_frontier: usize,
}

impl SearchStats {
    /// Publish this search's final statistics onto the global
    /// [`rdi_obs`] registry. Called once per completed search with the
    /// already-aggregated stats, so the recorded totals are functions of
    /// the work alone — identical for any thread count.
    fn record(&self) {
        rdi_obs::counter("coverage.searches").inc();
        rdi_obs::counter("coverage.nodes_evaluated").add(self.nodes_evaluated as u64);
        rdi_obs::counter("coverage.mups_found").add(self.mups as u64);
        rdi_obs::gauge("coverage.peak_frontier").set_max(self.peak_frontier as f64);
    }
}

impl CoverageAnalyzer {
    /// Build an analyzer over the given categorical attributes.
    pub fn new(table: &Table, attributes: &[&str], threshold: usize) -> rdi_table::Result<Self> {
        Ok(CoverageAnalyzer {
            counter: PatternCounter::new(table, attributes)?,
            threshold,
        })
    }

    /// Coverage over **multiple relations** (Lin, Guan, Asudeh, Jagadish;
    /// VLDB 2020): a group's effective count is its count *in the join* —
    /// a patient group may look covered in the patients table yet have no
    /// joined lab results. This convenience materializes `left ⋈ right`
    /// and analyzes the given attributes over it (the paper avoids the
    /// materialization; at this library's scales it is affordable and
    /// exact).
    pub fn over_join(
        left: &Table,
        right: &Table,
        left_key: &str,
        right_key: &str,
        attributes: &[&str],
        threshold: usize,
    ) -> rdi_table::Result<Self> {
        let joined = rdi_table::hash_join(left, right, left_key, right_key)?;
        CoverageAnalyzer::new(&joined, attributes, threshold)
    }

    /// Wrap an existing counter (lets callers reuse the index across
    /// thresholds).
    pub fn from_counter(counter: PatternCounter, threshold: usize) -> Self {
        CoverageAnalyzer { counter, threshold }
    }

    /// The coverage threshold τ.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// The underlying counter.
    pub fn counter(&self) -> &PatternCounter {
        &self.counter
    }

    /// Is this pattern covered (count ≥ τ)?
    pub fn is_covered(&self, p: &Pattern) -> bool {
        self.counter.count(p) >= self.threshold
    }

    /// Human-readable description of a pattern.
    pub fn describe(&self, p: &Pattern) -> String {
        self.counter.describe(p)
    }

    /// Evaluate every not-yet-memoized pattern in `batch` on `threads`
    /// and merge the counts into `memo` in batch order.
    ///
    /// Counting is a pure read of the underlying [`PatternCounter`], so
    /// the memo and `stats.nodes_evaluated` end up exactly as if the
    /// batch had been counted serially front to back — the basis for
    /// the `_with` search variants' bitwise-identical guarantee.
    fn batch_count(
        &self,
        batch: &[Pattern],
        memo: &mut BTreeMap<Pattern, usize>,
        stats: &mut SearchStats,
        threads: Threads,
    ) {
        let mut seen: BTreeSet<&Pattern> = BTreeSet::new();
        let fresh: Vec<&Pattern> = batch
            .iter()
            .filter(|p| !memo.contains_key(*p) && seen.insert(*p))
            .collect();
        let counts = par_map(threads.min_len(PARALLEL_MIN_PATTERNS), &fresh, |p| {
            self.counter.count(p)
        });
        for (p, c) in fresh.iter().zip(counts) {
            stats.nodes_evaluated += 1;
            memo.insert((*p).clone(), c);
        }
    }

    /// Memoized single-pattern count (serial; used for parent checks,
    /// which must keep the serial short-circuit evaluation order so
    /// `SearchStats` stay identical to the sequential search).
    fn memo_count(
        &self,
        p: &Pattern,
        memo: &mut BTreeMap<Pattern, usize>,
        stats: &mut SearchStats,
    ) -> usize {
        if let Some(c) = memo.get(p) {
            return *c;
        }
        stats.nodes_evaluated += 1;
        let c = self.counter.count(p);
        memo.insert(p.clone(), c);
        c
    }

    /// MUPs via the Pattern-Breaker style level-wise search with dominance
    /// pruning (children of uncovered nodes are never generated).
    pub fn maximal_uncovered_patterns(&self) -> Vec<Pattern> {
        self.mups_pattern_breaker().0
    }

    /// Pattern-Breaker search returning stats for ablation, on
    /// [`Threads::auto`] workers.
    pub fn mups_pattern_breaker(&self) -> (Vec<Pattern>, SearchStats) {
        self.mups_pattern_breaker_with(Threads::auto())
    }

    /// [`CoverageAnalyzer::mups_pattern_breaker`] on an explicit thread
    /// configuration.
    ///
    /// Each lattice level's candidate nodes are counted as one parallel
    /// batch; the level-L parent checks run serially and touch a
    /// pattern set disjoint from the level-L+1 children, so MUPs *and*
    /// [`SearchStats`] are identical to the serial search for any
    /// thread count.
    pub fn mups_pattern_breaker_with(&self, threads: Threads) -> (Vec<Pattern>, SearchStats) {
        let cards = self.counter.cardinalities();
        let mut memo: BTreeMap<Pattern, usize> = BTreeMap::new();
        let mut stats = SearchStats::default();

        let mut mups = Vec::new();
        let root = Pattern::root(self.counter.dim());
        if self.memo_count(&root, &mut memo, &mut stats) < self.threshold {
            // The whole data set is too small: the root itself is the MUP.
            stats.mups = 1;
            stats.record();
            return (vec![root], stats);
        }
        let mut frontier = vec![root];
        while !frontier.is_empty() {
            stats.peak_frontier = stats.peak_frontier.max(frontier.len());
            // Generate the whole next level, count it in one parallel
            // batch, then classify each child in generation order.
            let children: Vec<Pattern> = frontier
                .iter()
                .flat_map(|node| node.canonical_children(&cards))
                .collect();
            self.batch_count(&children, &mut memo, &mut stats, threads);
            let mut next = Vec::new();
            for child in children {
                // Always a memo hit after `batch_count`, so this cannot
                // panic the way a `memo[&child]` index could and the
                // serial evaluation stats are untouched.
                if self.memo_count(&child, &mut memo, &mut stats) >= self.threshold {
                    next.push(child);
                } else {
                    // Uncovered: MUP iff *all* parents are covered.
                    let all_parents_covered = child
                        .parents()
                        .iter()
                        .all(|q| self.memo_count(q, &mut memo, &mut stats) >= self.threshold);
                    if all_parents_covered {
                        mups.push(child);
                    }
                    // Dominance pruning: never expand an uncovered node.
                }
            }
            frontier = next;
        }
        mups.sort();
        stats.mups = mups.len();
        stats.record();
        (mups, stats)
    }

    /// MUPs via a Deep-Diver style depth-first traversal: the same
    /// canonical generation and dominance pruning as Pattern-Breaker but
    /// a DFS stack — it *emits MUPs early* and keeps a much smaller
    /// frontier (see `SearchStats::peak_frontier`), the trade-off the
    /// ICDE 2019 paper's DeepDiver explores. Output is identical.
    pub fn mups_deep_diver(&self) -> (Vec<Pattern>, SearchStats) {
        self.mups_deep_diver_with(Threads::auto())
    }

    /// [`CoverageAnalyzer::mups_deep_diver`] on an explicit thread
    /// configuration. The DFS order is untouched; only each expanded
    /// node's children are counted as a parallel batch, so MUPs and
    /// [`SearchStats`] are identical to the serial search for any
    /// thread count.
    pub fn mups_deep_diver_with(&self, threads: Threads) -> (Vec<Pattern>, SearchStats) {
        let cards = self.counter.cardinalities();
        let mut memo: BTreeMap<Pattern, usize> = BTreeMap::new();
        let mut stats = SearchStats::default();
        let root = Pattern::root(self.counter.dim());
        if self.memo_count(&root, &mut memo, &mut stats) < self.threshold {
            stats.mups = 1;
            stats.record();
            return (vec![root], stats);
        }
        let mut mups = Vec::new();
        let mut stack = vec![root];
        while let Some(node) = stack.pop() {
            stats.peak_frontier = stats.peak_frontier.max(stack.len() + 1);
            let children = node.canonical_children(&cards);
            self.batch_count(&children, &mut memo, &mut stats, threads);
            for child in children {
                // Memo hit after `batch_count`; see the Pattern-Breaker
                // loop for why this replaces a panicking index.
                if self.memo_count(&child, &mut memo, &mut stats) >= self.threshold {
                    stack.push(child);
                } else {
                    let all_parents_covered = child
                        .parents()
                        .iter()
                        .all(|q| self.memo_count(q, &mut memo, &mut stats) >= self.threshold);
                    if all_parents_covered {
                        mups.push(child);
                    }
                }
            }
        }
        mups.sort();
        stats.mups = mups.len();
        stats.record();
        (mups, stats)
    }

    /// MUPs by brute-force enumeration of the full lattice (ablation
    /// baseline; exponential in dimension).
    pub fn mups_naive(&self) -> (Vec<Pattern>, SearchStats) {
        let cards = self.counter.cardinalities();
        let mut stats = SearchStats::default();
        // enumerate every pattern
        let mut all: Vec<Pattern> = vec![Pattern::root(self.counter.dim())];
        for (i, &card) in cards.iter().enumerate() {
            let mut next = Vec::with_capacity(all.len() * (card as usize + 1));
            for p in &all {
                next.push(p.clone());
                for v in 0..card {
                    let mut q = p.clone();
                    q.0[i] = Some(v);
                    next.push(q);
                }
            }
            all = next;
        }
        let covered: BTreeMap<Pattern, bool> = all
            .iter()
            .map(|p| {
                stats.nodes_evaluated += 1;
                (p.clone(), self.counter.count(p) >= self.threshold)
            })
            .collect();
        let mut mups: Vec<Pattern> = all
            .into_iter()
            .filter(|p| !covered[p] && p.parents().iter().all(|q| covered[q]))
            .collect();
        mups.sort();
        stats.mups = mups.len();
        stats.record();
        (mups, stats)
    }

    /// Fraction of *full assignments* of the attribute domain that are
    /// uncovered (specialize some MUP) — a scalar summary of how much of
    /// the group space lacks representation.
    pub fn uncovered_assignment_fraction(&self, mups: &[Pattern]) -> f64 {
        let all = self.counter.all_assignments();
        if all.is_empty() {
            return 0.0;
        }
        let unc = all
            .iter()
            .filter(|cell| mups.iter().any(|m| m.matches(cell)))
            .count();
        unc as f64 / all.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdi_table::{DataType, Field, Schema, Value};

    fn table(rows: &[(&str, &str, &str)]) -> Table {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Str),
            Field::new("b", DataType::Str),
            Field::new("c", DataType::Str),
        ]);
        let mut t = Table::new(schema);
        for (x, y, z) in rows {
            t.push_row(vec![Value::str(*x), Value::str(*y), Value::str(*z)])
                .unwrap();
        }
        t
    }

    #[test]
    fn finds_single_missing_combination() {
        // all combos of two binary attrs present except (F, b)
        let t = table(&[
            ("M", "w", "0"),
            ("M", "b", "0"),
            ("F", "w", "0"),
            ("M", "w", "0"),
        ]);
        let an = CoverageAnalyzer::new(&t, &["a", "b"], 1).unwrap();
        let mups = an.maximal_uncovered_patterns();
        assert_eq!(mups.len(), 1);
        assert_eq!(an.describe(&mups[0]), "a=F, b=b");
    }

    #[test]
    fn pattern_breaker_agrees_with_naive() {
        let t = table(&[
            ("M", "w", "0"),
            ("M", "w", "1"),
            ("M", "b", "0"),
            ("F", "w", "1"),
            ("F", "w", "0"),
        ]);
        for tau in 1..=3 {
            let an = CoverageAnalyzer::new(&t, &["a", "b", "c"], tau).unwrap();
            let (pb, s1) = an.mups_pattern_breaker();
            let (nv, s2) = an.mups_naive();
            assert_eq!(pb, nv, "tau={tau}");
            // pruning should never evaluate more nodes than the naive scan
            assert!(s1.nodes_evaluated <= s2.nodes_evaluated);
        }
    }

    #[test]
    fn deep_diver_matches_pattern_breaker_with_smaller_frontier() {
        let t = table(&[
            ("M", "w", "0"),
            ("M", "w", "1"),
            ("M", "b", "0"),
            ("F", "w", "1"),
            ("F", "b", "0"),
            ("F", "w", "0"),
        ]);
        for tau in 1..=3 {
            let an = CoverageAnalyzer::new(&t, &["a", "b", "c"], tau).unwrap();
            let (pb, spb) = an.mups_pattern_breaker();
            let (dd, sdd) = an.mups_deep_diver();
            assert_eq!(pb, dd, "tau={tau}");
            assert_eq!(spb.nodes_evaluated, sdd.nodes_evaluated);
            assert!(sdd.peak_frontier <= spb.peak_frontier.max(1));
        }
    }

    #[test]
    fn deep_diver_tiny_dataset_root_is_mup() {
        let t = table(&[("M", "w", "0")]);
        let an = CoverageAnalyzer::new(&t, &["a", "b"], 5).unwrap();
        let (mups, _) = an.mups_deep_diver();
        assert_eq!(mups, vec![Pattern::root(2)]);
    }

    #[test]
    fn parallel_searches_identical_across_thread_counts() {
        let t = table(&[
            ("M", "w", "0"),
            ("M", "w", "1"),
            ("M", "b", "0"),
            ("F", "w", "1"),
            ("F", "b", "0"),
            ("F", "w", "0"),
            ("M", "b", "1"),
        ]);
        for tau in 1..=3 {
            let an = CoverageAnalyzer::new(&t, &["a", "b", "c"], tau).unwrap();
            let (pb1, spb1) = an.mups_pattern_breaker_with(Threads::fixed(1));
            let (dd1, sdd1) = an.mups_deep_diver_with(Threads::fixed(1));
            for threads in [2usize, 8] {
                let (pb, spb) = an.mups_pattern_breaker_with(Threads::fixed(threads));
                assert_eq!(pb, pb1, "tau={tau} threads={threads}");
                assert_eq!(spb, spb1, "tau={tau} threads={threads}");
                let (dd, sdd) = an.mups_deep_diver_with(Threads::fixed(threads));
                assert_eq!(dd, dd1, "tau={tau} threads={threads}");
                assert_eq!(sdd, sdd1, "tau={tau} threads={threads}");
            }
        }
    }

    /// Lattice levels wide enough to cross [`PARALLEL_MIN_PATTERNS`]
    /// take the parallel path, with answers and stats unchanged.
    #[test]
    fn wide_levels_are_thread_invariant() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Int),
            Field::new("c", DataType::Int),
        ]);
        let mut t = Table::new(schema);
        for r in 0..2_000i64 {
            let k = r % 100; // at most 100 distinct cells
            let row = vec![Value::Int(k % 48), Value::Int(k % 47), Value::Int(k % 7)];
            t.push_row(row).unwrap();
        }
        let an = CoverageAnalyzer::new(&t, &["a", "b", "c"], 4).unwrap();
        let cards = an.counter().cardinalities();
        let level2: usize = Pattern::root(3)
            .canonical_children(&cards)
            .iter()
            .map(|p| p.canonical_children(&cards).len())
            .sum();
        assert!(level2 >= PARALLEL_MIN_PATTERNS);
        let serial = an.mups_pattern_breaker_with(Threads::fixed(1));
        assert!(!serial.0.is_empty());
        for threads in [2usize, 8] {
            assert_eq!(
                an.mups_pattern_breaker_with(Threads::fixed(threads)),
                serial
            );
        }
    }

    #[test]
    fn higher_threshold_uncovers_more() {
        let t = table(&[
            ("M", "w", "0"),
            ("M", "b", "0"),
            ("F", "w", "0"),
            ("F", "b", "0"),
        ]);
        let an1 = CoverageAnalyzer::new(&t, &["a", "b"], 1).unwrap();
        assert!(an1.maximal_uncovered_patterns().is_empty());
        let an2 = CoverageAnalyzer::new(&t, &["a", "b"], 2).unwrap();
        let mups = an2.maximal_uncovered_patterns();
        assert!(!mups.is_empty());
        // every level-2 pattern has exactly 1 < 2 tuples, so the MUPs are
        // the four level-2 patterns (all level-1 have count 2 = τ).
        assert_eq!(mups.len(), 4);
    }

    #[test]
    fn tiny_dataset_root_is_mup() {
        let t = table(&[("M", "w", "0")]);
        let an = CoverageAnalyzer::new(&t, &["a", "b"], 5).unwrap();
        let mups = an.maximal_uncovered_patterns();
        assert_eq!(mups, vec![Pattern::root(2)]);
        assert_eq!(an.uncovered_assignment_fraction(&mups), 1.0);
    }

    #[test]
    fn mups_are_mutually_incomparable_and_uncovered() {
        let t = table(&[
            ("M", "w", "0"),
            ("M", "w", "1"),
            ("F", "b", "1"),
            ("F", "w", "0"),
            ("M", "b", "1"),
        ]);
        let an = CoverageAnalyzer::new(&t, &["a", "b", "c"], 2).unwrap();
        let mups = an.maximal_uncovered_patterns();
        for (i, m) in mups.iter().enumerate() {
            assert!(!an.is_covered(m));
            for q in m.parents() {
                assert!(an.is_covered(&q), "parent of MUP must be covered");
            }
            for (j, other) in mups.iter().enumerate() {
                if i != j {
                    assert!(!m.generalizes(other), "MUPs must be incomparable");
                }
            }
        }
    }

    #[test]
    fn join_coverage_differs_from_base_coverage() {
        use rdi_table::*;
        // patients: both groups present; labs: only group M has results
        let pschema = Schema::new(vec![
            Field::new("pid", DataType::Int),
            Field::new("g", DataType::Str),
        ]);
        let mut patients = Table::new(pschema);
        for (pid, g) in [(1, "M"), (2, "M"), (3, "F"), (4, "F")] {
            patients
                .push_row(vec![Value::Int(pid), Value::str(g)])
                .unwrap();
        }
        let lschema = Schema::new(vec![Field::new("pid", DataType::Int)]);
        let mut labs = Table::new(lschema);
        for pid in [1, 1, 2, 3] {
            labs.push_row(vec![Value::Int(pid)]).unwrap();
        }
        // base table: both groups covered at τ=2 (2 patients each)
        let base = CoverageAnalyzer::new(&patients, &["g"], 2).unwrap();
        assert!(base.maximal_uncovered_patterns().is_empty());
        // in the join, F has only 1 row (patient 3's single lab) → MUP
        let joined =
            CoverageAnalyzer::over_join(&patients, &labs, "pid", "pid", &["g"], 2).unwrap();
        assert_eq!(joined.counter().total(), 4);
        let mups = joined.maximal_uncovered_patterns();
        assert_eq!(mups.len(), 1);
        assert_eq!(joined.describe(&mups[0]), "g=F");
    }

    #[test]
    fn uncovered_fraction_bounds() {
        let t = table(&[("M", "w", "0"), ("F", "b", "1")]);
        let an = CoverageAnalyzer::new(&t, &["a", "b"], 1).unwrap();
        let mups = an.maximal_uncovered_patterns();
        let f = an.uncovered_assignment_fraction(&mups);
        assert!((0.0..=1.0).contains(&f));
        // (M,b) and (F,w) are missing → 2/4 uncovered
        assert!((f - 0.5).abs() < 1e-12);
    }
}
