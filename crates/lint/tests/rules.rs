//! Rule-engine tests: the planted fixture tree plus targeted
//! `analyze_source` cases for scoping and suppression behavior.

use std::collections::BTreeSet;
use std::path::Path;

use rdi_lint::{analyze_source, analyze_tree};

fn fixture_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures"))
}

#[test]
fn fixture_tree_reports_all_twelve_rules() {
    let report = analyze_tree(fixture_root()).expect("fixture tree scans");
    let rules: BTreeSet<&str> = report.findings.iter().map(|f| f.rule).collect();
    assert_eq!(
        rules,
        BTreeSet::from([
            "R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9", "R10", "R11", "R12",
        ]),
        "expected every rule to fire on the planted tree; findings: {:#?}",
        report.findings
    );
}

#[test]
fn fixture_tree_counts_and_suppressions() {
    let report = analyze_tree(fixture_root()).expect("fixture tree scans");
    let count = |rule: &str| report.findings.iter().filter(|f| f.rule == rule).count();
    // planted.rs: `use HashMap` + declaration line with two HashMap tokens
    assert_eq!(count("R1"), 3);
    assert_eq!(count("R2"), 1);
    // planted.rs: `use Instant` + `Instant::now()`
    assert_eq!(count("R3"), 2);
    // mylib: from_entropy + thread_rng
    assert_eq!(count("R4"), 2);
    // planted.rs unwrap + mylib panic! + expect + unwrap-under-bad-directive
    assert_eq!(count("R5"), 4);
    assert_eq!(count("R6"), 1);
    // mylib reasonless directive + the bench manifest opt-out sans reason
    assert_eq!(count("R7"), 2);
    // planted.rs `let _ = started;` + mylib statement-position `.ok();`
    assert_eq!(count("R8"), 2);
    // seeding.rs literal seed (param / stream_seed cases stay clean)
    assert_eq!(count("R9"), 1);
    // breaker.rs early return without an emission + choose.rs silent
    // selection-policy call
    assert_eq!(count("R10"), 2);
    // mylib allow(R3) covering nothing
    assert_eq!(count("R11"), 1);
    // ghost assert + dead decl + dup decl + unregistered use
    assert_eq!(count("R12"), 4);
    // the valid allow(R5) and allow(R8) in planted.rs
    assert_eq!(report.suppressed, 2);
    // exp_ok.rs and the fixture integration test contribute no findings
    assert!(report.files_scanned >= 8);
}

#[test]
fn fixture_classification_is_manifest_driven() {
    let report = analyze_tree(fixture_root()).expect("fixture tree scans");
    let class = |name: &str| {
        report
            .classification
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("{name} missing from classification"))
    };
    // coverage has no marker: algo by default, implicitly.
    assert!(class("coverage").algo && !class("coverage").explicit);
    // mylib opts out with a reason.
    let mylib = class("mylib");
    assert!(!mylib.algo && mylib.explicit && !mylib.reason.is_empty());
    // bench opts out without one — classified as asked, but R7 fired
    // (counted in fixture_tree_counts_and_suppressions).
    assert!(!class("bench").algo && class("bench").explicit);
}

#[test]
fn fixture_symbol_graph_is_populated() {
    let report = analyze_tree(fixture_root()).expect("fixture tree scans");
    // bins and tests/ files are exempt from the graph: 5 library files.
    assert!(report.symbols.files_parsed >= 5);
    assert!(report.symbols.functions > 5);
    assert!(
        report.symbols.emitting_functions >= 1,
        "the fixture breaker's record_failure emits counters"
    );
}

#[test]
fn fixture_r6_names_the_missing_experiment() {
    let report = analyze_tree(fixture_root()).expect("fixture tree scans");
    let r6: Vec<_> = report.findings.iter().filter(|f| f.rule == "R6").collect();
    assert_eq!(r6.len(), 1);
    assert!(r6[0].file.ends_with("exp_missing.rs"));
}

#[test]
fn hash_collections_flagged_only_in_algorithm_crates() {
    let src = "use std::collections::HashMap;\n";
    for algo in [
        "coverage",
        "discovery",
        "joinsample",
        "tailor",
        "fairness",
        "cleaning",
    ] {
        let rel = format!("crates/{algo}/src/lib.rs");
        let r = analyze_source(&rel, src);
        assert_eq!(r.findings.len(), 1, "{algo} should flag");
        assert_eq!(r.findings[0].rule, "R1");
    }
    for other in [
        "crates/table/src/lib.rs",
        "crates/obs/src/lib.rs",
        "src/lib.rs",
    ] {
        assert!(analyze_source(other, src).findings.is_empty(), "{other}");
    }
}

#[test]
fn algorithm_crates_are_held_to_wall_clock_rule() {
    // Algorithm outputs must be pure functions of their seeds; a wall
    // clock read in an algorithm crate is banned.
    let clock = "use std::time::Instant;\nfn t() { let _t = Instant::now(); }\n";
    let r = analyze_source("crates/coverage/src/lib.rs", clock);
    assert_eq!(r.findings.len(), 2);
    assert!(r.findings.iter().all(|f| f.rule == "R3"));
}

#[test]
fn golden_harness_must_emit_snapshot() {
    // E22 sits in the golden byte-replay matrix; a harness that stops
    // emitting METRICS_SNAPSHOT would silently drop out of
    // validate_metrics coverage.
    let silent = "fn main() { println!(\"ok\"); }\n";
    let r = analyze_source("crates/bench/src/bin/exp_multitenant.rs", silent);
    assert_eq!(r.findings.len(), 1);
    assert_eq!(r.findings[0].rule, "R6");
}

#[test]
fn wall_clock_exempt_in_obs_and_bench() {
    let src = "use std::time::Instant;\nfn t() { let _t = Instant::now(); }\n";
    assert!(analyze_source("crates/obs/src/span.rs", src)
        .findings
        .is_empty());
    assert_eq!(
        analyze_source("crates/tailor/src/runner.rs", src)
            .findings
            .len(),
        2
    );
}

#[test]
fn thread_spawn_allowed_only_in_par() {
    let src = "fn go() { std::thread::spawn(|| {}); }\n";
    assert!(analyze_source("crates/par/src/lib.rs", src)
        .findings
        .is_empty());
    let r = analyze_source("crates/table/src/lib.rs", src);
    assert_eq!(r.findings.len(), 1);
    assert_eq!(r.findings[0].rule, "R2");
    // `scope.spawn` (a method, not the bare path call) is not R2's target
    let scoped = "fn go(s: &S) { s.spawn(|| {}); }\n";
    assert!(analyze_source("crates/table/src/lib.rs", scoped)
        .findings
        .is_empty());
}

#[test]
fn unwrap_expect_only_as_method_calls() {
    // Idents named unwrap/expect that are not `.name(` calls do not fire.
    let src =
        "fn unwrap() {}\nfn caller() { unwrap(); }\nstruct S; impl S { fn expect(&self) {} }\n";
    assert!(analyze_source("crates/table/src/lib.rs", src)
        .findings
        .is_empty());
    let bad = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
    assert_eq!(
        analyze_source("crates/table/src/lib.rs", bad)
            .findings
            .len(),
        1
    );
}

#[test]
fn bins_tests_benches_examples_are_r5_exempt() {
    let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
    for exempt in [
        "crates/bench/src/bin/tool.rs",
        "crates/table/tests/t.rs",
        "crates/bench/benches/b.rs",
        "examples/demo.rs",
        "src/main.rs",
    ] {
        assert!(analyze_source(exempt, src).findings.is_empty(), "{exempt}");
    }
    assert_eq!(
        analyze_source("crates/table/src/lib.rs", src)
            .findings
            .len(),
        1
    );
}

#[test]
fn cfg_test_region_is_exempt() {
    let src = "fn lib(x: Option<u8>) -> u8 { x.unwrap() }\n\
               #[cfg(test)]\n\
               mod tests {\n\
                   #[test]\n\
                   fn t() { None::<u8>.unwrap(); panic!(\"boom\"); }\n\
               }\n";
    let r = analyze_source("crates/table/src/lib.rs", src);
    assert_eq!(r.findings.len(), 1, "only the pre-boundary unwrap fires");
    assert_eq!(r.findings[0].line, 1);
}

#[test]
fn suppression_covers_same_and_next_line_only() {
    let same_line = "fn f(x: Option<u8>) -> u8 { x.unwrap() } // rdi-lint: allow(R5): infallible by construction\n";
    let r = analyze_source("crates/table/src/lib.rs", same_line);
    assert!(r.findings.is_empty());
    assert_eq!(r.suppressed, 1);

    let line_above = "// rdi-lint: allow(R5): audited\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
    assert!(analyze_source("crates/table/src/lib.rs", line_above)
        .findings
        .is_empty());

    // Out of range: the unwrap fires, and the directive — now covering
    // nothing — is itself a stale-suppression finding (R11).
    let too_far = "// rdi-lint: allow(R5): audited\n\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
    let r = analyze_source("crates/table/src/lib.rs", too_far);
    let rules: Vec<&str> = r.findings.iter().map(|f| f.rule).collect();
    assert_eq!(rules, vec!["R11", "R5"], "{:#?}", r.findings);

    // the directive must name the right rule; naming the wrong one is
    // both ineffective (R5 fires) and stale (R11).
    let wrong_rule =
        "// rdi-lint: allow(R1): wrong rule\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
    let r = analyze_source("crates/table/src/lib.rs", wrong_rule);
    let rules: Vec<&str> = r.findings.iter().map(|f| f.rule).collect();
    assert_eq!(rules, vec!["R11", "R5"], "{:#?}", r.findings);
}

#[test]
fn stale_suppressions_fire_and_live_ones_do_not() {
    // A directive that covers a real finding is not stale.
    let live = "fn f(x: Option<u8>) -> u8 { x.unwrap() } // rdi-lint: allow(R5): infallible\n";
    let r = analyze_source("crates/table/src/lib.rs", live);
    assert!(r.findings.is_empty(), "{:#?}", r.findings);

    // One with no finding under it is R11 at the directive line.
    let stale = "// rdi-lint: allow(R2): threads were here once\nfn f() -> u8 { 3 }\n";
    let r = analyze_source("crates/table/src/lib.rs", stale);
    assert_eq!(r.findings.len(), 1);
    assert_eq!((r.findings[0].rule, r.findings[0].line), ("R11", 1));

    // R11 is not itself suppressible: allow(R11) cannot launder a stale
    // directive (and is stale on its own account).
    let meta = "// rdi-lint: allow(R11): please ignore\nfn f() -> u8 { 3 }\n";
    let r = analyze_source("crates/table/src/lib.rs", meta);
    assert!(r.findings.iter().any(|f| f.rule == "R11"));

    // Exempt files (tests, bins) carry no staleness obligation.
    let in_test = "// rdi-lint: allow(R5): leftover\nfn f() -> u8 { 3 }\n";
    assert!(analyze_source("crates/table/tests/t.rs", in_test)
        .findings
        .is_empty());
}

#[test]
fn doc_comment_directive_examples_are_inert() {
    // `///` and `//!` lines quoting a directive neither suppress nor
    // count as stale directives.
    let src = "//! // rdi-lint: allow(R5): doc example\n\
               /// // rdi-lint: allow(R1): another example\n\
               fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
    let r = analyze_source("crates/table/src/lib.rs", src);
    let rules: Vec<&str> = r.findings.iter().map(|f| f.rule).collect();
    assert_eq!(
        rules,
        vec!["R5"],
        "doc examples must be inert: {:#?}",
        r.findings
    );
    assert_eq!(r.suppressed, 0);
}

#[test]
fn seed_purity_traces_params_and_stream_seed() {
    // Pure: the seed is a parameter.
    let from_param = "fn go(seed: u64) { let mut r = StdRng::seed_from_u64(seed); let _r = r; }\n";
    assert!(analyze_source("crates/coverage/src/x.rs", from_param)
        .findings
        .is_empty());

    // Pure: derived from stream_seed through a local binding.
    let via_local = "fn go() { let s = rdi_par::stream_seed(2); \
                     let mut r = StdRng::seed_from_u64(s); let _r = r; }\n";
    assert!(analyze_source("crates/coverage/src/x.rs", via_local)
        .findings
        .is_empty());

    // Impure: a literal seed in an algorithm crate.
    let literal = "fn go() { let mut r = StdRng::seed_from_u64(42); let _r = r; }\n";
    let r = analyze_source("crates/coverage/src/x.rs", literal);
    assert_eq!(r.findings.len(), 1, "{:#?}", r.findings);
    assert_eq!(r.findings[0].rule, "R9");
    assert_eq!(r.findings[0].item, "go");

    // Impure: a local that bottoms out in a literal.
    let laundered = "fn go() { let s = 7u64; let mut r = StdRng::seed_from_u64(s); let _r = r; }\n";
    let r = analyze_source("crates/coverage/src/x.rs", laundered);
    assert!(
        r.findings.iter().any(|f| f.rule == "R9"),
        "{:#?}",
        r.findings
    );

    // Out of scope: non-algo crates and test regions.
    assert!(analyze_source("crates/serve/src/x.rs", literal)
        .findings
        .is_empty());
    let in_test =
        "#[cfg(test)]\nmod tests {\n  fn go() { let _r = StdRng::seed_from_u64(42); }\n}\n";
    assert!(analyze_source("crates/coverage/src/x.rs", in_test)
        .findings
        .is_empty());
}

#[test]
fn findings_carry_enclosing_item_and_fingerprint() {
    let src = "pub fn outer(x: Option<u8>) -> u8 { x.unwrap() }\n";
    let r = analyze_source("crates/table/src/lib.rs", src);
    assert_eq!(r.findings.len(), 1);
    assert_eq!(r.findings[0].item, "outer");
    let fp = rdi_lint::fingerprint(&r.findings[0]);
    assert_eq!(fp.len(), 16);
    assert!(fp.chars().all(|c| c.is_ascii_hexdigit()));
    // Stable across line shifts: the same finding one line lower hashes
    // the same (fingerprints exclude the line number).
    let shifted = format!("\n{src}");
    let r2 = analyze_source("crates/table/src/lib.rs", &shifted);
    assert_eq!(fp, rdi_lint::fingerprint(&r2.findings[0]));
}

#[test]
fn allow_file_covers_everything_and_lists() {
    let src = "// rdi-lint: allow-file(R5, R1): vendored shim, audited 2026-08\n\
               use std::collections::HashMap;\n\
               fn f(x: Option<u8>) -> u8 { x.unwrap() }\n\
               fn g(x: Option<u8>) -> u8 { x.expect(\"y\") }\n";
    let r = analyze_source("crates/fairness/src/lib.rs", src);
    assert!(r.findings.is_empty(), "{:?}", r.findings);
    assert_eq!(r.suppressed, 3);
}

#[test]
fn malformed_directives_are_r7_and_suppress_nothing() {
    for bad in [
        "// rdi-lint: allow(R5)\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
        "// rdi-lint: allow(): empty\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
        "// rdi-lint: allow(R99): unknown rule\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
        "// rdi-lint: deny(R5): unknown verb\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
    ] {
        let r = analyze_source("crates/table/src/lib.rs", bad);
        let rules: Vec<&str> = r.findings.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"R7"), "{bad:?} → {rules:?}");
        assert!(
            rules.contains(&"R5"),
            "malformed directive must not suppress: {bad:?}"
        );
        assert_eq!(r.suppressed, 0);
    }
}

#[test]
fn entropy_rng_flagged_everywhere_including_bins() {
    let src = "fn f() { let _ = rand::thread_rng(); }\n";
    for path in [
        "crates/datagen/src/lib.rs",
        "crates/bench/src/bin/exp_foo.rs",
        "src/lib.rs",
    ] {
        let r = analyze_source(path, src);
        assert!(
            r.findings.iter().any(|f| f.rule == "R4"),
            "{path} should flag R4"
        );
    }
}

#[test]
fn discarded_results_flagged_in_library_code() {
    for bad in [
        "fn f(r: Result<u64, u64>) { let _ = r; }\n",
        "fn f(s: &str) { s.parse::<u64>().ok(); }\n",
        "fn f(r: Result<(), u8>) { r.map(|v| v).ok(); }\n",
    ] {
        let r = analyze_source("crates/table/src/lib.rs", bad);
        assert_eq!(r.findings.len(), 1, "{bad:?} → {:?}", r.findings);
        assert_eq!(r.findings[0].rule, "R8");
    }
}

#[test]
fn consumed_ok_and_named_bindings_are_not_discards() {
    for ok in [
        // the value feeds a binding, assignment, or return — consumed
        "fn f(s: &str) -> Option<u64> { let v = s.parse().ok(); v }\n",
        "fn f(s: &str, out: &mut Option<u64>) { *out = s.parse().ok(); }\n",
        "fn f(s: &str) -> Option<u64> { return s.parse().ok(); }\n",
        // `.ok()` mid-expression is not statement position
        "fn f(s: &str) -> u64 { s.parse().ok().unwrap_or(0) }\n",
        // a named binding is not a wildcard discard
        "fn f(r: Result<u64, u64>) { let _r = r; }\n",
    ] {
        let r = analyze_source("crates/obs/src/lib.rs", ok);
        assert!(
            !r.findings.iter().any(|f| f.rule == "R8"),
            "{ok:?} → {:?}",
            r.findings
        );
    }
}

#[test]
fn discards_exempt_in_bins_tests_and_suppressible() {
    let src = "fn f(r: Result<u64, u64>) { let _ = r; }\n";
    for exempt in [
        "crates/bench/src/bin/tool.rs",
        "crates/table/tests/t.rs",
        "src/main.rs",
    ] {
        assert!(analyze_source(exempt, src).findings.is_empty(), "{exempt}");
    }
    let suppressed =
        "fn f(r: Result<u64, u64>) { let _ = r; } // rdi-lint: allow(R8): fire-and-forget probe\n";
    let r = analyze_source("crates/table/src/lib.rs", suppressed);
    assert!(r.findings.is_empty());
    assert_eq!(r.suppressed, 1);
}

#[test]
fn experiment_marker_accepted_in_all_forms() {
    for ok in [
        "fn main() { rdi_bench::emit_metrics_snapshot(); }\n",
        "fn main() { println!(\"{}{}\", METRICS_MARKER, json); }\n",
        "fn main() { println!(\"METRICS_SNAPSHOT {}\", json); }\n",
    ] {
        let r = analyze_source("crates/bench/src/bin/exp_x.rs", ok);
        assert!(!r.findings.iter().any(|f| f.rule == "R6"), "{ok}");
    }
    let missing = "fn main() {}\n";
    let r = analyze_source("crates/bench/src/bin/exp_x.rs", missing);
    assert!(r.findings.iter().any(|f| f.rule == "R6"));
    // non-experiment bins in bench carry no marker obligation
    let r = analyze_source("crates/bench/src/bin/validate_metrics.rs", missing);
    assert!(r.findings.is_empty());
}

#[test]
fn r6_covers_the_serving_experiment() {
    // E19 (exp_serving) is classified as an experiment binary like any
    // other `exp_*.rs`, so the METRICS_SNAPSHOT obligation applies.
    let missing = "fn main() { println!(\"served\"); }\n";
    let r = analyze_source("crates/bench/src/bin/exp_serving.rs", missing);
    assert!(
        r.findings.iter().any(|f| f.rule == "R6"),
        "exp_serving without a metrics snapshot must trip R6"
    );
    let ok = "fn main() { rdi_bench::emit_metrics_snapshot(); }\n";
    let r = analyze_source("crates/bench/src/bin/exp_serving.rs", ok);
    assert!(!r.findings.iter().any(|f| f.rule == "R6"));
}

#[test]
fn r6_covers_the_lake_churn_experiment() {
    // E20 (exp_lake_churn) proves O(delta) maintenance *by counters*,
    // so a run without a METRICS_SNAPSHOT is meaningless — pin the
    // obligation to the harness name.
    let missing = "fn main() { println!(\"churned\"); }\n";
    let r = analyze_source("crates/bench/src/bin/exp_lake_churn.rs", missing);
    assert!(
        r.findings.iter().any(|f| f.rule == "R6"),
        "exp_lake_churn without a metrics snapshot must trip R6"
    );
    let ok = "fn main() { rdi_bench::emit_metrics_snapshot(); }\n";
    let r = analyze_source("crates/bench/src/bin/exp_lake_churn.rs", ok);
    assert!(!r.findings.iter().any(|f| f.rule == "R6"));
}

#[test]
fn r6_covers_the_multitenant_experiment() {
    // E22 (exp_multitenant) proves fairness and blast-radius bounds by
    // per-tenant counter arithmetic; a run without a METRICS_SNAPSHOT
    // proves nothing, so the obligation is pinned to the harness name.
    let missing = "fn main() { println!(\"admitted\"); }\n";
    let r = analyze_source("crates/bench/src/bin/exp_multitenant.rs", missing);
    assert!(
        r.findings.iter().any(|f| f.rule == "R6"),
        "exp_multitenant without a metrics snapshot must trip R6"
    );
    let ok = "fn main() { rdi_bench::emit_metrics_snapshot(); }\n";
    let r = analyze_source("crates/bench/src/bin/exp_multitenant.rs", ok);
    assert!(!r.findings.iter().any(|f| f.rule == "R6"));
}

#[test]
fn selection_choose_sites_must_reach_policy_decision() {
    // A `.choose(..)` that takes PolicyParams (by type name or the
    // `*params` binding convention) with no PolicyDecision emission in
    // the enclosing function is an unauditable selection — R10.
    for bad in [
        "fn pick(p: &R, c: &[C]) -> Option<usize> {\n\
             let d = p.choose(c, &PolicyParams::new());\n\
             d.winner\n\
         }\n",
        "struct S { params: P }\n\
         impl S {\n\
             fn pick(&self, p: &R, c: &[C]) -> Option<usize> {\n\
                 p.choose(c, &self.params).winner\n\
             }\n\
         }\n",
        "struct S { evict_params: P }\n\
         impl S {\n\
             fn victim(&self, p: &R, c: &[C]) -> Option<usize> {\n\
                 p.choose(c, &self.evict_params).winner\n\
             }\n\
         }\n",
    ] {
        let r = analyze_source("crates/serve/src/cache.rs", bad);
        assert_eq!(r.findings.len(), 1, "{bad:?} → {:#?}", r.findings);
        assert_eq!(r.findings[0].rule, "R10");
    }

    // Emitting the rationale — via the typed constructor or a direct
    // variant construction — clears the site.
    for ok in [
        "fn pick(p: &R, c: &[C], out: &mut Vec<E>) -> Option<usize> {\n\
             let d = p.choose(c, &PolicyParams::new());\n\
             out.push(rdi_obs::policy_decision_event(&d.rationale(c, &PolicyParams::new())));\n\
             d.winner\n\
         }\n",
        "fn pick(p: &R, c: &[C], out: &mut Vec<E>) -> Option<usize> {\n\
             let d = p.choose(c, &PolicyParams::new());\n\
             out.push(ProvenanceEvent::PolicyDecision { policy: d.policy.to_string() });\n\
             d.winner\n\
         }\n",
        // The legacy tailoring-policy shape takes an RNG, not params:
        // the choose-site leg does not apply.
        "fn pick(p: &mut dyn Policy, remaining: &[usize], rng: &mut R) -> usize {\n\
             p.choose(remaining, rng)\n\
         }\n",
    ] {
        let r = analyze_source("crates/serve/src/cache.rs", ok);
        assert!(
            !r.findings.iter().any(|f| f.rule == "R10"),
            "{ok:?} → {:#?}",
            r.findings
        );
    }

    // Bins, tests, and #[cfg(test)] regions are out of scope.
    let bad = "fn pick(p: &R, c: &[C]) -> Option<usize> {\n\
                   p.choose(c, &PolicyParams::new()).winner\n\
               }\n";
    for exempt in [
        "crates/bench/src/bin/policy_tool.rs",
        "crates/policy/tests/t.rs",
    ] {
        assert!(analyze_source(exempt, bad).findings.is_empty(), "{exempt}");
    }
    let in_test = format!("#[cfg(test)]\nmod tests {{\n{bad}}}\n");
    assert!(analyze_source("crates/serve/src/cache.rs", &in_test)
        .findings
        .is_empty());
}

#[test]
fn r12_per_tenant_wildcard_covers_ci_asserted_names() {
    // The per-tenant counter families are emitted through `format!`
    // literals (`serve.tenant.{t}.admitted`), declared as the same
    // pattern in METRIC_NAMES, and asserted concretely by CI
    // (`serve.tenant.alice.admitted`). Pin all three legs of the R12
    // matching so a rename in any one of them keeps being caught.
    use rdi_lint::workspace::{check_metrics, pattern_matches, Asserted, MetricDecl, MetricUse};

    assert!(pattern_matches(
        "serve.tenant.{t}.admitted",
        "serve.tenant.alice.admitted"
    ));
    assert!(!pattern_matches(
        "serve.tenant.{t}.admitted",
        "serve.tenant.alice.shed_quota"
    ));

    let uses = vec![MetricUse {
        file: "crates/serve/src/admit.rs".into(),
        line: 10,
        name: "serve.tenant.{t}.admitted".into(),
    }];
    let decls = vec![MetricDecl {
        file: "crates/obs/src/names.rs".into(),
        line: 5,
        name: "serve.tenant.{t}.admitted".into(),
    }];
    let asserted = vec![Asserted {
        file: ".github/workflows/ci.yml".into(),
        line: 40,
        name: "serve.tenant.alice.admitted".into(),
    }];
    assert!(
        check_metrics(&uses, &decls, &asserted).is_empty(),
        "wildcard use + pattern decl must satisfy a concrete CI assert"
    );

    // A concrete asserted name no wildcard produces must still fire.
    let orphan = vec![Asserted {
        file: ".github/workflows/ci.yml".into(),
        line: 41,
        name: "serve.tenant.alice.evicted".into(),
    }];
    let findings = check_metrics(&uses, &decls, &orphan);
    assert!(findings.iter().any(|f| f.rule == "R12"));
}
