//! The fixture corpus: every rule fires on its failing fixture at an
//! exact `(rule, line, col)`, and stays silent on the passing twin.
//!
//! Fixtures live under `tests/fixtures/` — outside the `src/` trees that
//! [`sd_lint::walk`] scans — so the deliberately dirty ones never reach
//! the live gate. They are linted as if they sat in `sd-core`, the
//! strictest scope (every rule active).

use sd_lint::diagnostics::RuleId;
use sd_lint::engine::lint_source;

/// Lints a fixture as an sd-core source file and returns the surviving
/// findings as `(rule, line, col)` triples in reporting order.
fn findings(name: &str, src: &str) -> Vec<(RuleId, u32, u32)> {
    let file = format!("crates/core/src/{name}");
    let lint = lint_source(&file, "sd-core", src);
    lint.diagnostics
        .iter()
        .map(|d| (d.rule, d.line, d.col))
        .collect()
}

#[test]
fn d001_fires_on_hashmap_at_every_site() {
    let got = findings("d001_fail.rs", include_str!("fixtures/d001_fail.rs"));
    assert_eq!(
        got,
        vec![
            (RuleId::D001, 1, 23),
            (RuleId::D001, 3, 31),
            (RuleId::D001, 4, 19),
        ]
    );
}

#[test]
fn d001_accepts_btreemap() {
    let got = findings("d001_pass.rs", include_str!("fixtures/d001_pass.rs"));
    assert_eq!(got, vec![]);
}

#[test]
fn d002_fires_on_thread_rng() {
    let got = findings("d002_fail.rs", include_str!("fixtures/d002_fail.rs"));
    assert_eq!(got, vec![(RuleId::D002, 2, 25)]);
}

#[test]
fn d002_accepts_seeded_stdrng() {
    let got = findings("d002_pass.rs", include_str!("fixtures/d002_pass.rs"));
    assert_eq!(got, vec![]);
}

#[test]
fn d003_fires_on_instant_at_import_and_use() {
    let got = findings("d003_fail.rs", include_str!("fixtures/d003_fail.rs"));
    assert_eq!(got, vec![(RuleId::D003, 1, 16), (RuleId::D003, 4, 17)]);
}

#[test]
fn d003_accepts_clock_free_compute() {
    let got = findings("d003_pass.rs", include_str!("fixtures/d003_pass.rs"));
    assert_eq!(got, vec![]);
}

#[test]
fn d004_fires_on_raw_spawn_but_not_unwrap_or() {
    // `h.join().unwrap_or(0.0)` must NOT trip P001: `unwrap_or` is a
    // distinct identifier, not a sloppy `unwrap`.
    let got = findings("d004_fail.rs", include_str!("fixtures/d004_fail.rs"));
    assert_eq!(got, vec![(RuleId::D004, 4, 21)]);
}

#[test]
fn d004_accepts_parallel_map() {
    let got = findings("d004_pass.rs", include_str!("fixtures/d004_pass.rs"));
    assert_eq!(got, vec![]);
}

#[test]
fn p001_fires_on_unwrap_and_panic() {
    let got = findings("p001_fail.rs", include_str!("fixtures/p001_fail.rs"));
    assert_eq!(got, vec![(RuleId::P001, 2, 24), (RuleId::P001, 6, 5)]);
}

#[test]
fn p001_skips_test_regions() {
    let got = findings("p001_pass.rs", include_str!("fixtures/p001_pass.rs"));
    assert_eq!(got, vec![]);
}

#[test]
fn u001_fires_on_unsafe_block() {
    let got = findings("u001_fail.rs", include_str!("fixtures/u001_fail.rs"));
    assert_eq!(got, vec![(RuleId::U001, 2, 5)]);
}

#[test]
fn u001_accepts_safe_bit_casts() {
    let got = findings("u001_pass.rs", include_str!("fixtures/u001_pass.rs"));
    assert_eq!(got, vec![]);
}

#[test]
fn allow_directive_suppresses_and_is_counted() {
    let lint = lint_source(
        "crates/core/src/allow_pass.rs",
        "sd-core",
        include_str!("fixtures/allow_pass.rs"),
    );
    assert_eq!(lint.diagnostics, vec![], "the escape hatch suppresses");
    assert_eq!(lint.suppressed.len(), 1, "but the debt stays visible");
    assert_eq!(lint.suppressed[0].rule, RuleId::P001);
    assert_eq!(lint.allows.len(), 1);
    assert!(lint.allows[0].used);
    assert_eq!(lint.allows[0].reason, "fixture exercises the escape hatch");
}

#[test]
fn malformed_allow_is_a_hard_failure() {
    let got = findings(
        "allow_malformed.rs",
        include_str!("fixtures/allow_malformed.rs"),
    );
    assert_eq!(got, vec![(RuleId::A000, 1, 1)], "missing reason -> A000");
}

#[test]
fn bench_scope_drops_determinism_rules_but_not_panic_hygiene() {
    let src = include_str!("fixtures/d002_fail.rs");
    let lint = lint_source("crates/bench/src/lib.rs", "sd-bench", src);
    assert_eq!(lint.diagnostics, vec![], "sd-bench may use entropy");
    let p001 = include_str!("fixtures/p001_fail.rs");
    let lint = lint_source("crates/bench/src/lib.rs", "sd-bench", p001);
    assert_eq!(lint.diagnostics.len(), 2, "P001 still applies in sd-bench");
}

#[test]
fn d004_approves_the_serve_shard_module() {
    // The exact spawn idiom the serving layer uses — Builder named thread
    // plus the P001 allow on the expect — is clean *in the approved file*.
    let lint = lint_source(
        "crates/serve/src/shard.rs",
        "sd-serve",
        include_str!("fixtures/serve_spawn_pass.rs"),
    );
    assert_eq!(lint.diagnostics, vec![]);
    assert_eq!(lint.suppressed.len(), 1, "the P001 allow stays visible");
    assert_eq!(lint.suppressed[0].rule, RuleId::P001);
}

#[test]
fn d004_fires_on_spawn_elsewhere_in_the_serve_crate() {
    // The same crate gets no blanket pass: a raw spawn in any other
    // sd-serve module is a finding at the exact spawn token.
    let lint = lint_source(
        "crates/serve/src/service.rs",
        "sd-serve",
        include_str!("fixtures/serve_spawn_fail.rs"),
    );
    let got: Vec<_> = lint
        .diagnostics
        .iter()
        .map(|d| (d.rule, d.line, d.col))
        .collect();
    assert_eq!(got, vec![(RuleId::D004, 4, 13)]);
}

#[test]
fn d004_still_approves_the_runner_file() {
    // Extending the approved list must not un-approve the original
    // parallel_map site.
    let lint = lint_source(
        "crates/core/src/runner.rs",
        "sd-core",
        include_str!("fixtures/serve_spawn_fail.rs"),
    );
    assert_eq!(lint.diagnostics, vec![]);
}
