//! detlint's own test suite: every rule proven to fire at the right line
//! on a bad fixture, suppression/justification round-trips, and the
//! committed workspace linting clean.

use detlint::check_source;
use detlint::config::{self, Config};
use detlint::report::Rule;

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{}", env!("CARGO_MANIFEST_DIR"), name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

/// The strictest classification: state-bearing crate, file on the D005
/// hot path, no allowlists.
fn strict_cfg(hot_path: &str) -> Config {
    let mut cfg = Config::default();
    cfg.hot_paths
        .insert("D005".to_string(), vec![hot_path.to_string()]);
    cfg
}

fn lines_of(diags: &[detlint::report::Diagnostic], rule: Rule) -> Vec<u32> {
    diags
        .iter()
        .filter(|d| d.rule == rule)
        .map(|d| d.line)
        .collect()
}

// ---------------------------------------------------------------- rules

#[test]
fn d001_fires_on_hash_containers_in_state_bearing_crates() {
    let src = fixture("violations/d001.rs");
    let diags = check_source("crates/core/src/bad.rs", &src, &Config::default());
    assert_eq!(lines_of(&diags, Rule::D001), vec![4, 7, 10, 11]);

    // The same file in a non-state-bearing crate: no D001.
    let diags = check_source("crates/bench/src/bad.rs", &src, &Config::default());
    assert_eq!(lines_of(&diags, Rule::D001), Vec::<u32>::new());
}

#[test]
fn d002_fires_on_hash_iteration_but_not_point_lookups() {
    let src = fixture("violations/d002.rs");
    let diags = check_source("crates/bench/src/bad.rs", &src, &Config::default());
    assert_eq!(lines_of(&diags, Rule::D002), vec![11, 15, 19]);
}

#[test]
fn d002_fires_even_in_test_code() {
    // Hash iteration in tests makes assertions flaky; unlike D003–D005
    // there is no test exemption.
    let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    fn f(m: &HashMap<u32, u32>) -> u32 {\n        m.values().sum()\n    }\n}\n";
    let diags = check_source("crates/bench/src/x.rs", src, &Config::default());
    assert_eq!(lines_of(&diags, Rule::D002), vec![5]);
}

#[test]
fn d003_fires_on_wall_clock_and_entropy() {
    let src = fixture("violations/d003.rs");
    let diags = check_source("crates/simcore/src/bad.rs", &src, &Config::default());
    assert_eq!(lines_of(&diags, Rule::D003), vec![6, 7, 8]);
}

#[test]
fn d003_respects_the_allowlist_path() {
    let src = fixture("violations/d003.rs");
    let mut cfg = Config::default();
    cfg.allow_paths.insert(
        "D003".to_string(),
        vec!["crates/bench/src/cli.rs".to_string()],
    );
    let diags = check_source("crates/bench/src/cli.rs", &src, &cfg);
    assert_eq!(lines_of(&diags, Rule::D003), Vec::<u32>::new());
}

#[test]
fn d004_fires_on_env_reads() {
    let src = fixture("violations/d004.rs");
    let diags = check_source("crates/workload/src/bad.rs", &src, &Config::default());
    assert_eq!(lines_of(&diags, Rule::D004), vec![4, 8]);
}

#[test]
fn d005_fires_on_hot_path_panics_only_outside_tests() {
    let src = fixture("violations/d005.rs");
    let path = "crates/cluster/src/world.rs";
    let diags = check_source(path, &src, &strict_cfg(path));
    assert_eq!(lines_of(&diags, Rule::D005), vec![5, 6, 8]);

    // The same file off the hot path: no D005.
    let diags = check_source("crates/cluster/src/node.rs", &src, &strict_cfg(path));
    assert_eq!(lines_of(&diags, Rule::D005), Vec::<u32>::new());
}

#[test]
fn clean_fixture_is_clean_under_the_strictest_classification() {
    let src = fixture("clean/ok.rs");
    let path = "crates/cluster/src/world.rs";
    let diags = check_source(path, &src, &strict_cfg(path));
    assert_eq!(diags, Vec::new(), "clean fixture produced findings");
}

#[test]
fn integration_test_paths_are_exempt_from_d003_to_d005_but_not_d002() {
    let src = "use std::time::Instant;\nfn t() -> f64 { Instant::now().elapsed().as_secs_f64() }\n";
    let diags = check_source("crates/cluster/tests/world_api.rs", src, &Config::default());
    assert_eq!(diags, Vec::new());

    let src =
        "use std::collections::HashMap;\nfn f(m: &HashMap<u32, u32>) -> u32 { m.values().sum() }\n";
    let diags = check_source("crates/bench/tests/smoke.rs", src, &Config::default());
    assert_eq!(lines_of(&diags, Rule::D002), vec![2]);
}

// --------------------------------------------------------- suppressions

#[test]
fn justified_allows_suppress_their_findings() {
    let src = fixture("violations/suppressed.rs");
    let path = "crates/cluster/src/cache.rs";
    let diags = check_source(path, &src, &strict_cfg(path));
    assert_eq!(diags, Vec::new(), "justified allows must suppress cleanly");
}

#[test]
fn removing_a_justification_makes_the_allow_an_error() {
    // The acceptance-criterion case: strip one justification from a
    // state-bearing crate's allow and the check must fail.
    let src = fixture("violations/suppressed.rs").replace(
        "detlint::allow(D001, \"insertion-order map is fine here: iteration never happens and lookups dominate\")",
        "detlint::allow(D001)",
    );
    let path = "crates/cluster/src/cache.rs";
    let diags = check_source(path, &src, &strict_cfg(path));
    // The bare allow is a D000 *and* the no-longer-suppressed D001
    // resurfaces.
    assert_eq!(lines_of(&diags, Rule::D000), vec![5]);
    assert_eq!(lines_of(&diags, Rule::D001), vec![6]);
}

#[test]
fn malformed_and_unknown_allows_are_d000() {
    let cases = [
        "// detlint::allow(D003)\nfn f() {}\n",
        "// detlint::allow(D003, \"\")\nfn f() {}\n",
        "// detlint::allow(D003, \" \")\nfn f() {}\n",
        "// detlint::allow(D999, \"no such rule\")\nfn f() {}\n",
        "// detlint::allow(D000, \"meta-rule cannot be allowed\")\nfn f() {}\n",
        "// detlint::allow(D003, \"trailing garbage\") extra\nfn f() {}\n",
    ];
    for src in cases {
        let diags = check_source("crates/bench/src/x.rs", src, &Config::default());
        assert_eq!(lines_of(&diags, Rule::D000), vec![1], "case: {src}");
    }
}

#[test]
fn unused_allows_are_d000() {
    let src = "// detlint::allow(D003, \"nothing here actually reads a clock\")\nfn f() {}\n";
    let diags = check_source("crates/bench/src/x.rs", src, &Config::default());
    assert_eq!(lines_of(&diags, Rule::D000), vec![1]);
    assert!(diags[0].message.contains("unused suppression"));
}

#[test]
fn prose_about_the_syntax_is_not_a_suppression() {
    let src = "//! The syntax is `// detlint::allow(D003, \"why\")` on a line.\nfn f() {}\n";
    let diags = check_source("crates/bench/src/x.rs", src, &Config::default());
    assert_eq!(diags, Vec::new());
}

#[test]
fn stacked_standalone_allows_cover_the_next_code_line() {
    // Two different rules fire on line 4; the two standalone allows above
    // it each resolve to that line, so both findings are suppressed and
    // neither allow counts as unused.
    let src = "fn f() -> f64 {\n\
               \x20   // detlint::allow(D003, \"fixture: timing justified\")\n\
               \x20   // detlint::allow(D004, \"fixture: env justified\")\n\
               \x20   let _e = std::env::var(\"X\"); std::time::Instant::now().elapsed().as_secs_f64()\n\
               }\n";
    let diags = check_source("crates/core/src/x.rs", src, &Config::default());
    assert_eq!(diags, Vec::new());
}

// ---------------------------------------------------- whole-repo dogfood

/// The committed workspace must be clean under the committed config —
/// the same invariant CI enforces.
#[test]
fn committed_workspace_is_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root");
    let cfg_src = std::fs::read_to_string(root.join("detlint.toml")).expect("detlint.toml");
    let cfg = config::parse(&cfg_src).expect("detlint.toml parses");
    let diags = detlint::check_workspace(root, &cfg).expect("walk");
    assert_eq!(
        diags,
        Vec::new(),
        "determinism findings in the committed tree"
    );
}
