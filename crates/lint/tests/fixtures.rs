//! End-to-end rule tests over the snippets in `tests/fixtures/` — one bad
//! snippet per rule, each asserting the finding lands on the exact line —
//! plus the whole-workspace integration check: the tree must be lint-clean.

use std::path::Path;

use lint::lexer;
use lint::rules::{self, WireInputs};
use lint::{analyze, filter_allows, find_root};

fn fixture(name: &str) -> lexer::Lexed {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading fixture {}: {e}", path.display()));
    lexer::lex(&src)
}

fn lines(findings: &[rules::RuleFinding]) -> Vec<u32> {
    findings.iter().map(|f| f.line).collect()
}

#[test]
fn panic_freedom_fixture_flags_each_idiom_on_its_line() {
    let found = rules::panic_freedom(&fixture("panic_freedom.rs"));
    // unwrap, expect, panic!, slice index.
    assert_eq!(lines(&found), vec![5, 6, 8, 10], "{found:?}");
}

#[test]
fn float_ordering_fixture_flags_fold_and_partial_cmp() {
    let found = rules::float_ordering(&fixture("float_ordering.rs"));
    assert_eq!(lines(&found), vec![4, 8], "{found:?}");
}

#[test]
fn cache_invalidation_fixture_flags_the_mutator_that_skips_invalidation() {
    let found = rules::cache_invalidation(&fixture("cache_invalidation.rs"));
    // Only `remove_last`: `insert` invalidates, `len` is `&self`, and
    // `invalidate_caches` itself is exempt.
    assert_eq!(lines(&found), vec![19], "{found:?}");
}

#[test]
fn metrics_registration_fixture_flags_dup_and_rogue_call() {
    let found = rules::metrics_registration(&fixture("metrics_registration.rs"));
    let mut got = lines(&found);
    got.sort_unstable();
    assert_eq!(got, vec![13, 19], "{found:?}");
}

#[test]
fn wire_tags_fixture_flags_missing_decode_arm_and_missing_constant() {
    let message = fixture("wire_tags.rs");
    let found = rules::wire_tags(&WireInputs {
        message: &message,
        transport: None,
        metrics: None,
        readme: None,
    });
    let mut got = lines(&found);
    got.sort_unstable();
    // Line 7: `TAG_PONG` never matched in `decode`; line 10: `OP_TAG_CLEAR`
    // reuses `OP_TAG_SET`'s value; line 11: `OP_TAG_DROP` never used in
    // `encode`; line 16: variant `Ack` has no wire-tag constant.
    assert_eq!(got, vec![7, 10, 11, 16], "{found:?}");
}

#[test]
fn allow_directive_fixture_suppresses_used_and_reports_unused() {
    let lexed = fixture("allow_directive.rs");
    let raw: Vec<_> = rules::panic_freedom(&lexed)
        .into_iter()
        .map(|f| ("panic-freedom", f))
        .collect();
    assert_eq!(
        raw.iter().map(|(_, f)| f.line).collect::<Vec<_>>(),
        vec![7, 15],
        "fixture must trigger exactly the two raw findings"
    );

    let out = filter_allows(&lexed, raw, "fixture.rs", true);
    // The directive on line 6 suppresses the unwrap on line 7.  The one on
    // line 10 suppresses nothing and is reported.  The one on line 14 has an
    // empty reason, so it is malformed — it does NOT suppress line 15.
    let summary: Vec<(&str, u32)> = out.iter().map(|f| (f.rule, f.line)).collect();
    assert!(summary.contains(&("panic-freedom", 15)), "{summary:?}");
    assert!(summary.contains(&("allow-directive", 10)), "{summary:?}");
    assert!(!summary.iter().any(|&(_, line)| line == 7), "{summary:?}");

    assert_eq!(
        lexed.malformed_allows.len(),
        1,
        "{:?}",
        lexed.malformed_allows
    );
    assert_eq!(lexed.malformed_allows[0].line, 14);
}

/// The tree itself must be lint-clean: every finding `analyze` produces is
/// fixed, so a new rule or a new scope lands clean.
#[test]
fn workspace_is_lint_clean() {
    let root = find_root(None);
    assert!(
        root.join("Cargo.toml").is_file() && root.join("crates").is_dir(),
        "workspace root not found from {}",
        root.display()
    );
    let findings = analyze(&root, None).expect("analyze workspace");
    let rendered: Vec<String> = findings.iter().map(|f| f.to_string()).collect();
    assert!(
        rendered.is_empty(),
        "workspace has lint findings:\n{}",
        rendered.join("\n")
    );
}

/// A path a rule is scoped to must exist: deleting or renaming the file has
/// to fail the run, not quietly drop the file from the rule's scope.
#[test]
fn analyze_names_every_scoped_path_missing_under_the_root() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("missing-scoped-path");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(root.join("crates")).unwrap();
    let scoped_paths = |err: &str| -> Vec<String> {
        err.split([' ', ','])
            .filter(|word| word.ends_with(".rs"))
            .map(str::to_string)
            .collect()
    };

    // An empty tree: every list is reported, each path once.
    let all = scoped_paths(&analyze(&root, None).unwrap_err());
    for expected in [
        "crates/multisource/src/engine.rs",
        "crates/multisource/src/center.rs",
        "crates/obs/src/trace.rs",
        "crates/spatial/src/cellset.rs",
        "crates/multisource/src/message.rs",
        "crates/multisource/tests/transport.rs",
        "crates/obs/src/metrics.rs",
    ] {
        assert_eq!(all.iter().filter(|p| *p == expected).count(), 1, "{all:?}");
    }

    // Everything present but one file: exactly that file is named, also
    // when a single rule is asked for.
    for rel in &all {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, "").unwrap();
    }
    assert!(analyze(&root, None).is_ok(), "a complete tree must analyze");
    std::fs::remove_file(root.join("crates/dits/src/knn.rs")).unwrap();
    for only in [None, Some("wire-tags")] {
        let err = analyze(&root, only).unwrap_err();
        assert_eq!(scoped_paths(&err), ["crates/dits/src/knn.rs"], "{err}");
    }
}
