//! repo-lint: offline static analysis for the workspace's prose invariants.
//!
//! The five rules encode invariants the test suite can only sample:
//!
//! | id | invariant |
//! |----|-----------|
//! | `panic-freedom` | no `unwrap`/`expect`/`panic!`/`unreachable!`/unchecked indexing on query, wire, or maintenance paths |
//! | `wire-tags` | every `Message` variant's `TAG_*` constant appears in `encode`, `decode`, the transport fuzz list, and the README protocol table; inner `CellOp`/`MetricValue` tags are named constants wired through both codec directions |
//! | `cache-invalidation` | every `&mut self` `CellSet` method touching `cells` calls `invalidate_caches()` |
//! | `float-ordering` | distance ordering uses `total_cmp`, never `partial_cmp` or `f64::max`/`min` |
//! | `metrics-registration` | metric names are registered exactly once, in the pre-registration block |
//!
//! Plus `allow-directive`, which polices the escape hatch itself: every
//! `// lint:allow(<rule>): <reason>` must be well-formed, carry a non-empty
//! reason, and actually suppress something.

pub mod lexer;
pub mod rules;

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use lexer::Lexed;
use rules::{RuleFinding, WireInputs};

/// `(id, description)` for every rule, in severity-agnostic display order.
pub const RULES: &[(&str, &str)] = &[
    (
        "panic-freedom",
        "no unwrap/expect/panic!/unreachable! or unchecked indexing on query/wire/maintenance paths",
    ),
    (
        "wire-tags",
        "every Message variant's TAG_* constant appears in encode, decode, the fuzz list, and the README table; inner CellOp/MetricValue tags are named and wired through both codec directions",
    ),
    (
        "cache-invalidation",
        "every &mut self CellSet method touching `cells` calls invalidate_caches()",
    ),
    (
        "float-ordering",
        "distance ordering uses total_cmp, never partial_cmp or f64::max/min",
    ),
    (
        "metrics-registration",
        "metric names are registered exactly once, in the pre-registration block",
    ),
    (
        "allow-directive",
        "lint:allow directives are well-formed, justified, and actually suppress a finding",
    ),
];

/// One reportable diagnostic.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    /// Path relative to the workspace root, forward slashes.
    pub path: String,
    pub line: u32,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Files on the panic-free query/wire/maintenance paths (L1 scope).
const L1_PATHS: &[&str] = &[
    "crates/multisource/src/message.rs",
    "crates/multisource/src/transport.rs",
    "crates/multisource/src/engine.rs",
    "crates/multisource/src/source.rs",
    "crates/multisource/src/api.rs",
    "crates/multisource/src/framework.rs",
    "crates/multisource/src/center.rs",
    "crates/dits/src/global.rs",
    "crates/dits/src/overlap.rs",
    "crates/dits/src/coverage.rs",
    "crates/dits/src/knn.rs",
    "crates/dits/src/bounds.rs",
    "crates/dits/src/codec.rs",
    "crates/dits/src/inverted.rs",
    "crates/dits/src/persist.rs",
    "crates/spatial/src/cellset.rs",
    "crates/spatial/src/distance.rs",
];

/// Files where float comparisons order *distances* (L4 scope).
const L4_PATHS: &[&str] = &[
    "crates/spatial/src/distance.rs",
    "crates/spatial/src/cellset.rs",
    "crates/dits/src/knn.rs",
    "crates/dits/src/bounds.rs",
    "crates/multisource/src/engine.rs",
    "crates/multisource/src/center.rs",
];

/// Files that may hold `obs` instrument handles (L5 scope).
const L5_PATHS: &[&str] = &[
    "crates/multisource/src/source.rs",
    "crates/multisource/src/engine.rs",
    "crates/multisource/src/center.rs",
    "crates/multisource/src/api.rs",
    "crates/multisource/src/framework.rs",
    "crates/multisource/src/transport.rs",
    "crates/obs/src/lib.rs",
    "crates/obs/src/metrics.rs",
    "crates/obs/src/trace.rs",
];

const CELLSET_PATH: &str = "crates/spatial/src/cellset.rs";
const MESSAGE_PATH: &str = "crates/multisource/src/message.rs";
const TRANSPORT_TESTS_PATH: &str = "crates/multisource/tests/transport.rs";
const OBS_METRICS_PATH: &str = "crates/obs/src/metrics.rs";
const README_PATH: &str = "README.md";

/// The per-file rules that apply to `rel` (wire-tags is handled separately).
fn applicable_rules(rel: &str) -> Vec<&'static str> {
    let mut v = Vec::new();
    if L1_PATHS.contains(&rel) {
        v.push("panic-freedom");
    }
    if L4_PATHS.contains(&rel) {
        v.push("float-ordering");
    }
    if rel == CELLSET_PATH {
        v.push("cache-invalidation");
    }
    if L5_PATHS.contains(&rel) {
        v.push("metrics-registration");
    }
    v
}

/// Runs all (or one) rule over the workspace at `root`.
///
/// With `only == Some(rule)`, unused-`lint:allow` accounting is skipped:
/// whether a directive is used depends on every rule having run.
pub fn analyze(root: &Path, only: Option<&str>) -> Result<Vec<Finding>, String> {
    if let Some(r) = only {
        if !RULES.iter().any(|(id, _)| *id == r) {
            return Err(format!(
                "unknown rule {r:?}; see --list-rules for the rule set"
            ));
        }
    }
    let enabled = |rule: &str| only.is_none() || only == Some(rule);

    // A scoped path that no longer exists would silently stop being linted.
    let mut missing: Vec<&str> = [L1_PATHS, L4_PATHS, L5_PATHS]
        .concat()
        .into_iter()
        .chain([
            CELLSET_PATH,
            MESSAGE_PATH,
            TRANSPORT_TESTS_PATH,
            OBS_METRICS_PATH,
        ])
        .filter(|rel| !root.join(rel).is_file())
        .collect();
    missing.sort_unstable();
    missing.dedup();
    if !missing.is_empty() {
        return Err(format!(
            "paths the rules are scoped to do not exist under {}: {}",
            root.display(),
            missing.join(", ")
        ));
    }

    let mut files = Vec::new();
    for top in ["crates", "src"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut files).map_err(|e| format!("walking {}: {e}", dir.display()))?;
        }
    }
    files.sort();

    // Cross-file inputs for the wire-tags rule.
    let transport_lexed: Option<Lexed> = if enabled("wire-tags") {
        read_rel(root, TRANSPORT_TESTS_PATH)?.map(|s| lexer::lex(&s))
    } else {
        None
    };
    let metrics_lexed: Option<Lexed> = if enabled("wire-tags") {
        read_rel(root, OBS_METRICS_PATH)?.map(|s| lexer::lex(&s))
    } else {
        None
    };
    let readme: Option<String> = if enabled("wire-tags") {
        read_rel(root, README_PATH)?
    } else {
        None
    };

    let mut findings = Vec::new();
    for path in &files {
        let rel = rel_path(root, path);
        let rules_here = applicable_rules(&rel);
        let is_message = rel == MESSAGE_PATH;
        if rules_here.iter().all(|r| !enabled(r)) && !(is_message && enabled("wire-tags")) {
            continue;
        }
        let src = fs::read_to_string(path).map_err(|e| format!("reading {rel}: {e}"))?;
        let lexed = lexer::lex(&src);

        let mut raw: Vec<(&'static str, RuleFinding)> = Vec::new();
        for rule in &rules_here {
            if !enabled(rule) {
                continue;
            }
            let found = match *rule {
                "panic-freedom" => rules::panic_freedom(&lexed),
                "float-ordering" => rules::float_ordering(&lexed),
                "cache-invalidation" => rules::cache_invalidation(&lexed),
                "metrics-registration" => rules::metrics_registration(&lexed),
                _ => Vec::new(),
            };
            raw.extend(found.into_iter().map(|f| (*rule, f)));
        }
        if is_message && enabled("wire-tags") {
            let inputs = WireInputs {
                message: &lexed,
                transport: transport_lexed.as_ref(),
                metrics: metrics_lexed.as_ref(),
                readme: readme.as_deref(),
            };
            raw.extend(
                rules::wire_tags(&inputs)
                    .into_iter()
                    .map(|f| ("wire-tags", f)),
            );
        }

        findings.extend(filter_allows(&lexed, raw, &rel, only.is_none()));
        if enabled("allow-directive") {
            for m in &lexed.malformed_allows {
                findings.push(Finding {
                    rule: "allow-directive",
                    path: rel.clone(),
                    line: m.line,
                    message: m.detail.clone(),
                });
            }
        }
    }
    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    Ok(findings)
}

/// Applies `lint:allow` suppression to one file's raw findings.  A directive
/// on line `L` covers findings on `L` (trailing comment) and `L + 1` (the
/// line below it).  When `report_unused` is set, directives that suppressed
/// nothing — or that name an unknown rule — become `allow-directive` findings.
pub fn filter_allows(
    lexed: &Lexed,
    raw: Vec<(&'static str, RuleFinding)>,
    rel: &str,
    report_unused: bool,
) -> Vec<Finding> {
    let mut used = vec![false; lexed.allows.len()];
    let mut out = Vec::new();
    for (rule, rf) in raw {
        let hit = lexed
            .allows
            .iter()
            .position(|a| a.rule == rule && (a.line == rf.line || a.line + 1 == rf.line));
        match hit {
            Some(i) => used[i] = true,
            None => out.push(Finding {
                rule,
                path: rel.to_string(),
                line: rf.line,
                message: rf.message,
            }),
        }
    }
    if report_unused {
        for (i, a) in lexed.allows.iter().enumerate() {
            if used[i] {
                continue;
            }
            let message = if RULES.iter().any(|(id, _)| *id == a.rule) {
                format!("lint:allow({}) suppresses nothing — remove it", a.rule)
            } else {
                format!("lint:allow names unknown rule {:?}", a.rule)
            };
            out.push(Finding {
                rule: "allow-directive",
                path: rel.to_string(),
                line: a.line,
                message,
            });
        }
    }
    out
}

fn read_rel(root: &Path, rel: &str) -> Result<Option<String>, String> {
    let path = root.join(rel);
    if !path.is_file() {
        return Ok(None);
    }
    fs::read_to_string(&path)
        .map(Some)
        .map_err(|e| format!("reading {rel}: {e}"))
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Recursively collects `.rs` files, skipping vendored code, build output,
/// lint fixtures, and VCS metadata.
fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), "vendor" | "target" | "fixtures" | ".git") {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace root: `--root` if given, else walk up from the current directory
/// to the first dir holding both `Cargo.toml` and `crates/`, else the
/// compile-time manifest location (stable inside this repo).
pub fn find_root(explicit: Option<&str>) -> PathBuf {
    if let Some(r) = explicit {
        return PathBuf::from(r);
    }
    if let Ok(mut cur) = std::env::current_dir() {
        loop {
            if cur.join("Cargo.toml").is_file() && cur.join("crates").is_dir() {
                return cur;
            }
            if !cur.pop() {
                break;
            }
        }
    }
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_scoping_targets_the_right_files() {
        let r = applicable_rules("crates/spatial/src/cellset.rs");
        assert!(r.contains(&"panic-freedom"));
        assert!(r.contains(&"float-ordering"));
        assert!(r.contains(&"cache-invalidation"));
        // The center's per-query planning is on the panic-free path too.
        for planning in [
            "crates/multisource/src/center.rs",
            "crates/dits/src/global.rs",
        ] {
            assert!(applicable_rules(planning).contains(&"panic-freedom"));
        }
        assert!(applicable_rules("crates/bench/src/lib.rs").is_empty());
        assert!(applicable_rules("crates/spatial/src/grid.rs").is_empty());
    }

    #[test]
    fn unknown_rule_filter_is_rejected() {
        assert!(analyze(Path::new("/nonexistent"), Some("no-such-rule")).is_err());
    }

    #[test]
    fn allow_directive_suppresses_same_and_next_line() {
        let src = "\
// lint:allow(panic-freedom): covered below
fn a(x: Option<u8>) -> u8 { x.unwrap() }
fn b(x: Option<u8>) -> u8 { x.unwrap() } // lint:allow(panic-freedom): trailing

fn c(x: Option<u8>) -> u8 { x.unwrap() }
";
        let lexed = lexer::lex(src);
        let raw: Vec<(&'static str, RuleFinding)> = rules::panic_freedom(&lexed)
            .into_iter()
            .map(|f| ("panic-freedom", f))
            .collect();
        let out = filter_allows(&lexed, raw, "f.rs", true);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 5);
    }

    #[test]
    fn unused_allow_is_reported() {
        let src = "// lint:allow(panic-freedom): nothing here to allow\nfn f() {}\n";
        let lexed = lexer::lex(src);
        let out = filter_allows(&lexed, Vec::new(), "f.rs", true);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "allow-directive");
    }
}
