//! Distances are ordered with `f64::total_cmp`.  `f64::max` and `f64::min`
//! drop a NaN operand, so the non-test code of the files that rank distances
//! must not name them.  Min/max on coordinates elsewhere is fine, and
//! clippy's `disallowed-methods` cannot be scoped to files, so this half of
//! the rule is a test; `partial_cmp` is banned everywhere by `clippy.toml`.

use std::path::Path;

/// The distance kernels, kNN and the engine's and the center's rankings.
const DISTANCE_ORDERING_FILES: [&str; 6] = [
    "crates/spatial/src/distance.rs",
    "crates/spatial/src/cellset.rs",
    "crates/dits/src/knn.rs",
    "crates/dits/src/bounds.rs",
    "crates/multisource/src/engine.rs",
    "crates/multisource/src/center.rs",
];

#[test]
fn distance_ordering_code_names_neither_f64_max_nor_f64_min() {
    for path in DISTANCE_ORDERING_FILES {
        let file = Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
        let text = std::fs::read_to_string(file).unwrap_or_else(|e| panic!("{path}: {e}"));
        // A file's tests start at its first `#[cfg(test)]`.
        let code = text.split("#[cfg(test)]").next().unwrap_or_default();
        for (i, line) in code.lines().enumerate() {
            let code = line.split("//").next().unwrap_or_default();
            for banned in ["f64::max", "f64::min"] {
                assert!(
                    !code.contains(banned),
                    "{path}:{}: `{banned}` drops NaN operands; order with `total_cmp`",
                    i + 1
                );
            }
        }
    }
}
