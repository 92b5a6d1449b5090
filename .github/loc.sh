#!/usr/bin/env bash
# Lines of tracked Rust, by the ROADMAP item 8 reporting method: the total
# outside benchmark/ (the PR 14 method) and, for every tracked .rs file that
# differs from BASE, the lines before its first `#[cfg(test)]` at BASE and
# now — so code moved into a test module does not read as code removed.
#
# Usage: .github/loc.sh [BASE]     (BASE defaults to HEAD~1)
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
base="${1:-HEAD~1}"

# Lines of tracked .rs files outside benchmark/, in the working tree or at a commit.
total() { git grep -c '' "$@" -- '*.rs' ':!benchmark/' | awk -F: '{ n += $NF } END { print n }'; }
before_tests() { awk '/^[[:space:]]*#\[cfg\(test\)\]/ { print NR - 1; found = 1; exit } END { if (!found) print NR }'; }

echo "tracked Rust outside benchmark/: $(total) lines"
if ! git rev-parse --verify --quiet "$base^{commit}" >/dev/null; then
    echo "(no $base to compare with: per-file lines skipped)"
    exit 0
fi
echo "tracked Rust outside benchmark/ at $base: $(total "$base") lines"
echo "lines before the first #[cfg(test)], $base -> working tree:"
git diff --name-only "$base" -- '*.rs' | while read -r f; do
    old=$(git show "$base:$f" 2>/dev/null | before_tests || true)
    new=$([ -f "$f" ] && before_tests < "$f" || echo 0)
    printf '  %-48s %5s -> %5s\n' "$f" "${old:-0}" "$new"
done
