#!/usr/bin/env bash
# Builds the servers (root workspace, root profile) and the benchmark client
# (this package, its own profile), then runs the client from the repository
# root with the arguments given.  `--help` lists them.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

if [[ ! -f Cargo.toml || ! -d crates/multisource ]]; then
    echo "benchmark/run.sh: no workspace next to benchmark/ - the benchmark builds source-server from the repository's source" >&2
    exit 3
fi

# Build output goes to stderr: stdout carries the benchmark's report only.
cargo build --release --offline -p multisource --bin source-server >&2
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2

servers="${CARGO_TARGET_DIR:-target}/release/source-server"
client="${CARGO_TARGET_DIR:-benchmark/target}/release/fedbench"
exec "$client" --server-bin "$servers" "$@"
