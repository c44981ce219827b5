#!/usr/bin/env bash
# Build cqd2-serve from this checkout and the benchmark beside it, then
# run the benchmark against the server binary. Arguments pass through:
#   bash servebench/run.sh --workload warm-read --seed 1 --seconds 12 --trace 0
# Build output goes to standard error; the result is the last line of
# standard output. Run from the repository root.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p cqd2 --features serde --bin cqd2-serve >&2
cargo build --release --offline --quiet --manifest-path servebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/cqd2-servebench" \
  --server "$CARGO_TARGET_DIR/release/cqd2-serve" \
  --work-dir "$CARGO_TARGET_DIR/servebench" "$@"
