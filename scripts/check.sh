#!/usr/bin/env bash
# Pre-PR gate: run the same sequence CI expects. Fails fast.
#   scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> xlint (house invariants: determinism, clamped parallelism, typed serve errors)"
cargo run --release --quiet --bin kgpip-cli -- xlint

echo "==> cargo test"
cargo test --workspace -q

echo "==> cargo bench --no-run (kernel changes must keep benches compiling)"
cargo bench --workspace --no-run

echo "==> determinism suite (parallel engine bit-for-bit reproducibility; sampling engine ≡ tape oracle ≡ golden fixture)"
cargo test -p kgpip-graphgen --test determinism -q
cargo test -p kgpip-graphgen --lib oracle_ -q
cargo test -p kgpip-graphgen --test props -q
cargo test -p kgpip-nn --test props -q
cargo test -p kgpip-learners --test gbt_determinism -q
cargo test -p kgpip --test mining_determinism -q

echo "==> chunked-identity suite (chunking changes cost, never results)"
cargo test -p kgpip-tabular --test chunked_identity -q
cargo test -p kgpip-learners --test gbt_chunked -q

echo "==> similarity-tier suite (HNSW determinism; mapped ≡ owned; recall gate)"
cargo test -p kgpip-embeddings --test hnsw -q
cargo test -p kgpip-benchdata --test recall -q

echo "==> product-quantization suite (rerank ≡ exact; codebooks bit-stable across workers; .kgvi PQ round-trip)"
cargo test -p kgpip-embeddings --test pq -q

echo "==> cache-equivalence suite (trial caches change cost, never results)"
cargo test -p kgpip-hpo --test cache_equivalence -q

echo "==> artifact suite (snapshot round-trips bit-for-bit; decoders are total over hostile bytes; serving is bit-identical to direct prediction)"
cargo test -p kgpip --test snapshot_roundtrip -q
cargo test -p kgpip-embeddings --lib codec:: -q
cargo test -p kgpip --test hostile_bytes -q
cargo test -p kgpip-serve -q

echo "==> lint-corpus (fixed-seed graph invariant gate)"
cargo run --release --quiet --bin kgpip-cli -- lint-corpus \
  --datasets 4 --scripts-per-dataset 50 --seed 0 \
  --malformed-fraction 0.05 --helper-fraction 0.25

echo "All checks passed."
