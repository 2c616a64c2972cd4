#!/usr/bin/env bash
# Tier-1 gate plus lint checks. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

# `default-members` puts every crate in the workspace under these two
# commands: the build produces `repro`, and the tests include every
# crate's suites plus `crates/bench/tests/repro_artifacts.rs`, which runs
# `repro` end to end and checks the metrics, trace, report, CSV and alert
# egress artifacts it writes. Thread-count invariance is checked there
# too: every test that reaches a parallel fan-out runs its body at 1 and
# 4 threads (`tests/common/threads.rs`), so no step below reruns a suite
# under `NWDP_THREADS`.
echo "== build (release) =="
cargo build --release

echo "== tests =="
cargo test -q

# Obs and bench unit tests each record under their own `obs::Recorder`,
# with no shared lock; 20 runs at 8 test threads catch one that leaks.
echo "== obs/bench isolation stress (20 runs, 8 test threads) =="
for _ in $(seq 20); do
  cargo test -q -p nwdp-obs -p nwdp-bench --lib -- --test-threads 8
done

# The benchmark is its own cargo package built from these crates by path;
# build it and run its unit tests so a solver API change that breaks it
# fails here rather than in the benchmark run.
echo "== perfbench build + unit tests =="
cargo test --release --offline --manifest-path perfbench/Cargo.toml

# The decomposition's masters grow in place (`nwdp_lp::RestrictedMaster`):
# every re-optimization must match a cold solve of the same LP. At paper
# scale (the `repro opt-time` Waxman 50 instance), three pool-chained
# re-solves must keep their overlap phase (no fallback) and move at most
# a tenth of the hash space per swap; the test is ignored in tier-1
# because it takes about ten seconds in release.
echo "== in-place master and paper-scale sticky re-solves =="
cargo test -q --release -p nwdp-lp --test master
cargo test -q --release -p nwdp-bench --test paper_scale -- --ignored

# Code must never unwrap a hash-range lookup, test code included: a
# missing (unit, node) entry is a legal state (node not assigned, node
# failed), not a bug to panic on. (Unwraps elsewhere in library code fail
# the panic-path clippy step below.)
echo "== range-lookup panic-path grep lint =="
range_hits="$(grep -rnE '\.range\([^)]*\)[[:space:]]*\.(unwrap|expect)\(' crates/ src/ --include='*.rs' | grep -vE '^[^:]*:[0-9]+:[[:space:]]*//' || true)"
if [ -n "$range_hits" ]; then
  echo "found unwrap()/expect() on Option<&RangeSet> lookups:" >&2
  echo "$range_hits" >&2
  exit 1
fi
echo "range-lookup lint OK"

echo "== fmt =="
cargo fmt --check

# Besides the default lints this enforces the `print_stdout` and
# `print_stderr` denials of nwdp-lp, nwdp-core and nwdp-engine: their
# diagnostics and detections leave through nwdp-obs (trace events,
# structured alerts), never through a bare print.
echo "== clippy =="
cargo clippy --all-targets -- -D warnings

# Library code must not panic on fallible paths: unwrap/expect fail the
# build there. A site that cannot fail carries
# #[expect(clippy::..., reason = "...")] naming its invariant. --lib keeps
# #[cfg(test)] modules, test targets, benches and binaries exempt (unwrap
# in tests is idiomatic).
echo "== clippy (panic-path lint, library crates) =="
cargo clippy --lib -p nwdp -p nwdp-core -p nwdp-lp -p nwdp-engine \
  -p nwdp-online -p nwdp-obs -p nwdp-topo -p nwdp-traffic -p nwdp-hash -- \
  -D clippy::unwrap_used -D clippy::expect_used

# NaN-hostile comparisons must stay purged: no float sort/max may panic on
# a non-finite value. Doc comments may mention the old patterns (the
# regression tests document them), so comment lines are excluded.
echo "== NaN-panic grep lint =="
nan_hits="$(grep -rnE '\.partial_cmp\([^)]*\)[[:space:]]*\.?(unwrap|expect)|\.expect\("[^"]*NaN' crates/ --include='*.rs' | grep -vE '^[^:]*:[0-9]+:[[:space:]]*//' || true)"
if [ -n "$nan_hits" ]; then
  echo "found partial_cmp().unwrap()/NaN-expect in library code:" >&2
  echo "$nan_hits" >&2
  exit 1
fi
echo "NaN lint OK"

echo "CI OK"
