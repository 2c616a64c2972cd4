#!/usr/bin/env bash
# Tier-1 gate plus lint checks. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

# `default-members` puts every crate in the workspace under these two
# commands: the build produces `repro`, and the tests include every
# crate's suites plus `crates/bench/tests/repro_artifacts.rs`, which runs
# `repro` end to end and checks the metrics, trace, report, CSV and alert
# egress artifacts it writes.
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

echo "== warm-start equivalence and NIDS decomposition vs oracle (thread counts 1 and 4) =="
# The warm-start layer must be objective-invariant regardless of the
# parallel fan-out width; the test itself also flips thread counts
# internally, so both env settings double-cover the contract. The
# Dantzig-Wolfe NIDS solve must match the simplex oracle's objective and
# give bit-identical manifests at either width.
NWDP_THREADS=1 cargo test -q --test warmstart_equivalence
NWDP_THREADS=4 cargo test -q --test warmstart_equivalence
NWDP_THREADS=1 cargo test -q --test nids_dw_oracle
NWDP_THREADS=4 cargo test -q --test nids_dw_oracle

# The decomposition's masters grow in place (`nwdp_lp::RestrictedMaster`):
# every re-optimization must match a cold solve of the same LP. At paper
# scale (the `repro opt-time` Waxman 50 instance), three pool-chained
# re-solves must keep their overlap phase (no fallback) and move at most
# a tenth of the hash space per swap; the test is ignored in tier-1
# because it takes about ten seconds in release.
echo "== in-place master and paper-scale sticky re-solves =="
cargo test -q --release -p nwdp-lp --test master
cargo test -q --release -p nwdp-bench --test paper_scale -- --ignored

echo "== resilience suites (thread counts 1 and 4) =="
# Manifest repair and the resilient replay must be bit-identical under any
# fan-out width: the property suite checks repaired manifests (zero gap,
# no overlap, load within the greedy bound) and the engine suite checks
# end-to-end alert recovery after single-node crashes.
NWDP_THREADS=1 cargo test -q -p nwdp-engine --test resilience
NWDP_THREADS=4 cargo test -q -p nwdp-engine --test resilience
NWDP_THREADS=1 cargo test -q --test proptest_resilience
NWDP_THREADS=4 cargo test -q --test proptest_resilience

# Repair code must never unwrap a hash-range lookup: a missing
# (unit, node) entry is a legal state (node not assigned, node failed),
# not a bug to panic on. Same rule for the resilience library sources and
# for the coverage sweep, load formula and moved-fraction code repair
# relies on (test modules below #[cfg(test)] are exempt, as in the NaN
# lint).
echo "== resilience panic-path grep lint =="
range_hits="$(grep -rnE '\.range\([^)]*\)[[:space:]]*\.(unwrap|expect)\(' crates/ src/ --include='*.rs' | grep -vE '^[^:]*:[0-9]+:[[:space:]]*//' || true)"
if [ -n "$range_hits" ]; then
  echo "found unwrap()/expect() on Option<&RangeSet> lookups:" >&2
  echo "$range_hits" >&2
  exit 1
fi
res_hits="$(for f in crates/core/src/resilience/*.rs crates/core/src/nids/manifest.rs \
  crates/core/src/migration.rs; do
  awk '/#\[cfg\(test\)\]/{exit} /\.(unwrap|expect)\(/ && $0 !~ /^[[:space:]]*\/\//{print FILENAME":"FNR": "$0}' "$f"
done)"
if [ -n "$res_hits" ]; then
  echo "found unwrap()/expect() in resilience or repair-path library code:" >&2
  echo "$res_hits" >&2
  exit 1
fi
echo "resilience lint OK"

echo "== fmt =="
cargo fmt --check

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

# Diagnostics in the solver crates must go through the structured trace
# layer (obs::trace_event!/span!), never bare eprintln!: trace events are
# env-gated (zero output and ~zero cost when off) and machine-parseable.
# Comment lines are exempt (docs may mention the pattern).
echo "== eprintln grep lint (lp, core) =="
eprintln_hits="$(grep -rn 'eprintln!' crates/lp/src crates/core/src --include='*.rs' \
  | grep -vE '^[^:]*:[0-9]+:[[:space:]]*(//|///|//!)' || true)"
if [ -n "$eprintln_hits" ]; then
  echo "found bare eprintln! in solver library code (use obs::trace_event!):" >&2
  echo "$eprintln_hits" >&2
  exit 1
fi
echo "eprintln lint OK"

# Streaming data plane: the sharded stream must stay bit-identical to the
# batch replay at any thread/shard count (the equivalence suite pins the
# full RunStats, the bench asserts it again internally), and the golden
# data-plane constants, `STREAM_RELOAD` included, must hold whichever
# threads replay the routed chunks.
echo "== streaming equivalence (thread counts 1 and 4) =="
NWDP_THREADS=1 cargo test -q --test parallel_equivalence
NWDP_THREADS=4 cargo test -q --test parallel_equivalence
NWDP_THREADS=1 cargo test -q --test golden_dataplane
NWDP_THREADS=4 cargo test -q --test golden_dataplane

# Distributed control plane: the cluster suites must hold at 1 and 4
# threads (full-run bit-equality incl. the delivery-schedule fingerprint).
echo "== distributed control-plane suites (thread counts 1 and 4) =="
NWDP_THREADS=1 cargo test -q -p nwdp-engine --test cluster
NWDP_THREADS=4 cargo test -q -p nwdp-engine --test cluster
NWDP_THREADS=1 cargo test -q --test proptest_cluster
NWDP_THREADS=4 cargo test -q --test proptest_cluster

# Production alert plane: detections must leave the engine only through
# the structured alert pipeline (no direct stdout/stderr writes anywhere
# in the data plane), and the alert property suite must hold at 1 and 4
# threads.
echo "== alert plane gate =="
engine_print_hits="$(grep -rnE '(^|[^a-zA-Z_])(eprintln!|println!|print!)\(' crates/engine/src --include='*.rs' \
  | grep -vE '^[^:]*:[0-9]+:[[:space:]]*(//|///|//!)' || true)"
if [ -n "$engine_print_hits" ]; then
  echo "found direct stdout/stderr writes in the engine (emit structured alerts/trace events):" >&2
  echo "$engine_print_hits" >&2
  exit 1
fi
NWDP_THREADS=1 cargo test -q --test proptest_alerts
NWDP_THREADS=4 cargo test -q --test proptest_alerts

echo "CI OK"
