#!/usr/bin/env bash
# Tier-1 gate plus lint checks. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "== build (release) =="
cargo build --release

echo "== tests =="
cargo test -q

# Tier-1 runs only the root package. The solver's own suites (simplex,
# warm start, dual phase, large sparse, LP properties, flow vs simplex),
# the NIDS/NIPS unit tests, and the engine's unit tests and suites
# (equivalence, modules, overhead, robustness, resilience, cluster) live
# in these three crates.
echo "== solver, core and engine suites =="
cargo test -q --release -p nwdp-lp -p nwdp-core -p nwdp-engine

# The benchmark is its own cargo package built from these crates by path;
# build it and run its unit tests so a solver API change that breaks it
# fails here rather than in the benchmark run.
echo "== perfbench build + unit tests =="
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== warm-start equivalence (thread counts 1 and 4) =="
# The warm-start layer must be objective-invariant regardless of the
# parallel fan-out width; the test itself also flips thread counts
# internally, so both env settings double-cover the contract.
NWDP_THREADS=1 cargo test -q --test warmstart_equivalence
NWDP_THREADS=4 cargo test -q --test warmstart_equivalence

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
# not a bug to panic on. Same rule for the resilience library sources
# (test modules below #[cfg(test)] are exempt, as in the NaN lint).
echo "== resilience panic-path grep lint =="
range_hits="$(grep -rnE '\.range\([^)]*\)[[:space:]]*\.(unwrap|expect)\(' crates/ src/ --include='*.rs' | grep -vE '^[^:]*:[0-9]+:[[:space:]]*//' || true)"
if [ -n "$range_hits" ]; then
  echo "found unwrap()/expect() on Option<&RangeSet> lookups:" >&2
  echo "$range_hits" >&2
  exit 1
fi
res_hits="$(for f in crates/core/src/resilience/*.rs; do
  awk '/#\[cfg\(test\)\]/{exit} /\.(unwrap|expect)\(/ && $0 !~ /^[[:space:]]*\/\//{print FILENAME":"FNR": "$0}' "$f"
done)"
if [ -n "$res_hits" ]; then
  echo "found unwrap()/expect() in resilience library code:" >&2
  echo "$res_hits" >&2
  exit 1
fi
echo "resilience lint OK"

echo "== fmt =="
cargo fmt --check

echo "== clippy =="
cargo clippy --all-targets -- -D warnings

# Library code must not panic on fallible paths; surface unwrap/expect as
# warnings there. --lib keeps #[cfg(test)] modules, test targets, benches
# and binaries exempt (unwrap in tests is idiomatic).
echo "== clippy (panic-path lint, library crates) =="
cargo clippy --lib -p nwdp -p nwdp-core -p nwdp-lp -p nwdp-engine \
  -p nwdp-online -p nwdp-obs -p nwdp-topo -p nwdp-traffic -p nwdp-hash -- \
  -W clippy::unwrap_used -W clippy::expect_used

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

echo "== metrics + trace smoke =="
metrics_tmp="$(mktemp -d)"
trap 'rm -rf "$metrics_tmp"' EXIT
NWDP_TRACE="$metrics_tmp/trace.jsonl" ./target/release/repro --quick --fig 5 \
  --metrics-out "$metrics_tmp/metrics.json" --out "$metrics_tmp/results" \
  > /dev/null
python3 - "$metrics_tmp/metrics.json" <<'PY'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["version"] == 1, d.get("version")
c = d["counters"]
for key in ("simplex.solves", "simplex.iterations", "round.trials", "rowgen.solves"):
    assert c.get(key, 0) > 0, f"missing or zero counter: {key}"
assert any(k.startswith("engine.packets{") and v > 0 for k, v in c.items()), \
    "no per-node engine packet counters"
for name, h in d.get("histograms", {}).items():
    for q in ("p50", "p95", "p99"):
        assert q in h, f"histogram {name} lacks {q}"
print(f"metrics smoke OK ({len(c)} counters)")
PY
python3 - "$metrics_tmp/trace.jsonl" <<'PY'
import json, sys
open_ids, spans, events = set(), 0, 0
with open(sys.argv[1]) as f:
    for n, line in enumerate(f, 1):
        rec = json.loads(line)  # every journal line must be valid JSON
        ev = rec["ev"]
        if ev == "B":
            assert rec["id"] not in open_ids, f"line {n}: duplicate span id"
            open_ids.add(rec["id"])
            spans += 1
        elif ev == "E":
            assert rec["id"] in open_ids, f"line {n}: close without open"
            open_ids.discard(rec["id"])
        elif ev == "I":
            events += 1
        else:
            raise AssertionError(f"line {n}: unknown record type {ev!r}")
assert not open_ids, f"unbalanced journal: {len(open_ids)} spans left open"
assert spans > 0, "journal recorded no spans"
print(f"trace journal OK ({spans} spans, {events} events, balanced)")
PY
./target/release/repro report --trace "$metrics_tmp/trace.jsonl" \
  --metrics "$metrics_tmp/metrics.json" > "$metrics_tmp/report.txt"
grep -q "phase breakdown" "$metrics_tmp/report.txt"
grep -q "hottest spans" "$metrics_tmp/report.txt"
grep -q "warm-start hit rates" "$metrics_tmp/report.txt"
echo "repro report OK"

# The NIDS upgrade sweep used to reject all of its warm bases (the 0.96x
# negative row in EXPERIMENTS.md); the dual simplex phase repairs them.
# Guard the repaired behavior: every warm attempt in that loop must be
# accepted, none may fall back cold, and the warm pass must spend fewer
# simplex iterations than cold. The gate parses the per-loop columns of
# the warm-start CSV rather than global counters, so the FPL and rounding
# loops in the same run can't contaminate the assertion.
echo "== dual-phase warm-start gate (NIDS upgrade sweep) =="
./target/release/repro warm --quick --out "$metrics_tmp/results" > /dev/null
python3 - "$metrics_tmp/results/warmstart_cold_vs_warm.csv" <<'PY'
import csv, sys
rows = [r for r in csv.DictReader(open(sys.argv[1])) if r["what"].startswith("NIDS upgrade sweep")]
assert rows, "NIDS upgrade sweep row missing from warm-start CSV"
r = rows[0]
hits, fallbacks = int(r["hits"]), int(r["fallbacks"])
cold_iters, warm_iters = int(r["cold iters"]), int(r["warm iters"])
assert hits > 0, f"NIDS sweep accepted no warm bases: {r}"
assert fallbacks == 0, f"NIDS sweep fell back cold {fallbacks} times: {r}"
assert warm_iters < cold_iters, f"warm pass did not save iterations: {r}"
print(f"dual-phase gate OK ({hits} hits, {fallbacks} fallbacks, "
      f"{cold_iters} -> {warm_iters} iterations)")
PY

# Streaming data plane: the sharded stream must stay bit-identical to the
# batch replay at any thread/shard count (the equivalence suite pins the
# full RunStats, the bench asserts it again internally), and the
# throughput artifacts must parse with a positive rate. The bench runs
# from the temp dir so its trajectory entry lands there, not on the
# committed repo-root BENCH_throughput.json.
echo "== streaming throughput gate =="
NWDP_THREADS=1 cargo test -q --test parallel_equivalence
NWDP_THREADS=4 cargo test -q --test parallel_equivalence
repo_root="$PWD"
(cd "$metrics_tmp" && NWDP_SHARDS=3 "$repo_root/target/release/repro" throughput --quick \
  --out "$metrics_tmp/results" > /dev/null)
python3 - "$metrics_tmp/BENCH_throughput.json" "$metrics_tmp/results/throughput.csv" <<'PY'
import csv, json, sys
d = json.load(open(sys.argv[1]))
assert d["version"] == 1, d.get("version")
runs = d["runs"]
assert runs, "trajectory has no runs"
r = runs[-1]
assert r["sessions_per_sec"] > 0, r
assert r["p99_pkt_ns"] >= r["p50_pkt_ns"] > 0, r
assert r["shards"] == 3, r
rows = list(csv.DictReader(open(sys.argv[2])))
assert rows and float(rows[0]["sessions/s"]) > 0, rows
print(f"throughput gate OK ({r['sessions_per_sec']:.0f} sessions/s, "
      f"p99 {r['p99_pkt_ns']:.0f} ns, {int(r['shards'])} shards)")
PY

# Closed-loop reload: the quick mix-shift scenario must complete its live
# swaps without stopping replay, reject the sabotaged epoch with the old
# manifest still serving, and never let the live manifest's coverage dip
# below full. The bench asserts all of this internally; the gate re-checks
# the *artifacts* (summary CSV, replay-clock coverage series, reload.*
# counters) so a silent emit regression can't pass.
echo "== closed-loop reload gate =="
reload_out="$metrics_tmp/reload"
./target/release/repro reload --quick --out "$reload_out" \
  --metrics-out "$reload_out/metrics.json" > /dev/null
python3 - "$reload_out" <<'PY'
import csv, json, os, sys
out = sys.argv[1]
r = list(csv.DictReader(open(os.path.join(out, "reload_summary.csv"))))[0]
swapped, rejected = int(r["swapped"]), int(r["rejected"])
floor = float(r["coverage_floor"])
assert swapped >= 3, f"need >= 3 live swaps, got {swapped}: {r}"
assert rejected >= 1, f"sabotaged epoch was not rejected: {r}"
assert floor >= 1.0 - 1e-9, f"coverage floor dipped below full: {r}"
cov = list(csv.DictReader(open(os.path.join(out, "reload_coverage_timeseries.csv"))))
assert cov, "coverage timeseries is empty"
assert all(float(p["coverage"]) >= 1.0 - 1e-9 for p in cov), cov
ts = list(csv.DictReader(open(os.path.join(out, "timeseries.csv"))))
series = [p for p in ts if p["series"] == "resilience.coverage"]
assert series, "no resilience.coverage replay-clock series in timeseries.csv"
c = json.load(open(os.path.join(out, "metrics.json")))["counters"]
assert c.get("reload.swaps", 0) >= 3, c.get("reload.swaps")
assert c.get("reload.rejected", 0) >= 1, c.get("reload.rejected")
assert c.get("reload.resolves", 0) == swapped + rejected + \
    int(c.get("reload.solve_failed", 0)), c
print(f"reload gate OK ({swapped} swaps, {rejected} rejected, "
      f"floor {floor:.9f}, {len(series)} coverage points)")
PY

# Distributed control plane: the cluster suites must hold at 1 and 4
# threads (full-run bit-equality incl. the delivery-schedule fingerprint),
# and `repro cluster` must meet the fault-injected convergence criteria at
# 0% and 10% link loss — crash detected from actually missed heartbeats
# near the grid prediction, coverage never below the repair bound, zero
# stale-epoch manifests live. The bench asserts those internally; the gate
# re-checks the artifacts (convergence CSV, net.* counters, replay-clock
# series, BENCH_cluster.json trajectory) so a silent emit regression can't
# pass. Runs from the temp dir so trajectory entries land there.
echo "== distributed control-plane gate =="
NWDP_THREADS=1 cargo test -q -p nwdp-engine --test cluster
NWDP_THREADS=4 cargo test -q -p nwdp-engine --test cluster
NWDP_THREADS=1 cargo test -q --test proptest_cluster
NWDP_THREADS=4 cargo test -q --test proptest_cluster
cluster_out="$metrics_tmp/cluster"
(cd "$metrics_tmp" && NWDP_NET_LOSS=0 "$repo_root/target/release/repro" cluster --quick \
  --out "$cluster_out/loss0" > /dev/null)
(cd "$metrics_tmp" && NWDP_NET_LOSS=0.1 "$repo_root/target/release/repro" cluster --quick \
  --out "$cluster_out/loss10" --metrics-out "$cluster_out/metrics.json" > /dev/null)
python3 - "$cluster_out" "$metrics_tmp/BENCH_cluster.json" <<'PY'
import csv, json, os, sys
out, traj_path = sys.argv[1], sys.argv[2]

def point(sub, loss):
    rows = list(csv.DictReader(open(os.path.join(out, sub, "cluster_convergence.csv"))))
    assert len(rows) == 1, f"{sub}: NWDP_NET_LOSS must pin the sweep to one point"
    r = rows[0]
    assert float(r["loss"]) == loss, r
    assert int(r["detections"]) >= 2, f"{sub}: crash + partition both declared: {r}"
    assert float(r["coverage_floor"]) >= float(r["repair_bound"]) - 1e-9, r
    assert int(r["epochs"]) >= 3, f"{sub}: one repair epoch per scripted fault: {r}"
    epochs = list(csv.DictReader(open(os.path.join(out, sub, "cluster_epochs.csv"))))
    assert len(epochs) >= 2, f"{sub}: epochs CSV too short"
    return r

r0 = point("loss0", 0.0)
assert int(r0["retries"]) == 0 and int(r0["timeouts"]) == 0, r0
r10 = point("loss10", 0.1)
assert int(r10["retries"]) > 0, f"10% loss must exercise the retry path: {r10}"

c = json.load(open(os.path.join(out, "metrics.json")))["counters"]
for key in ("net.sends", "net.delivered", "net.drops_loss", "net.heartbeats",
            "net.installs", "net.retries", "net.repairs"):
    assert c.get(key, 0) > 0, f"missing or zero counter: {key}"
assert c["net.delivered"] < c["net.sends"], "a lossy run must drop something"
ts = list(csv.DictReader(open(os.path.join(out, "loss10", "timeseries.csv"))))
cov = [p for p in ts if p["series"] == "net.coverage"]
assert cov, "no net.coverage replay-clock series in timeseries.csv"

traj = json.load(open(traj_path))
assert traj["version"] == 1 and len(traj["runs"]) == 2, traj.get("version")
last = traj["runs"][-1]
assert last["loss"] == 0.1 and last["detect_latency"] > 0, last
assert 0 < last["coverage_floor"] <= 1, last
print(f"control-plane gate OK (0%: {r0['detections']} detections; "
      f"10%: {r10['retries']} retries, floor {float(r10['coverage_floor']):.9f}, "
      f"{len(cov)} coverage points)")
PY

# Production alert plane: detections must leave the engine only through
# the structured alert pipeline (no direct stdout/stderr writes anywhere
# in the data plane), `repro alerts` must produce sanitized JSONL + CEF
# egress whose accounting balances exactly (emitted == written + deduped
# + dropped_ratelimit, nothing silently lossy), the NWDP_ALERT env path
# must install a working writer, and cluster alert forwarding at 10% loss
# must balance sends == delivered + drops. Benches run from the temp dir
# so trajectory entries land there.
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
alerts_out="$metrics_tmp/alerts"
(cd "$metrics_tmp" && "$repo_root/target/release/repro" alerts --quick \
  --out "$alerts_out" --metrics-out "$alerts_out/metrics.json" > /dev/null)
python3 - "$alerts_out" <<'PY'
import csv, json, os, sys
out = sys.argv[1]

# Summary CSV: the exact balance the pipeline promises.
r = list(csv.DictReader(open(os.path.join(out, "alerts_summary.csv"))))[0]
emitted, written = int(r["emitted"]), int(r["written"])
deduped, dropped = int(r["deduped"]), int(r["dropped_rl"])
assert emitted == written + deduped + dropped, r
assert written > 0 and dropped > 0, r

# JSONL egress: every line parses, full field set, count == written.
lines = open(os.path.join(out, "alerts.jsonl")).read().splitlines()
assert len(lines) == written, (len(lines), written)
for n, line in enumerate(lines, 1):
    rec = json.loads(line)
    for k in ("ts", "node", "class", "kind", "subject", "severity",
              "src_ip", "dst_ip", "src_port", "dst_port", "proto"):
        assert k in rec, f"jsonl line {n} lacks {k}"

# CEF egress: count == written, exactly 7 unescaped pipes per line.
def unescaped_pipes(s):
    n, i = 0, 0
    while i < len(s):
        if s[i] == "\\":
            i += 2
            continue
        if s[i] == "|":
            n += 1
        i += 1
    return n

cef = open(os.path.join(out, "alerts.cef")).read().splitlines()
assert len(cef) == written, (len(cef), written)
for n, line in enumerate(cef, 1):
    assert line.startswith("CEF:0|"), f"cef line {n}: {line[:40]!r}"
    assert unescaped_pipes(line) == 7, \
        f"cef line {n}: {unescaped_pipes(line)} unescaped pipes"

# Mirrored obs counters and the emission-latency histogram agree.
m = json.load(open(os.path.join(out, "metrics.json")))
c = m["counters"]
assert c.get("alert.emitted", 0) == emitted, c.get("alert.emitted")
assert c["alert.emitted"] == c.get("alert.written", 0) + c.get("alert.deduped", 0) \
    + c.get("alert.dropped_ratelimit", 0), c
h = m["histograms"]["alert.emit_ns"]
assert h["count"] >= emitted and h["sum"] > 0, h
print(f"alert gate OK ({emitted} emitted = {written} written + {deduped} deduped "
      f"+ {dropped} rate-limited)")
PY
# NWDP_ALERT env path: a streaming run must leave a valid JSONL egress.
(cd "$metrics_tmp" && NWDP_ALERT="$metrics_tmp/env_alerts.jsonl" \
  "$repo_root/target/release/repro" throughput --quick \
  --out "$metrics_tmp/results" > /dev/null)
python3 - "$metrics_tmp/env_alerts.jsonl" <<'PY'
import json, sys
lines = open(sys.argv[1]).read().splitlines()
assert lines, "NWDP_ALERT egress is empty"
for n, line in enumerate(lines, 1):
    json.loads(line)
print(f"NWDP_ALERT env path OK ({len(lines)} records)")
PY
# Cluster alert forwarding rides the lossy transport and balances.
(cd "$metrics_tmp" && NWDP_NET_LOSS=0.1 NWDP_ALERT="$metrics_tmp/cluster_alerts.jsonl" \
  "$repo_root/target/release/repro" cluster --quick \
  --out "$alerts_out/cluster" --metrics-out "$alerts_out/cluster_metrics.json" > /dev/null)
python3 - "$alerts_out/cluster_metrics.json" <<'PY'
import json, sys
c = json.load(open(sys.argv[1]))["counters"]
sends = c.get("net.alert_sends", 0)
assert sends > 0, "alert forwarding must run when the alert plane is on"
assert sends == c.get("net.alert_delivered", 0) + c.get("net.alert_drops", 0), c
assert c.get("net.alert_drops", 0) > 0, "10% loss must drop some alert reports"
assert c.get("net.alerts_forwarded", 0) >= c.get("net.alert_delivered", 0), c
print(f"cluster alert forwarding OK ({sends} sends = "
      f"{c['net.alert_delivered']} delivered + {c['net.alert_drops']} dropped)")
PY

echo "CI OK"
