#!/usr/bin/env bash
# Tier-1 verification: everything a change must pass before merging.
#
#   ./scripts/tier1.sh            # release build + tests + lint + debug job
#
# Jobs:
#   1. release build              (the artifact we benchmark)
#   2. full test suite            (unit + integration + doc tests; the
#      determinism batteries sweep their own thread counts on real threads)
#   3. clippy, warnings are errors
#   4. debug-assertions test job  (re-runs the suite with debug_assertions
#      on, exercising the SDC footprint-disjointness checks and every
#      debug-only invariant; `cargo test` default profile already enables
#      them — this job pins that explicitly so a profile tweak cannot
#      silently turn them off)
#   5. metrics regression gate    (short metered mdrun, diffed against the
#      checked-in golden report; counters — the rebuild count among them —
#      must match exactly, timings may only grow within a deliberately
#      generous tolerance)
#   6. load-balance gate          (a balanced metered mdrun against the
#      plain run of the plan the search deterministically picks for the
#      gate case — sdc1d on the 9³ box, fewest barriers wins — with every
#      counter matching *exactly*: the balancer may only reorder and
#      re-split, never change the physics or the scatter bookkeeping)
#   7. mdserve chaos gate         (boots the job server, hammers it with a
#      concurrent client storm, then kill -9s it with jobs in flight and
#      restarts it on the same state directory: the journal replay must
#      re-queue the interrupted work and every job accepted before the
#      kill must complete from its checkpoint — zero accepted jobs lost)
#   8. task-graph gate            (an A/B metered mdrun of taskgraph2d
#      against barriered sdc2d on the carved-void case with every physics
#      counter matching exactly — only the scheduling regime, and
#      therefore the scatter.* counters, may differ — and the two final
#      checkpoints byte-identical: the graph adds in SDC's color order,
#      so its trajectory is barriered SDC's bit for bit)
#   9. shard gate                 (the peer-mesh halo-exchange: an A/B
#      metered mdrun of a 2-shard process-backend run, on the binary wire
#      codec, against the unsharded engine — the physics counters must
#      match exactly; slabbing may only change where the work runs)
#  10. SIMD gate                  (the EAM row kernels' two backends —
#      the AVX2 geometry lanes, which gather, min-image and form each
#      pair's force four pairs at a time, and the AVX2 splines, against
#      their scalar legs: the oracle battery in release so the silent
#      `UniformSpline::locate` clamp is live, a MD_SIMD_SCALAR=1 leg so the
#      scalar geometry lanes and spline loop are held to the same oracle
#      on any host, then an A/B metered tabulated mdrun of the AVX2 backend
#      against MD_SIMD_SCALAR=1 with every physics counter matching exactly
#      and the two final checkpoints byte-identical — the backend may only
#      change how fast the lanes and splines evaluate, never a bit of the
#      trajectory)
#  11. perfbench build and run    (perfbench/ is a cargo workspace of its
#      own that names engine APIs — `ForceEngine::lane_occupancy`,
#      `ScatterExec`'s fields, `WorldSpec.{fused,simd}`, `md_shard::Codec`;
#      building it against this tree keeps a change from passing tier-1
#      and only breaking in the benchmark pipeline. `WorldSpec.{fused,simd}`
#      are ignored and stay only because perfbench names them. Then a
#      one-second traced run of each workload, whose result line must say
#      `"correct": true` and `"failed": 0`: a build alone cannot catch a
#      panic or a wrong pairing in code only the benchmark runs, such as
#      its Serial sweep over the engine's SDC-laid-out list or its
#      `neighbor_list()`/`positions()` pairing. The build rewrites
#      perfbench/Cargo.lock, which is restored on exit)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> [1/11] release build"
cargo build --release --workspace

echo "==> [2/11] test suite"
cargo test --workspace -q

echo "==> [3/11] clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> [4/11] debug-assertions test job"
RUSTFLAGS="-C debug-assertions=on" cargo test --workspace -q --profile dev

echo "==> [5/11] metrics regression gate"
report="$(mktemp /tmp/tier1_metrics.XXXXXX.json)"
cargo run -q -p sdc-bench --release --bin mdrun -- \
  --cells 9 --strategy sdc2d --threads 2 --steps 20 --report 20 \
  --metrics-out "$report" > /dev/null
cargo run -q -p sdc-bench --release --bin metrics_diff -- \
  scripts/metrics_baseline.json "$report" --tol 1.0 --time-tol 50
rm -f "$report"

echo "==> [6/11] load-balance gate"
def="$(mktemp /tmp/tier1_default.XXXXXX.json)"
bal="$(mktemp /tmp/tier1_balanced.XXXXXX.json)"
cargo run -q -p sdc-bench --release --bin mdrun -- \
  --cells 9 --strategy sdc1d --threads 2 --steps 20 --report 20 \
  --metrics-out "$def" > /dev/null
cargo run -q -p sdc-bench --release --bin mdrun -- \
  --cells 9 --strategy sdc3d --threads 2 --steps 20 --report 20 \
  --balance --metrics-out "$bal" > /dev/null
cargo run -q -p sdc-bench --release --bin metrics_diff -- \
  "$def" "$bal" --tol 1.0 --time-tol 50
rm -f "$def" "$bal"

echo "==> [7/11] mdserve chaos gate (client storm + kill-and-restart resume)"
sd="$(mktemp -d /tmp/tier1_mdserve.XXXXXX)"
# The server runs in its own process group (setsid): `kill -9` must reach
# the mdserve process itself, not just the timeout/cargo wrappers — SIGKILL
# is never forwarded, and an orphaned first server racing the restarted one
# on the same state directory makes resumed jobs fail intermittently.
setsid timeout 180 cargo run -q -p sdc-bench --release --bin mdserve -- \
  --dir "$sd/state" --port-file "$sd/port" --workers 2 > "$sd/serve1.log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do [ -s "$sd/port" ] && break; sleep 0.1; done
[ -s "$sd/port" ] || { echo "mdserve never wrote its port file"; cat "$sd/serve1.log"; exit 1; }
echo "    client storm (4 clients x 3 jobs)"
timeout 120 cargo run -q -p sdc-bench --release --bin mdstorm -- \
  --port-file "$sd/port" --clients 4 --jobs 3 --steps 80
echo "    kill -9 with jobs in flight, restart, resume"
timeout 60 cargo run -q -p sdc-bench --release --bin mdstorm -- \
  --port-file "$sd/port" --clients 2 --jobs 2 --steps 2000 --no-await
kill -9 -- "-$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
rm -f "$sd/port"
timeout 180 cargo run -q -p sdc-bench --release --bin mdserve -- \
  --dir "$sd/state" --port-file "$sd/port" --workers 2 > "$sd/serve2.log" 2>&1 &
serve2_pid=$!
for _ in $(seq 1 100); do [ -s "$sd/port" ] && break; sleep 0.1; done
[ -s "$sd/port" ] || { echo "restarted mdserve never wrote its port file"; cat "$sd/serve2.log"; exit 1; }
# Every job accepted before the kill must complete after the restart.
timeout 120 cargo run -q -p sdc-bench --release --bin mdstorm -- \
  --port-file "$sd/port" --await-only --shutdown drain
wait "$serve2_pid"
grep -q "re-queued" "$sd/serve2.log" || { echo "restart did not replay the journal"; cat "$sd/serve2.log"; exit 1; }
rm -rf "$sd"

echo "==> [8/11] task-graph gate (A/B vs barriered SDC, byte-equal checkpoints)"
sdc="$(mktemp /tmp/tier1_sdc.XXXXXX.json)"
tg="$(mktemp /tmp/tier1_taskgraph.XXXXXX.json)"
sdc_ckpt="$(mktemp /tmp/tier1_sdc.XXXXXX.ckpt)"
tg_ckpt="$(mktemp /tmp/tier1_taskgraph.XXXXXX.ckpt)"
cargo run -q -p sdc-bench --release --bin mdrun -- \
  --cells 9 --void --strategy sdc2d --threads 2 --steps 20 --report 20 \
  --metrics-out "$sdc" --checkpoint "$sdc_ckpt" > /dev/null
cargo run -q -p sdc-bench --release --bin mdrun -- \
  --cells 9 --void --strategy taskgraph2d --threads 2 --steps 20 --report 20 \
  --metrics-out "$tg" --checkpoint "$tg_ckpt" > /dev/null
cargo run -q -p sdc-bench --release --bin metrics_diff -- \
  "$sdc" "$tg" --ab --tol 1.0 --time-tol 50
cmp "$sdc_ckpt" "$tg_ckpt"
rm -f "$sdc" "$tg" "$sdc_ckpt" "$tg_ckpt"

echo "==> [9/11] shard gate (A/B vs the unsharded engine)"
# The conformance battery, the codec fuzz, and the SIGKILL/resume chaos
# test run in job 2.
# The process-backend smoke: mdrun needs the worker binary next to it.
cargo build -q --release -p md-shard
flat="$(mktemp /tmp/tier1_flat.XXXXXX.json)"
shrd="$(mktemp /tmp/tier1_shard.XXXXXX.json)"
cargo run -q -p sdc-bench --release --bin mdrun -- \
  --cells 9 --strategy sdc2d --threads 2 --steps 20 --report 20 \
  --metrics-out "$flat" > /dev/null
cargo run -q -p sdc-bench --release --bin mdrun -- \
  --cells 9 --strategy sdc2d --threads 2 --steps 20 --report 20 \
  --shards 2 --shard-backend process --metrics-out "$shrd" > /dev/null
# Counters must match exactly; the time tolerance is deliberately huge —
# every step crosses the peer-mesh wire, so sharded step *time* is a
# different regime, not a regression signal.
cargo run -q -p sdc-bench --release --bin metrics_diff -- \
  "$flat" "$shrd" --ab --tol 1.0 --time-tol 500
rm -f "$flat" "$shrd"

echo "==> [10/11] SIMD gate (release + scalar-backend legs + A/B vs MD_SIMD_SCALAR=1)"
echo "    release-profile battery (silent spline clamp live)"
cargo test -q --release --test simd_conformance
echo "    scalar spline backend leg (MD_SIMD_SCALAR=1)"
MD_SIMD_SCALAR=1 cargo test -q --test simd_conformance
scl="$(mktemp /tmp/tier1_scalar.XXXXXX.json)"
smd="$(mktemp /tmp/tier1_simd.XXXXXX.json)"
scl_ckpt="$(mktemp /tmp/tier1_scalar.XXXXXX.ckpt)"
smd_ckpt="$(mktemp /tmp/tier1_simd.XXXXXX.ckpt)"
MD_SIMD_SCALAR=1 cargo run -q -p sdc-bench --release --bin mdrun -- \
  --cells 9 --strategy sdc2d --threads 2 --steps 20 --report 20 --tabulated \
  --metrics-out "$scl" --checkpoint "$scl_ckpt" > /dev/null
cargo run -q -p sdc-bench --release --bin mdrun -- \
  --cells 9 --strategy sdc2d --threads 2 --steps 20 --report 20 --tabulated \
  --metrics-out "$smd" --checkpoint "$smd_ckpt" > /dev/null
cargo run -q -p sdc-bench --release --bin metrics_diff -- \
  "$scl" "$smd" --ab --tol 1.0 --time-tol 50
cmp "$scl_ckpt" "$smd_ckpt"
rm -f "$scl" "$smd" "$scl_ckpt" "$smd_ckpt"

echo "==> [11/11] perfbench build and run (the benchmark workspace against this tree)"
lock_backup="$(mktemp /tmp/tier1_perfbench_lock.XXXXXX)"
cp perfbench/Cargo.lock "$lock_backup"
trap 'cp "$lock_backup" perfbench/Cargo.lock; rm -f "$lock_backup"' EXIT
CARGO_TARGET_DIR=target/perfbench cargo build --release --offline \
  --manifest-path perfbench/Cargo.toml -p perfbench -p md-shard
for workload in fe_cool_serial fe_hot_sdc3d_t2; do
  echo "    $workload, 1 s, traced"
  result="$(CARGO_TARGET_DIR=target/perfbench python3 perfbench/run.py \
    --workload "$workload" --seed 1 --seconds 1 --trace 1 | tail -n 1)"
  python3 -c 'import json, sys; r = json.loads(sys.argv[1]); sys.exit(not (r["correct"] is True and r["failed"] == 0))' \
    "$result" || { echo "perfbench $workload failed: $result"; exit 1; }
done

echo "tier-1: all green"
