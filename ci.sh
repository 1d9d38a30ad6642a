#!/usr/bin/env bash
# ci.sh — the checks a PR must pass, as seven independently runnable legs.
#
#  tier1     the tier-1 verify: full RelWithDebInfo build + the whole
#            ctest suite (FFQ_TELEMETRY=OFF, the default — the zero-cost
#            configuration). ctest runs every bench at a hundredth of its
#            workload, so each run's conservation check is exercised; no
#            leg gates timing (performance is judged by ffqbench/run.py
#            over parent/change pairs, against BENCHMARK.json's bounds);
#  telemetry the same build + full suite with FFQ_TELEMETRY=ON, so both
#            sides of the compile-time policy stay green;
#  trace     full build + suite with FFQ_TRACE=ON (and telemetry ON, so
#            both hook families coexist), then an end-to-end check: the
#            MPMC trace_stress tool exports a Perfetto trace that
#            trace_check must validate (per-producer FIFO, no loss, no
#            duplication);
#  tsan      the core queue + shard + telemetry + harness suites rebuilt
#            with -fsanitize=thread (telemetry ON, so the instrumented hot
#            paths are the ones checked) and run to completion, plus
#            trace_stress as a multi-threaded race hunt —
#            halt_on_error=1 turns any reported race into failure;
#  asan      the same binaries under -fsanitize=address,undefined
#            (-fno-sanitize-recover=all, so UB aborts too): buffer and
#            lifetime bugs the race hunt can't see;
#  check     FFQ_CHECK=ON build + full suite with live yield points,
#            then check_explore end to end — exhaustive
#            preemption-bound-2 DFS over the SPSC, SPMC, SPMC bulk/try_,
#            shard-scheduler and MPMC (Algorithm 2) models, each with a
#            one-sided liveness verdict (a bounded run can miss a wedge,
#            never invent one; a run that reaches no terminal within the
#            bound is inconclusive and fails the leg), plus a seeded
#            MPMC model fuzz, a seeded schedule fuzz of every real queue
#            (both fabric modes included via --queue all), and a
#            mutation-catch gate: seven injected bugs (the line-29
#            re-check dropped, the tail stored only after a batch that
#            waits on a full ring, the FAA try_ claim, a tail snapshot
#            stored one rank ahead, "empty" decided on a stale snapshot,
#            and Algorithm 2's claim that publishes without the -2
#            reservation or ignores the gap) must each be caught with a
#            schedule string that replays to the same violation;
#  ffqbench  the gating benchmark end to end: its fault-injection
#            --selftest, then each of the four workloads for a short
#            seeded run (--seed 1 --seconds 2 --trace 0). Every run checks
#            each delivered item, so any non-zero exit fails the leg.
#
# Usage: ./ci.sh [options] [jobs]
#   --leg NAME   run only this leg (repeatable, or comma-separated;
#                names: tier1 telemetry trace tsan asan check ffqbench)
#   --fresh      wipe each selected leg's build directory first
#   --jobs N     parallel build/test jobs (default: nproc; bare numeric
#                positional argument still works)
#
# Each leg's build tree is reused across runs. Before reusing one, the
# leg's defining FFQ_* options are checked against the existing
# CMakeCache.txt; a stale cache (e.g. build-check configured while
# FFQ_CHECK was OFF) is detected and reconfigured from scratch instead
# of silently testing the wrong configuration.
set -euo pipefail
cd "$(dirname "$0")"

ALL_LEGS=(tier1 telemetry trace tsan asan check ffqbench)
LEGS=()
FRESH=0
JOBS="$(nproc)"

while [[ $# -gt 0 ]]; do
  case "$1" in
    --leg)
      [[ $# -ge 2 ]] || { echo "ci.sh: --leg needs a name" >&2; exit 2; }
      IFS=',' read -ra parts <<< "$2"
      LEGS+=("${parts[@]}")
      shift 2 ;;
    --leg=*)
      IFS=',' read -ra parts <<< "${1#--leg=}"
      LEGS+=("${parts[@]}")
      shift ;;
    --fresh) FRESH=1; shift ;;
    --jobs) JOBS="$2"; shift 2 ;;
    --jobs=*) JOBS="${1#--jobs=}"; shift ;;
    # --help prints the leading comment block, up to the first code line.
    -h|--help) sed -n '2,${/^#/!q;s/^# \{0,1\}//;p}' "$0"; exit 0 ;;
    [0-9]*) JOBS="$1"; shift ;;  # legacy: ./ci.sh 8
    *) echo "ci.sh: unknown argument '$1' (see --help)" >&2; exit 2 ;;
  esac
done
[[ ${#LEGS[@]} -gt 0 ]] || LEGS=("${ALL_LEGS[@]}")
for leg in "${LEGS[@]}"; do
  [[ " ${ALL_LEGS[*]} " == *" $leg "* ]] ||
    { echo "ci.sh: unknown leg '$leg' (have: ${ALL_LEGS[*]})" >&2; exit 2; }
done

# Pick up ccache transparently when present (the GitHub workflow
# installs it); local runs without ccache are unaffected.
EXTRA_CMAKE_ARGS=()
if command -v ccache >/dev/null 2>&1; then
  EXTRA_CMAKE_ARGS+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

# configure <preset> <builddir> <VAR=VAL>...
# Reuses an existing build tree only when every leg-defining cache
# option still matches; otherwise (drift, or --fresh) reconfigures from
# an empty directory.
configure() {
  local preset="$1" dir="$2"; shift 2
  if [[ $FRESH -eq 1 ]]; then
    echo "--- $preset: --fresh, wiping $dir ---"
    rm -rf "$dir"
  elif [[ -f "$dir/CMakeCache.txt" ]]; then
    local kv var want have
    for kv in "$@"; do
      var="${kv%%=*}" want="${kv#*=}"
      have="$(sed -n "s/^${var}:[A-Z]*=//p" "$dir/CMakeCache.txt" | head -n 1)"
      if [[ "${have:-unset}" != "$want" ]]; then
        echo "--- $preset: cache drift ($var=${have:-unset}, want $want)," \
             "reconfiguring $dir from scratch ---"
        rm -rf "$dir"
        break
      fi
    done
  fi
  cmake --preset "$preset" "${EXTRA_CMAKE_ARGS[@]}" >/dev/null
}

leg_tier1() {
  configure default build \
    FFQ_TELEMETRY=OFF FFQ_TRACE=OFF FFQ_CHECK=OFF \
    FFQ_SANITIZE_THREAD=OFF FFQ_SANITIZE_ADDRESS=OFF
  cmake --build build -j "$JOBS"
  ctest --test-dir build --output-on-failure -j "$JOBS"
}

leg_telemetry() {
  configure telemetry build-telemetry FFQ_TELEMETRY=ON FFQ_TRACE=OFF
  cmake --build build-telemetry -j "$JOBS"
  ctest --test-dir build-telemetry --output-on-failure -j "$JOBS"
}

leg_trace() {
  configure trace build-trace FFQ_TRACE=ON FFQ_TELEMETRY=ON
  cmake --build build-trace -j "$JOBS"
  ctest --test-dir build-trace --output-on-failure -j "$JOBS"
  echo "--- trace end-to-end: MPMC stress -> Perfetto export -> trace_check ---"
  local trace_out="build-trace/ci_mpmc_trace.json"
  ./build-trace/tools/trace_stress --trace="$trace_out" \
    --producers=2 --consumers=2 --items=4000
  ./build-trace/tools/trace_check --expect-drained "$trace_out"
}

# The binaries both sanitizer legs build and run: the scalar queue
# suites, the bulk-path liveness suite, the shard fabric suite, the
# wait/park paths, telemetry, and the measured-run harness (its stream
# loops read the SPSC consumer's head from the producer).
SAN_TESTS=(test_spsc test_spmc test_mpmc test_liveness test_shard
           test_waitable test_eventcount test_telemetry test_harness)

leg_tsan() {
  configure tsan build-tsan FFQ_SANITIZE_THREAD=ON FFQ_TELEMETRY=ON
  cmake --build build-tsan -j "$JOBS" \
    --target "${SAN_TESTS[@]}" trace_stress
  local t
  for t in "${SAN_TESTS[@]}"; do
    echo "--- $t (tsan) ---"
    TSAN_OPTIONS="halt_on_error=1" "./build-tsan/tests/$t"
  done
  echo "--- trace_stress (tsan): MPMC contention as a race hunt ---"
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tools/trace_stress \
    --trace=build-tsan/tsan_stress_trace.json \
    --producers=2 --consumers=2 --items=20000
}

leg_asan() {
  configure asan build-asan FFQ_SANITIZE_ADDRESS=ON FFQ_TELEMETRY=ON
  cmake --build build-asan -j "$JOBS" \
    --target "${SAN_TESTS[@]}" trace_stress
  local t
  for t in "${SAN_TESTS[@]}"; do
    echo "--- $t (asan+ubsan) ---"
    "./build-asan/tests/$t"
  done
  echo "--- trace_stress (asan+ubsan): MPMC stress for lifetime bugs ---"
  ./build-asan/tools/trace_stress \
    --trace=build-asan/asan_stress_trace.json \
    --producers=2 --consumers=2 --items=20000
}

leg_check() {
  configure check build-check FFQ_CHECK=ON
  cmake --build build-check -j "$JOBS"
  ctest --test-dir build-check --output-on-failure -j "$JOBS"
  echo "--- exhaustive: bound-2 DFS (safety + one-sided liveness) over the SPSC, SPMC, SPMC bulk/try_, shard, MPMC models ---"
  local m
  for m in spsc spmc spmc_bulk spmc_try shard mpmc; do
    ./build-check/tools/check_explore --model "$m" --bound 2
  done
  ./build-check/tools/check_explore --model mpmc --fuzz 2000 --seed 1
  echo "--- seeded fuzz: 10000 schedules over every real queue ---"
  ./build-check/tools/check_explore --queue all --fuzz 10000 --seed 1
  catch_mutation spmc skip_line29_recheck
  catch_mutation spmc_bulk tail_after_batch
  catch_mutation spmc_try faa_try_claim
  catch_mutation spmc_try snapshot_ahead
  catch_mutation spmc_try stale_empty
  catch_mutation mpmc claim_publishes_directly
  catch_mutation mpmc claim_ignores_gap
}

# catch_mutation <model> <mutation>: the injected bug must be caught by
# the bound-2 DFS, and its witness schedule must replay to a violation.
catch_mutation() {
  local model="$1" mutation="$2"
  echo "--- mutation gate: $mutation on $model must be caught and replay ---"
  local mut_out="build-check/mutation_catch.$mutation.out"
  if ./build-check/tools/check_explore --model "$model" \
       --mutate "$mutation" --bound 2 | tee "$mut_out"; then
    echo "ci.sh: FAIL — injected mutation $mutation was not caught"
    return 1
  fi
  local mut_sched
  mut_sched=$(sed -n 's/^  schedule: //p' "$mut_out" | head -n 1)
  test -n "$mut_sched"
  if ./build-check/tools/check_explore --model "$model" \
       --mutate "$mutation" --replay "$mut_sched"; then
    echo "ci.sh: FAIL — witness schedule did not reproduce $mutation"
    return 1
  fi
  echo "mutation $mutation caught and reproduced by schedule $mut_sched"
}

leg_ffqbench() {
  if [[ $FRESH -eq 1 ]]; then
    echo "--- ffqbench: --fresh, wiping .bench_build ---"
    rm -rf .bench_build
  fi
  python3 ffqbench/run.py --selftest
  local w
  for w in rpc_low rpc_high fanin_bulk mpmc_pairs; do
    echo "--- ffqbench $w ---"
    python3 ffqbench/run.py --workload "$w" --seed 1 --seconds 2 --trace 0
  done
}

TIMING_REPORT=()
for leg in "${LEGS[@]}"; do
  echo
  echo "=== leg: $leg ==="
  leg_start=$(date +%s)
  "leg_$leg"
  leg_secs=$(( $(date +%s) - leg_start ))
  TIMING_REPORT+=("$(printf '%-10s %4ds' "$leg" "$leg_secs")")
done

echo
echo "=== leg timings ==="
for line in "${TIMING_REPORT[@]}"; do echo "  $line"; done
echo "ci.sh: all selected legs passed (${LEGS[*]})"
