#!/usr/bin/env bash
# Builds the parallel execution engine under ThreadSanitizer and runs
# the suites that exercise it concurrently: the pool/ParallelFor unit
# tests, the cross-thread bit-identity suite, the sampler tests
# (independent MCMC chains on the pool), the metrics tests (timers
# stopped on several threads through their per-thread handle caches),
# the structured-log contention tests, the trace fragment-merge tests, both serve suites (async
# admission + runner threads, the epoll event loop, quotas, batch
# fan-out), the SIMD kernel differential suite (concurrent
# first-use dispatch init, chunked Ryser on the pool; the slow
# LargeMatrices cases are filtered out under TSan), and the adversary
# registry suite (registry singletons under concurrent lookup, plus the
# recipes the determinism suite drives through every adversary at
# multiple thread counts).
#
# Usage:
#   scripts/check_tsan.sh
#
# Skips gracefully (exit 0 with a notice) when the toolchain cannot
# link -fsanitize=thread, so run_all.sh stays green on minimal images.
set -uo pipefail
cd "$(dirname "$0")/.."

# Probe: can this toolchain produce a TSan binary at all?
probe_dir="$(mktemp -d)"
trap 'rm -rf "$probe_dir"' EXIT
cat > "$probe_dir/probe.cc" <<'EOF'
int main() { return 0; }
EOF
if ! c++ -fsanitize=thread "$probe_dir/probe.cc" -o "$probe_dir/probe" \
     >/dev/null 2>&1; then
  echo "check_tsan: SKIP (toolchain cannot link -fsanitize=thread)"
  exit 0
fi

set -e
cmake -B build-tsan -S . -DANONSAFE_TSAN=ON \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build build-tsan --target exec_test determinism_test sampler_test \
      estimator_test obs_test obs_log_test trace_merge_test serve_test \
      serve_v2_test kernel_differential_test optimizer_test \
      adversary_test -j "$(nproc)"

status=0
for t in exec_test determinism_test sampler_test estimator_test \
         obs_test obs_log_test trace_merge_test serve_test serve_v2_test \
         kernel_differential_test optimizer_test adversary_test; do
  echo "== TSan: $t =="
  # The n>=20 cross-ISA matrices take minutes under TSan's ~10x
  # slowdown and add no concurrency coverage beyond the smaller cases
  # (same chunked ParallelFor path, same dispatch init), so skip them.
  extra=()
  if [[ "$t" == kernel_differential_test ]]; then
    extra=(--gtest_filter='-*LargeMatrices*')
  fi
  if ! ./build-tsan/tests/"$t" --gtest_brief=1 "${extra[@]}"; then
    status=1
  fi
done

if [[ "$status" -ne 0 ]]; then
  echo "check_tsan: FAIL (data race or test failure under TSan)" >&2
  exit 1
fi
echo "check_tsan: OK (exec_test, determinism_test, sampler_test, estimator_test, obs_test, obs_log_test, trace_merge_test, serve_test, serve_v2_test, kernel_differential_test, optimizer_test, adversary_test race-free)"
