#!/usr/bin/env bash
# Build everything, run the full test suite, regenerate every paper
# table/figure and extension ablation, and run the examples — tee'ing
# outputs next to the repo root.
#
# Usage:
#   scripts/run_all.sh [--fast]
#
# --fast shrinks the synthetic datasets (ANONSAFE_SCALE=0.2) and skips
# the MCMC overlays (ANONSAFE_SIM=0) for a quick smoke pass.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--fast" ]]; then
  export ANONSAFE_SCALE=0.2
  export ANONSAFE_SIM=0
  echo "[fast mode: ANONSAFE_SCALE=0.2, ANONSAFE_SIM=0]"
fi

# The tier-1 configure line: a second generator on the same build/
# tree makes CMake stop before any test runs.
cmake -B build -S .
cmake --build build -j "$(nproc)"

ctest --test-dir build 2>&1 | tee test_output.txt

# The SIMD differential suite under every forced ISA tier: forcing a
# tier the host/build lacks clamps downward with a warning, so each
# pass is meaningful on any machine and all three must agree bitwise.
for isa in scalar avx2 avx512; do
  echo "== kernel_differential_test (ANONSAFE_FORCE_ISA=$isa) =="
  ANONSAFE_FORCE_ISA="$isa" ./build/tests/kernel_differential_test \
    --gtest_brief=1
done

scripts/check_metrics.sh
scripts/check_obs.sh
scripts/check_serve.sh
scripts/check_defense.sh
scripts/check_adversary.sh
scripts/check_plan.sh
scripts/check_tsan.sh
scripts/check_asan.sh
scripts/check_perf.sh

{
  for b in build/bench/*; do
    [[ -x "$b" && -f "$b" ]] || continue
    echo
    echo "################  $(basename "$b")  ################"
    "$b"
  done
} 2>&1 | tee bench_output.txt

{
  for e in build/examples/*; do
    [[ -x "$e" && -f "$e" ]] || continue
    echo
    echo "################  $(basename "$e")  ################"
    "$e"
  done
} 2>&1 | tee examples_output.txt

echo
echo "Done. Outputs: test_output.txt bench_output.txt examples_output.txt"
