#!/usr/bin/env bash
# Builds the parsers of outside input and the suites that feed them
# malformed input under AddressSanitizer + UndefinedBehaviorSanitizer,
# and runs them: JSON (json_test), FIMI (data_test), belief files
# (belief_io_test), risk report documents (risk_report_json_test), the
# serve protocol envelopes and params (serve_test, serve_v2_test), the
# golden pipeline bytes (golden_report_test), the matching cover
# against its oracle on randomized graphs (pruning_test), and the one
# matching enumerator with its consistency policies against a
# brute-force oracle (permanent_test, powerset_test,
# itemset_belief_test, sampler_test). Undefined
# behaviour aborts (-fno-sanitize-recover=undefined) and the standard
# library checks its own preconditions (-D_GLIBCXX_ASSERTIONS), so any
# finding fails the run.
#
# Usage:
#   scripts/check_asan.sh
#
# Skips gracefully (exit 0 with a notice) only when the toolchain cannot
# link -fsanitize=address.
set -uo pipefail
cd "$(dirname "$0")/.."

# Probe: can this toolchain produce an ASan binary at all?
probe_dir="$(mktemp -d)"
trap 'rm -rf "$probe_dir"' EXIT
cat > "$probe_dir/probe.cc" <<'PROBE'
int main() { return 0; }
PROBE
if ! c++ -fsanitize=address "$probe_dir/probe.cc" -o "$probe_dir/probe" \
     >/dev/null 2>&1; then
  echo "check_asan: SKIP (toolchain cannot link -fsanitize=address)"
  exit 0
fi

TESTS=(json_test data_test belief_io_test risk_report_json_test serve_test
       serve_v2_test golden_report_test pruning_test permanent_test
       powerset_test itemset_belief_test sampler_test)

set -e
cmake -B build-asan -S . -DANONSAFE_SANITIZE=ON \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      "-DCMAKE_CXX_FLAGS=-fno-sanitize-recover=undefined -D_GLIBCXX_ASSERTIONS" \
      >/dev/null
cmake --build build-asan --target "${TESTS[@]}" -j "$(nproc)"

status=0
for t in "${TESTS[@]}"; do
  echo "== ASan+UBSan: $t =="
  if ! ./build-asan/tests/"$t" --gtest_brief=1; then
    status=1
  fi
done

if [[ "$status" -ne 0 ]]; then
  echo "check_asan: FAIL (sanitizer finding or test failure)" >&2
  exit 1
fi
echo "check_asan: OK (${TESTS[*]} clean under ASan+UBSan)"
