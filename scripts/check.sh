#!/usr/bin/env bash
# CI entry point: reproduces the tier-1 verify and the correctness
# gates outside developer shells.
#
# Usage:
#   scripts/check.sh             # full verify: configure, build, ctest
#                                # (includes the sf-lint ctest hook);
#                                # prints which gates it did NOT run
#   scripts/check.sh --smoke     # quick pass: build + brief-output
#                                # gtest binaries only (no ctest)
#   scripts/check.sh --quick     # build + `ctest -L quick`: only the
#                                # sub-second suites (see
#                                # SF_QUICK_SUITES in CMakeLists.txt),
#                                # for the edit-compile-test loop
#   scripts/check.sh --sanitize  # ASan+UBSan build into build-asan/
#                                # and the full ctest suite under it
#   scripts/check.sh --tsan      # ThreadSanitizer build into
#                                # build-tsan/ and the quick + stream
#                                # suites under it (tsan.supp holds
#                                # the suppressions; SF_TSAN_BUDGET_SEC
#                                # caps the ctest wall time)
#   scripts/check.sh --tidy      # clang-tidy over src/*.cpp via the
#                                # exported compile_commands.json
#                                # (.clang-tidy is the profile); skips
#                                # with a warning when clang-tidy is
#                                # not installed.  Report:
#                                # build-tidy/tidy-report.txt
#   scripts/check.sh --lint      # scripts/sf_lint.py standalone.
#                                # Report: build/sf_lint/report.txt
#   scripts/check.sh --soak      # hostile-conditions soak gate
#                                # (scripts/soak_gate.sh): a faulted
#                                # 8-session fleet swept over worker
#                                # counts, gated on chunk conservation,
#                                # determinism and the deadlock budget.
#                                # Report: build/soak/
#
# All modes exit non-zero on the first failure.  BUILD_DIR overrides
# the build directory (the sanitize/tsan/tidy modes default to their
# own build-*/ trees so an instrumented tree never dirties the
# Release cache).

set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

mode="full"
case "${1:-}" in
    "") ;;
    --smoke) mode="smoke" ;;
    --quick) mode="quick" ;;
    --sanitize) mode="sanitize" ;;
    --tsan) mode="tsan" ;;
    --tidy) mode="tidy" ;;
    --lint) mode="lint" ;;
    --soak) mode="soak" ;;
    *)
        echo "usage: $0 [--smoke|--quick|--sanitize|--tsan|--tidy|--lint|--soak]" >&2
        exit 2
        ;;
esac

cd "${repo_root}"

# ---- modes that need no compiled tree --------------------------------

if [[ "${mode}" == "lint" ]]; then
    report_dir="${repo_root}/build/sf_lint"
    mkdir -p "${report_dir}"
    python3 scripts/sf_lint.py --root "${repo_root}" \
        --report "${report_dir}/report.txt"
    echo "lint: sf-lint clean (report: ${report_dir}/report.txt)"
    exit 0
fi

if [[ "${mode}" == "soak" ]]; then
    # Delegates to the soak gate (which configures/builds what it
    # needs); kept as a check.sh mode so CI and developers share one
    # entry point.
    exec "${repo_root}/scripts/soak_gate.sh"
fi

if [[ "${mode}" == "tidy" ]]; then
    build_dir="${BUILD_DIR:-${repo_root}/build-tidy}"
    if ! command -v clang-tidy >/dev/null 2>&1; then
        echo "tidy: SKIPPED — clang-tidy is not installed." >&2
        echo "tidy: the CI static-analysis job runs this gate; install" >&2
        echo "tidy: clang-tidy to reproduce it locally." >&2
        exit 0
    fi
    # Configure only: clang-tidy needs compile_commands.json, not
    # object files.  Tests are excluded — the gate covers src/.
    cmake -B "${build_dir}" -S . -DBUILD_TESTING=OFF >/dev/null
    mkdir -p "${build_dir}"
    report="${build_dir}/tidy-report.txt"
    # Collect the library TUs from the export so the file list can
    # never drift from what actually builds.
    mapfile -t tidy_sources < <(
        python3 - "${build_dir}/compile_commands.json" <<'EOF'
import json, sys
for entry in json.load(open(sys.argv[1])):
    f = entry["file"]
    if "/src/" in f and f.endswith(".cpp"):
        print(f)
EOF
    )
    echo "tidy: checking ${#tidy_sources[@]} TUs under src/"
    status=0
    # --warnings-as-errors promotes every profile finding; the extra
    # args keep clang from tripping over GCC-only warning flags
    # recorded in the compile commands.
    clang-tidy -p "${build_dir}" \
        --warnings-as-errors='*' \
        --extra-arg=-Wno-unknown-warning-option \
        --extra-arg=-Wno-unused-command-line-argument \
        "${tidy_sources[@]}" 2>&1 | tee "${report}" || status=$?
    if [[ ${status} -ne 0 ]]; then
        echo "tidy: FAILED (report: ${report})" >&2
        exit 1
    fi
    echo "tidy: clang-tidy clean on src/ (report: ${report})"
    exit 0
fi

# ---- compiled modes --------------------------------------------------

if [[ "${mode}" == "sanitize" ]]; then
    build_dir="${BUILD_DIR:-${repo_root}/build-asan}"
    # RelWithDebInfo keeps the DP kernels fast enough to finish while
    # ASan watches every access; halt on the first UBSan report.
    configure_args=(-DSF_SANITIZE=address -DCMAKE_BUILD_TYPE=RelWithDebInfo)
    export ASAN_OPTIONS="${ASAN_OPTIONS:-abort_on_error=1}"
    export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}"
elif [[ "${mode}" == "tsan" ]]; then
    build_dir="${BUILD_DIR:-${repo_root}/build-tsan}"
    configure_args=(-DSF_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo)
    # Zero unsuppressed reports: any race fails the run immediately.
    export TSAN_OPTIONS="${TSAN_OPTIONS:-suppressions=${repo_root}/tsan.supp halt_on_error=1 second_deadlock_stack=1}"
else
    build_dir="${BUILD_DIR:-${repo_root}/build}"
    configure_args=()
fi

# Tier-1 verify, verbatim (see ROADMAP.md).
cmake -B "${build_dir}" -S . "${configure_args[@]}"
cmake --build "${build_dir}" -j"$(nproc)"

if [[ "${mode}" == "smoke" ]]; then
    # Brief mode: run each test binary directly with minimal output.
    for test_bin in "${build_dir}"/test_*; do
        [[ -x "${test_bin}" ]] || continue
        echo "== $(basename "${test_bin}")"
        "${test_bin}" --gtest_brief=1
    done
    echo "smoke: all test binaries green"
elif [[ "${mode}" == "quick" ]]; then
    cd "${build_dir}"
    ctest --output-on-failure -j "$(nproc)" -L quick
    echo "quick: sub-second suites green (full suite: scripts/check.sh)"
elif [[ "${mode}" == "tsan" ]]; then
    cd "${build_dir}"
    tsan_start=${SECONDS}
    # The TSan contract: the quick-label suites (which include the
    # QosQueue stress tests and sf-lint) plus the
    # streaming-engine suites run with zero unsuppressed reports.
    # NB: ctest's bare `-j` (no value) swallows the next flag on
    # CMake < 3.29, silently dropping the label filter — always pass
    # an explicit job count here.
    ctest --output-on-failure -j "$(nproc)" -L 'quick|stream'
    tsan_elapsed=$(( SECONDS - tsan_start ))
    tsan_budget="${SF_TSAN_BUDGET_SEC:-900}"
    if (( tsan_elapsed > tsan_budget )); then
        echo "tsan: FAILED — suites took ${tsan_elapsed}s," \
             "budget is ${tsan_budget}s (SF_TSAN_BUDGET_SEC)." >&2
        echo "tsan: trim the stress tests or move slow cases out of" \
             "the quick/stream labels before raising the budget." >&2
        exit 1
    fi
    echo "tsan: quick + stream suites TSan-clean in ${tsan_elapsed}s" \
         "(budget ${tsan_budget}s)"
else
    cd "${build_dir}"
    ctest --output-on-failure -j "$(nproc)"
    echo
    echo "check: full suite green (sf-lint ran as the tooling.sf_lint"
    echo "check: ctest case).  Gates NOT run in this pass:"
    echo "check:   --sanitize  (ASan+UBSan, build-asan/)"
    echo "check:   --tsan      (ThreadSanitizer, build-tsan/)"
    echo "check:   --tidy      (clang-tidy over src/, build-tidy/)"
    echo "check: CI runs all of them; run the flags above to reproduce."
fi
