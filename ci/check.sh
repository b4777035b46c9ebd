#!/usr/bin/env bash
# The one-command CI gate: optimized build + tier-1 test suite, the same
# suite again under Address/UB sanitizers, then the ThreadSanitizer race
# gate (ci/tsan.sh). Everything a PR must pass.
#
# By default only tier-1 tests run (`ctest -L tier1`) — the fast PR gate.
# Pass --full to also run slow-labelled tests in both configurations, the
# nightly-style full lane.
#
# `ci/check.sh --self-test` checks only the doc-only skip decision below
# against sample file lists and exits (it also runs as a tier-1 ctest).
set -euo pipefail
cd "$(dirname "$0")/.."

# True when the newline-separated file list on stdin is non-empty and every
# path is documentation: a Markdown file or the top-level LICENSE. Build
# files (CMakeLists.txt, presets), scripts and sources never are.
doc_only() {
  local changed
  changed="$(cat)"
  [[ -n "${changed}" ]] &&
    ! grep -qvE '(^|/)[^/]+\.md$|^LICENSE$' <<<"${changed}"
}

if [[ "${1:-}" == "--self-test" ]]; then
  fail=0
  expect() {  # expect skip|gate <file list>
    local got=gate
    if doc_only <<<"$2"; then got=skip; fi
    if [[ "${got}" != "$1" ]]; then
      echo "ci/check.sh --self-test: '${2//$'\n'/ }' gave ${got}, want $1"
      fail=1
    fi
  }
  expect skip 'README.md'
  expect skip $'CHANGES.md\nsolverbench/README.md'
  expect skip 'LICENSE'
  expect gate 'CMakeLists.txt'
  expect gate 'tests/CMakeLists.txt'
  expect gate $'README.md\nsrc/CMakeLists.txt'
  expect gate 'CMakePresets.json'
  expect gate 'ci/check.sh'
  expect gate 'src/la/csr.cpp'
  expect gate 'notes.txt'
  expect gate 'docs.md.in'
  expect gate 'src/LICENSE'
  expect gate ''
  if [[ "${fail}" != 0 ]]; then exit 1; fi
  echo "ci/check.sh --self-test: OK"
  exit 0
fi

label_args=(-L tier1)
if [[ "${1:-}" == "--full" ]]; then
  label_args=()
  shift
fi

# Doc-only short-circuit: a committed diff that touches nothing but
# documentation cannot change a build or a test, so skip the whole gate.
# Only taken when the working tree is clean (local uncommitted edits are
# exactly what a local run wants checked) and a comparison base exists;
# PROM_CI_NO_DOC_SKIP=1 forces the full gate regardless.
if [[ "${PROM_CI_NO_DOC_SKIP:-0}" != "1" && -z "$(git status --porcelain 2>/dev/null)" ]]; then
  base="$(git merge-base HEAD origin/main 2>/dev/null ||
          git rev-parse HEAD~1 2>/dev/null || true)"
  if [[ -n "${base}" && "${base}" != "$(git rev-parse HEAD)" ]]; then
    if git diff --name-only "${base}" HEAD | doc_only; then
      echo "ci/check.sh: doc-only diff ${base:0:12}..HEAD — skipping gate"
      exit 0
    fi
  fi
fi

# ccache visibility: print hit/miss stats after every build step so cache
# effectiveness (and a cold or thrashing CI cache) shows up in the log.
ccache_epilogue() {
  if command -v ccache >/dev/null 2>&1; then
    echo "--- ccache stats after $1 build ---"
    ccache -s || true
  fi
}

cmake --preset release
cmake --build --preset release -j"$(nproc)"
ccache_epilogue release
ctest --test-dir build-release --output-on-failure -j"$(nproc)" \
  "${label_args[@]}"

cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j"$(nproc)"
ccache_epilogue asan-ubsan
ctest --preset asan-ubsan -j"$(nproc)" "${label_args[@]}"

# The matrix-free equivalence battery gets an explicit direct run under
# ASan/UBSan on top of the labelled ctest pass: it exercises the SIMD
# element kernel's raw slot gathers and the overlapped DistMf ghost
# indexing — exactly where an out-of-bounds lane would hide.
./build-asan-ubsan/tests/test_mf_equiv

./ci/tsan.sh
ccache_epilogue tsan

echo "ci/check.sh: OK"
