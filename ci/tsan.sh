#!/usr/bin/env bash
# CI race gate for the two-level parallelism model (parx rank threads x
# intra-rank kernel threads): builds the `tsan` preset and runs the
# threaded-determinism, parx stress, BSR kernel property, halo-exchange,
# matrix-free equivalence, and serial/distributed equivalence suites
# under ThreadSanitizer (the equivalence suite drives the whole
# distributed matrix setup + solve — both assembled formats — across
# 1..8 rank threads; the matrix-free suite drives the SIMD element
# kernel across kernel-thread counts and the overlapped DistMf apply on
# 1..8 ranks; the halo suite drives the overlapped arrival-order ghost
# drain with staggered peer sends; the service suite drives the blocked
# multi-RHS solve path — one message per peer carrying k columns — across
# rank and kernel-thread counts in all three matrix formats; the scalar
# assembly suite drives the chunked block-size-1 assembly across kernel-
# thread counts; the equations golden suite drives the scalar service
# path — GMRES included — on 2 rank threads).
# Any reported race fails the build (TSAN_OPTIONS below aborts on the
# first report).
set -euo pipefail
cd "$(dirname "$0")/.."

cmake --preset tsan
cmake --build --preset tsan -j"$(nproc)" --target \
  test_threads_determinism test_parx_stress test_la_bsr_prop \
  test_serial_dist_equiv test_mf_equiv test_halo test_obs test_service \
  test_scalar_assembly_prop test_equations_golden test_dist_refine test_parx

export TSAN_OPTIONS="halt_on_error=1 abort_on_error=1 ${TSAN_OPTIONS:-}"
# Exercise the pool beyond the core count regardless of the CI machine.
export PROM_THREADS="${PROM_THREADS:-4}"

./build-tsan/tests/test_threads_determinism
./build-tsan/tests/test_parx_stress
./build-tsan/tests/test_la_bsr_prop
./build-tsan/tests/test_serial_dist_equiv
./build-tsan/tests/test_mf_equiv
./build-tsan/tests/test_halo
./build-tsan/tests/test_obs
./build-tsan/tests/test_service
# Scalar (block-size-1) stack: chunk-ordered assembly across kernel
# threads, and the non-symmetric Krylov drivers through the distributed
# service path.
./build-tsan/tests/test_scalar_assembly_prop
./build-tsan/tests/test_equations_golden
# Refined hierarchies: masked local smoothing and mesh repartitioning
# across 1..8 rank threads, plus the whole refine pipeline across
# kernel-thread counts.
./build-tsan/tests/test_dist_refine
# Rank failure: the abort flag and the mailbox wakeups it sends race with
# ranks entering and leaving their waits.
./build-tsan/tests/test_parx

echo "tsan gate: OK (no races reported)"
