// Kernel microbenchmarks (google-benchmark): the numerical and
// algorithmic primitives the solver spends its time in — SpMV (scalar CSR
// and 3x3 node-block BSR), the Galerkin triple product, smoothers
// (including the block-count ablation called out in DESIGN.md), greedy
// MIS, face identification, Delaunay insertion, and the exact geometric
// predicates' fast path. Emits BENCH_kernels.json with the CSR-vs-BSR
// format comparison. PROM_BENCH_SMOKE=1 shrinks every problem and caps
// the measuring time (the CI smoke lane).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "coarsen/classify.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "coarsen/coarsen.h"
#include "delaunay/delaunay.h"
#include "fem/assembly.h"
#include "fem/matrix_free.h"
#include "geom/predicates.h"
#include "graph/mis.h"
#include "graph/order.h"
#include "la/backend.h"
#include "la/bsr.h"
#include "la/dense.h"
#include "la/multivec.h"
#include "la/smoother_kernels.h"
#include "la/smoothers.h"
#include "mesh/generate.h"
#include "partition/greedy.h"

using namespace prom;

namespace {

// Read before the BENCHMARK registrations below run (same-TU static
// initialization order), so every ->Apply sees it.
const bool kSmoke = std::getenv("PROM_BENCH_SMOKE") != nullptr;

struct Assembled {
  mesh::Mesh mesh;
  fem::DofMap dofmap{0};
  la::Csr stiffness;
};

const Assembled& assembled(idx n) {
  static std::map<idx, Assembled> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    Assembled a;
    a.mesh = mesh::box_hex(n, n, n, {0, 0, 0}, {1, 1, 1});
    a.dofmap = fem::DofMap(a.mesh.num_vertices());
    a.dofmap.fix_all(a.mesh.vertices_where(
                         [](const Vec3& p) { return p.z < 1e-12; }),
                     0);
    a.dofmap.finalize();
    fem::FeProblem prob(a.mesh, {fem::Material{}}, a.dofmap);
    a.stiffness = fem::assemble_linear_system(prob).stiffness;
    it = cache.emplace(n, std::move(a)).first;
  }
  return it->second;
}

void BM_Spmv(benchmark::State& state) {
  const Assembled& a = assembled(static_cast<idx>(state.range(0)));
  std::vector<real> x(a.stiffness.ncols, 1.0), y(a.stiffness.nrows);
  for (auto _ : state) {
    a.stiffness.spmv(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.stiffness.nnz());
}
BENCHMARK(BM_Spmv)->Apply([](benchmark::internal::Benchmark* b) {
  if (kSmoke) b->Arg(8);
  else b->Arg(8)->Arg(12)->Arg(16);
});

void BM_GalerkinTripleProduct(benchmark::State& state) {
  const Assembled& a = assembled(static_cast<idx>(state.range(0)));
  const graph::Graph g = a.mesh.vertex_graph();
  const coarsen::Classification cls = coarsen::classify_mesh(a.mesh);
  const auto level =
      coarsen::coarsen_level(a.mesh.coords(), g, cls, 0, {});
  std::vector<idx> coarse_free;
  for (idx c = 0; c < static_cast<idx>(level.selected.size()); ++c) {
    for (int comp = 0; comp < 3; ++comp) {
      if (!a.dofmap.is_constrained(3 * level.selected[c] + comp)) {
        coarse_free.push_back(3 * c + comp);
      }
    }
  }
  const la::Csr r = coarsen::expand_restriction_to_dofs(
      level.r_vertex, a.dofmap.free_dofs(), coarse_free);
  for (auto _ : state) {
    const la::Csr coarse = la::galerkin_product(r, a.stiffness);
    benchmark::DoNotOptimize(coarse.nnz());
  }
}
BENCHMARK(BM_GalerkinTripleProduct)
    ->Apply([](benchmark::internal::Benchmark* b) {
      if (kSmoke) b->Arg(8);
      else b->Arg(8)->Arg(10);
    });

void BM_BlockJacobiSweep(benchmark::State& state) {
  // Block-count ablation: the paper's 6 blocks/1000 unknowns vs denser
  // and sparser alternatives.
  const Assembled& a = assembled(10);
  const idx per1000 = static_cast<idx>(state.range(0));
  std::vector<std::pair<idx, idx>> edges;
  for (idx i = 0; i < a.stiffness.nrows; ++i) {
    for (nnz_t k = a.stiffness.rowptr[i]; k < a.stiffness.rowptr[i + 1];
         ++k) {
      if (a.stiffness.colidx[k] > i) {
        edges.emplace_back(i, a.stiffness.colidx[k]);
      }
    }
  }
  const graph::Graph g = graph::Graph::from_edges(a.stiffness.nrows, edges);
  const la::CsrOperator op(a.stiffness);
  const la::Smoother smoother = la::Smoother::build(
      la::SerialBackend{}, op, a.stiffness, la::SmootherKind::kBlockJacobi,
      0.6, 3, partition::block_jacobi_blocks(g, per1000));
  std::vector<real> b(a.stiffness.nrows, 1.0), x(a.stiffness.nrows, 0.0);
  for (auto _ : state) {
    smoother.smooth(la::SerialBackend{}, op, b, x);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_BlockJacobiSweep)->Apply([](benchmark::internal::Benchmark* b) {
  if (kSmoke) b->Arg(6);
  else b->Arg(2)->Arg(6)->Arg(20);
});

void BM_GreedyMis(benchmark::State& state) {
  const Assembled& a = assembled(static_cast<idx>(state.range(0)));
  const graph::Graph g = a.mesh.vertex_graph();
  const auto order = graph::random_order(g.num_vertices(), 1);
  for (auto _ : state) {
    const auto mis = graph::greedy_mis(g, order, {});
    benchmark::DoNotOptimize(mis.selected.size());
  }
  state.SetItemsProcessed(state.iterations() * g.num_vertices());
}
BENCHMARK(BM_GreedyMis)->Apply([](benchmark::internal::Benchmark* b) {
  if (kSmoke) b->Arg(10);
  else b->Arg(12)->Arg(16);
});

void BM_FaceIdentification(benchmark::State& state) {
  const Assembled& a = assembled(static_cast<idx>(state.range(0)));
  const auto facets = mesh::boundary_facets(a.mesh);
  const auto adj = mesh::facet_adjacency(facets);
  for (auto _ : state) {
    const auto faces = coarsen::identify_faces(facets, adj);
    benchmark::DoNotOptimize(faces.num_faces);
  }
  state.SetItemsProcessed(state.iterations() * facets.size());
}
BENCHMARK(BM_FaceIdentification)
    ->Apply([](benchmark::internal::Benchmark* b) {
      if (kSmoke) b->Arg(10);
      else b->Arg(12)->Arg(16);
    });

void BM_DelaunayBuild(benchmark::State& state) {
  const idx n = static_cast<idx>(state.range(0));
  Rng rng(7);
  std::vector<Vec3> pts(static_cast<std::size_t>(n));
  for (Vec3& p : pts) {
    p = {rng.next_real(), rng.next_real(), rng.next_real()};
  }
  for (auto _ : state) {
    const delaunay::Delaunay3 dt(pts);
    benchmark::DoNotOptimize(dt.num_alive_tets());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DelaunayBuild)->Apply([](benchmark::internal::Benchmark* b) {
  if (kSmoke) b->Arg(200);
  else b->Arg(200)->Arg(1000);
});

void BM_Orient3dFastPath(benchmark::State& state) {
  Rng rng(3);
  std::vector<Vec3> pts(4000);
  for (Vec3& p : pts) {
    p = {rng.next_real(), rng.next_real(), rng.next_real()};
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const real d = orient3d(pts[i % 4000], pts[(i + 1) % 4000],
                            pts[(i + 2) % 4000], pts[(i + 3) % 4000]);
    benchmark::DoNotOptimize(d);
    ++i;
  }
}
BENCHMARK(BM_Orient3dFastPath);

// ---- threads sweep -------------------------------------------------------
//
// The two-level parallelism benchmarks: the same kernel at 1/2/4/8
// intra-rank threads on a >= 100k-DOF operator (box_hex(32) has ~104k free
// dofs). Each entry reports a "speedup_vs_1t" counter relative to the
// 1-thread entry of its own sweep so BENCH_*.json tracks the trajectory,
// and the SpMV sweep hard-fails if the threaded kernel is not bit-identical
// to the pre-change serial loop.

/// The pre-change serial SpMV, kept as the bit-identity reference.
void spmv_serial_reference(const la::Csr& a, const std::vector<real>& x,
                           std::vector<real>& y) {
  for (idx i = 0; i < a.nrows; ++i) {
    real sum = 0;
    for (nnz_t k = a.rowptr[i]; k < a.rowptr[i + 1]; ++k) {
      sum += a.vals[k] * x[a.colidx[k]];
    }
    y[i] = sum;
  }
}

/// Records the 1-thread mean time per sweep so later entries can report
/// their speedup. Keyed by (benchmark family, problem size).
double& one_thread_ns(const char* family, std::int64_t size) {
  static std::map<std::pair<std::string, std::int64_t>, double> base;
  return base[{family, size}];
}

/// Runs `body` once per benchmark iteration under `threads` kernel
/// threads, timing it manually, and attaches threads + speedup counters.
template <typename Body>
void run_thread_sweep(benchmark::State& state, const char* family,
                      const Body& body) {
  const std::int64_t size = state.range(0);
  const int threads = static_cast<int>(state.range(1));
  prom::common::set_kernel_threads(threads);
  double total_ns = 0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    total_ns += std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  }
  prom::common::set_kernel_threads(0);
  const double mean_ns =
      total_ns / static_cast<double>(std::max<std::int64_t>(
                     1, static_cast<std::int64_t>(state.iterations())));
  if (threads == 1) one_thread_ns(family, size) = mean_ns;
  state.counters["threads"] = threads;
  const double base = one_thread_ns(family, size);
  if (base > 0) state.counters["speedup_vs_1t"] = base / mean_ns;
}

void BM_SpmvThreads(benchmark::State& state) {
  const Assembled& a = assembled(static_cast<idx>(state.range(0)));
  std::vector<real> x(a.stiffness.ncols), y(a.stiffness.nrows),
      yref(a.stiffness.nrows);
  Rng rng(11);
  for (real& v : x) v = rng.next_real() - 0.5;
  // Bit-identity gate: the threaded kernel must match the serial loop
  // exactly at this sweep's thread count (rows are computed identically
  // regardless of the decomposition).
  spmv_serial_reference(a.stiffness, x, yref);
  prom::common::set_kernel_threads(static_cast<int>(state.range(1)));
  a.stiffness.spmv(x, y);
  prom::common::set_kernel_threads(0);
  if (std::memcmp(y.data(), yref.data(), y.size() * sizeof(real)) != 0) {
    std::fprintf(stderr,
                 "FATAL: threaded SpMV is not bit-identical to the serial "
                 "reference (threads=%ld)\n",
                 static_cast<long>(state.range(1)));
    std::abort();
  }
  run_thread_sweep(state, "spmv", [&] {
    a.stiffness.spmv(x, y);
    benchmark::DoNotOptimize(y.data());
  });
  state.SetItemsProcessed(state.iterations() * a.stiffness.nnz());
}
BENCHMARK(BM_SpmvThreads)->Apply([](benchmark::internal::Benchmark* b) {
  const std::int64_t n = kSmoke ? 12 : 32;
  for (const std::int64_t t : {1, 2, 4, 8}) {
    if (kSmoke && t > 2) continue;
    b->Args({n, t});
  }
});

void BM_ChebyshevSmootherThreads(benchmark::State& state) {
  const Assembled& a = assembled(static_cast<idx>(state.range(0)));
  const la::CsrOperator op(a.stiffness);
  const la::Smoother smoother =
      la::Smoother::build(la::SerialBackend{}, op, a.stiffness,
                          la::SmootherKind::kChebyshev, 0, 3);
  std::vector<real> b(a.stiffness.nrows, 1.0), x(a.stiffness.nrows, 0.0);
  run_thread_sweep(state, "chebyshev", [&] {
    smoother.smooth(la::SerialBackend{}, op, b, x);
    benchmark::DoNotOptimize(x.data());
  });
}
BENCHMARK(BM_ChebyshevSmootherThreads)
    ->Apply([](benchmark::internal::Benchmark* b) {
      const std::int64_t n = kSmoke ? 12 : 32;
      for (const std::int64_t t : {1, 2, 4, 8}) {
        if (kSmoke && t > 2) continue;
        b->Args({n, t});
      }
    });

void BM_GalerkinThreads(benchmark::State& state) {
  const Assembled& a = assembled(static_cast<idx>(state.range(0)));
  const graph::Graph g = a.mesh.vertex_graph();
  const coarsen::Classification cls = coarsen::classify_mesh(a.mesh);
  const auto level = coarsen::coarsen_level(a.mesh.coords(), g, cls, 0, {});
  std::vector<idx> coarse_free;
  for (idx c = 0; c < static_cast<idx>(level.selected.size()); ++c) {
    for (int comp = 0; comp < 3; ++comp) {
      if (!a.dofmap.is_constrained(3 * level.selected[c] + comp)) {
        coarse_free.push_back(3 * c + comp);
      }
    }
  }
  const la::Csr r = coarsen::expand_restriction_to_dofs(
      level.r_vertex, a.dofmap.free_dofs(), coarse_free);
  run_thread_sweep(state, "galerkin", [&] {
    const la::Csr coarse = la::galerkin_product(r, a.stiffness);
    benchmark::DoNotOptimize(coarse.nnz());
  });
}
BENCHMARK(BM_GalerkinThreads)->Apply([](benchmark::internal::Benchmark* b) {
  const std::int64_t n = kSmoke ? 8 : 16;
  for (const std::int64_t t : {1, 2, 4, 8}) {
    if (kSmoke && t > 2) continue;
    b->Args({n, t});
  }
});

void BM_AssemblyThreads(benchmark::State& state) {
  const Assembled& a = assembled(static_cast<idx>(state.range(0)));
  fem::FeProblem prob(a.mesh, {fem::Material{}}, a.dofmap);
  const std::vector<real> u(a.dofmap.num_dofs(), 0.0);
  run_thread_sweep(state, "assembly", [&] {
    const auto res = prob.assemble(u, true);
    benchmark::DoNotOptimize(res.stiffness.nnz());
  });
  state.SetItemsProcessed(state.iterations() * a.mesh.num_cells());
}
BENCHMARK(BM_AssemblyThreads)->Apply([](benchmark::internal::Benchmark* b) {
  const std::int64_t n = kSmoke ? 6 : 12;
  for (const std::int64_t t : {1, 2, 4, 8}) {
    if (kSmoke && t > 2) continue;
    b->Args({n, t});
  }
});

void BM_Assembly(benchmark::State& state) {
  const Assembled& a = assembled(static_cast<idx>(state.range(0)));
  fem::FeProblem prob(a.mesh, {fem::Material{}}, a.dofmap);
  const std::vector<real> u(a.dofmap.num_dofs(), 0.0);
  for (auto _ : state) {
    const auto res = prob.assemble(u, true);
    benchmark::DoNotOptimize(res.stiffness.nnz());
  }
  state.SetItemsProcessed(state.iterations() * a.mesh.num_cells());
}
BENCHMARK(BM_Assembly)->Apply([](benchmark::internal::Benchmark* b) {
  if (kSmoke) b->Arg(6);
  else b->Arg(8)->Arg(12);
});

// ---- matrix-format comparison -------------------------------------------
//
// Scalar CSR (AIJ) vs 3x3 node-block BSR (BAIJ) vs the matrix-free
// element apply on the elasticity operator, 1 kernel thread — the paper
// ran Prometheus on PETSc block matrices for the column-index-traffic
// effect, and the matrix-free fine level (fem/matrix_free.h) removes the
// stored matrix from the apply stream altogether. Reports ns/dof and a
// bytes/dof traffic model per format, plus a >= 100k-unknown scale entry
// where the matrix-free bytes/dof must undercut assembled CSR. Timed
// manually (best mean over repetitions) and written to BENCH_kernels.json
// so the perf trajectory tracks the speedups.

/// Mean ns/op of the best of `reps` batches of `iters` calls.
template <typename Body>
double best_mean_ns(int reps, int iters, const Body& body) {
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) body();
    const double ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - t0)
                          .count() /
                      iters;
    if (r == 0 || ns < best) best = ns;
  }
  return best;
}

/// Apply-stream traffic of the scalar CSR SpMV in bytes per output row:
/// vals + colidx + rowptr once each, x and y once each (perfect cache).
double csr_bytes_per_dof(const la::Csr& a) {
  const double bytes =
      static_cast<double>(a.nnz()) * (sizeof(real) + sizeof(idx)) +
      static_cast<double>(a.rowptr.size()) * sizeof(nnz_t) +
      static_cast<double>(a.ncols + a.nrows) * sizeof(real);
  return bytes / a.nrows;
}

/// Same traffic model for the 3x3 node-block BSR: block values + one
/// column index per block + block rowptr + x and y.
double bsr3_bytes_per_dof(const la::Bsr3& ab) {
  const double bytes =
      static_cast<double>(ab.vals.size()) * sizeof(real) +
      static_cast<double>(ab.bcolidx.size()) * sizeof(idx) +
      static_cast<double>(ab.browptr.size()) * sizeof(nnz_t) +
      static_cast<double>(ab.cols() + ab.rows()) * sizeof(real);
  return bytes / ab.rows();
}

int run_format_comparison() {
  // Unconstrained elasticity: every vertex keeps its 3 dofs, so the
  // scalar operator blocks losslessly and both formats do identical
  // arithmetic on identical vectors.
  const idx n = kSmoke ? 8 : 16;
  mesh::Mesh mesh = mesh::box_hex(n, n, n, {0, 0, 0}, {1, 1, 1});
  fem::DofMap dofmap(mesh.num_vertices());
  const std::vector<fem::Material> materials(1);
  fem::FeProblem prob(mesh, materials, dofmap);
  const la::Csr a = fem::assemble_linear_system(prob).stiffness;
  const la::Bsr3 ab = la::Bsr3::from_csr(a);
  const fem::MatrixFreeOperator mf =
      fem::MatrixFreeOperator::build(mesh, materials, dofmap);

  std::vector<real> x(static_cast<std::size_t>(a.ncols));
  Rng rng(5);
  for (real& v : x) v = rng.next_real() - 0.5;
  std::vector<real> y(static_cast<std::size_t>(a.nrows));
  std::vector<real> yb(y.size());
  std::vector<real> ym(y.size());

  common::set_kernel_threads(1);
  const int reps = kSmoke ? 3 : 5;
  const int iters = kSmoke ? 5 : 40;
  const double csr_spmv = best_mean_ns(reps, iters, [&] {
    a.spmv(x, y);
    benchmark::DoNotOptimize(y.data());
  });
  const double bsr_spmv = best_mean_ns(reps, iters, [&] {
    ab.spmv(x, yb);
    benchmark::DoNotOptimize(yb.data());
  });
  const double mf_apply = best_mean_ns(reps, iters, [&] {
    mf.apply(x, ym);
    benchmark::DoNotOptimize(ym.data());
  });
  if (std::memcmp(y.data(), yb.data(), y.size() * sizeof(real)) != 0) {
    std::fprintf(stderr,
                 "FATAL: blocked SpMV is not bit-identical to scalar CSR\n");
    return 1;
  }
  // The matrix-free apply sums element contributions instead of matrix
  // rows — same operator to reassociation rounding, not bitwise.
  {
    real scale = 0;
    real err = 0;
    for (std::size_t i = 0; i < y.size(); ++i) {
      scale = std::max(scale, std::fabs(y[i]));
      err = std::max(err, std::fabs(ym[i] - y[i]));
    }
    if (err > 1e-12 * scale) {
      std::fprintf(stderr,
                   "FATAL: matrix-free apply deviates from CSR by %.3e "
                   "(scale %.3e)\n",
                   err, scale);
      return 1;
    }
  }

  // One smoother sweep: scalar Jacobi vs the point-block sweep that
  // back-solves each 3x3 node block.
  std::vector<idx> all_dofs(static_cast<std::size_t>(a.nrows));
  for (idx i = 0; i < a.nrows; ++i) all_dofs[i] = i;
  const la::BsrOperator op(ab, la::node_block_map(all_dofs));
  const la::CsrOperator sop(a);
  const std::vector<real> inv_diag = la::inverted_diagonal(a);
  const std::vector<real> inv_blocks = ab.inverted_block_diagonal();
  const std::vector<real> b(static_cast<std::size_t>(a.nrows), 1.0);
  std::vector<real> xs(b.size(), 0.0);
  const double csr_sweep = best_mean_ns(reps, iters, [&] {
    la::jacobi_sweep(la::SerialBackend{}, sop, inv_diag, 0.6, b, xs);
    benchmark::DoNotOptimize(xs.data());
  });
  std::fill(xs.begin(), xs.end(), 0.0);
  const double bsr_sweep = best_mean_ns(reps, iters, [&] {
    la::pointblock_jacobi_sweep<3>(la::SerialBackend{}, op, inv_blocks, 0.6,
                                   b, xs);
    benchmark::DoNotOptimize(xs.data());
  });
  // Fine-level scale point (>= 100k unknowns non-smoke: the n=32 box has
  // 33^3 * 3 = 107,811 free dofs). Here the assembled matrix blows out of
  // cache and the bytes/dof model decides the apply speed — the
  // matrix-free stream must undercut assembled CSR (the acceptance bar).
  const idx n_scale = kSmoke ? 8 : 32;
  mesh::Mesh mesh_s = mesh::box_hex(n_scale, n_scale, n_scale, {0, 0, 0},
                                    {1, 1, 1});
  fem::DofMap dofmap_s(mesh_s.num_vertices());
  fem::FeProblem prob_s(mesh_s, materials, dofmap_s);
  const la::Csr a_s = fem::assemble_linear_system(prob_s).stiffness;
  const fem::MatrixFreeOperator mf_s =
      fem::MatrixFreeOperator::build(mesh_s, materials, dofmap_s);
  std::vector<real> x_s(static_cast<std::size_t>(a_s.ncols));
  for (real& v : x_s) v = rng.next_real() - 0.5;
  std::vector<real> y_s(static_cast<std::size_t>(a_s.nrows));
  const int iters_s = kSmoke ? 3 : 5;
  const double csr_spmv_s = best_mean_ns(2, iters_s, [&] {
    a_s.spmv(x_s, y_s);
    benchmark::DoNotOptimize(y_s.data());
  });
  const double mf_apply_s = best_mean_ns(2, iters_s, [&] {
    mf_s.apply(x_s, y_s);
    benchmark::DoNotOptimize(y_s.data());
  });
  // The blocked CSR kernel at widths 1 and 8 on the same matrix (ns per
  // call; per stored nonzero and column below), and the dense LDL^T
  // block solve at the paper's block-Jacobi block size for 1 and 8
  // columns — the two kernels of a warm solve's smoother and coarse solve.
  auto spmm_ns = [&](int k) {
    la::MultiVec xk(a.ncols, k), yk(a.nrows, k);
    for (int j = 0; j < k; ++j) std::copy(x.begin(), x.end(), xk.col_data(j));
    return best_mean_ns(reps, iters, [&] {
      a.spmv(xk, yk);
      benchmark::DoNotOptimize(yk.data());
    });
  };
  const double spmm1 = spmm_ns(1);
  const double spmm8 = spmm_ns(8);
  const double nnz = static_cast<double>(a.nnz());
  const idx nblk = 167;
  la::DenseMatrix blk(nblk, nblk);
  for (idx j = 0; j < nblk; ++j) {
    for (idx i = j + 1; i < nblk; ++i) {
      blk(i, j) = blk(j, i) = rng.next_real() - 0.5;
    }
    blk(j, j) = nblk;
  }
  const la::DenseLdlt ldlt(blk);
  auto ldlt_ns = [&](int k) {
    std::vector<real> bk(static_cast<std::size_t>(nblk) * k);
    for (real& v : bk) v = rng.next_real() - 0.5;
    std::vector<real> xk(bk.size());
    return best_mean_ns(reps, 4 * iters, [&] {
      ldlt.solve_mv(bk, xk, k, nblk);
      benchmark::DoNotOptimize(xk.data());
    });
  };
  const double ldlt1 = ldlt_ns(1);
  const double ldlt8 = ldlt_ns(8);
  common::set_kernel_threads(0);

  const double spmv_speedup = csr_spmv / bsr_spmv;
  const double sweep_speedup = csr_sweep / bsr_sweep;
  const double csr_bytes = csr_bytes_per_dof(a);
  const double bsr_bytes = bsr3_bytes_per_dof(ab);
  const double mf_bytes = mf.core().apply_bytes_per_row();
  const double csr_bytes_s = csr_bytes_per_dof(a_s);
  const double mf_bytes_s = mf_s.core().apply_bytes_per_row();
  std::printf(
      "\nmatrix-format comparison (1 thread, %d unknowns, nnz %lld):\n"
      "  spmv      csr %8.0f ns  bsr3 %8.0f ns  speedup %.2fx\n"
      "  mf apply  %8.0f ns  (%.2fx vs csr spmv)\n"
      "  jacobi    csr %8.0f ns  bsr3 %8.0f ns  speedup %.2fx\n"
      "  ns/dof    csr %8.2f     bsr3 %8.2f     mf %8.2f\n"
      "  bytes/dof csr %8.1f     bsr3 %8.1f     mf %8.1f\n"
      "fine-level scale point (%d unknowns):\n"
      "  ns/dof    csr %8.2f     mf %8.2f\n"
      "  bytes/dof csr %8.1f     mf %8.1f  (mf %s csr)\n"
      "csr spmm    k=1 %8.3f ns/nnz  k=8 %8.3f ns/nnz/col  (spmv %.3f)\n"
      "ldlt solve  n=%d  k=1 %8.0f ns  k=8 %8.0f ns (%.0f ns/col)\n",
      a.nrows, static_cast<long long>(a.nnz()), csr_spmv, bsr_spmv,
      spmv_speedup, mf_apply, csr_spmv / mf_apply, csr_sweep, bsr_sweep,
      sweep_speedup, csr_spmv / a.nrows, bsr_spmv / a.nrows,
      mf_apply / a.nrows, csr_bytes, bsr_bytes, mf_bytes, a_s.nrows,
      csr_spmv_s / a_s.nrows, mf_apply_s / a_s.nrows, csr_bytes_s,
      mf_bytes_s, mf_bytes_s < csr_bytes_s ? "<" : ">=", spmm1 / nnz,
      spmm8 / (8 * nnz), csr_spmv / nnz, nblk, ldlt1, ldlt8, ldlt8 / 8);

  std::FILE* json = std::fopen("BENCH_kernels.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_kernels.json\n");
    return 1;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"kernels\",\n  \"unknowns\": %d,\n"
               "  \"nnz\": %lld,\n  \"threads\": 1,\n"
               "  \"spmv\": {\"csr_ns\": %.1f, \"bsr3_ns\": %.1f, "
               "\"speedup\": %.3f},\n"
               "  \"jacobi_sweep\": {\"csr_ns\": %.1f, \"bsr3_ns\": %.1f, "
               "\"speedup\": %.3f},\n"
               "  \"mf_apply\": {\"ns\": %.1f, \"ns_per_dof\": %.3f, "
               "\"vs_csr_spmv\": %.3f},\n"
               "  \"bytes_per_dof\": {\"csr\": %.1f, \"bsr3\": %.1f, "
               "\"mf\": %.1f},\n"
               "  \"mf_scale\": {\"unknowns\": %d, "
               "\"csr_ns_per_dof\": %.3f, \"mf_ns_per_dof\": %.3f, "
               "\"csr_bytes_per_dof\": %.1f, \"mf_bytes_per_dof\": %.1f},\n"
               "  \"csr_spmm_k1\": {\"ns\": %.1f, \"ns_per_nnz\": %.3f},\n"
               "  \"csr_spmm_k8\": {\"ns\": %.1f, \"ns_per_nnz\": %.3f},\n"
               "  \"ldlt_solve\": {\"n\": %d, \"k1_ns\": %.1f, "
               "\"k8_ns\": %.1f}\n"
               "}\n",
               a.nrows, static_cast<long long>(a.nnz()), csr_spmv, bsr_spmv,
               spmv_speedup, csr_sweep, bsr_sweep, sweep_speedup, mf_apply,
               mf_apply / a.nrows, csr_spmv / mf_apply, csr_bytes, bsr_bytes,
               mf_bytes, a_s.nrows, csr_spmv_s / a_s.nrows,
               mf_apply_s / a_s.nrows, csr_bytes_s, mf_bytes_s, spmm1,
               spmm1 / nnz, spmm8, spmm8 / (8 * nnz), nblk, ldlt1, ldlt8);
  std::fclose(json);
  std::printf("wrote BENCH_kernels.json\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  // The smoke lane keeps google-benchmark's measuring time short; any
  // explicit --benchmark_min_time on the command line still wins (later
  // flags override).
  std::string min_time = "--benchmark_min_time=0.02";
  if (kSmoke) args.insert(args.begin() + 1, min_time.data());
  int argcx = static_cast<int>(args.size());
  benchmark::Initialize(&argcx, args.data());
  if (benchmark::ReportUnrecognizedArguments(argcx, args.data())) return 1;
  if (const int rc = run_format_comparison(); rc != 0) return rc;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
