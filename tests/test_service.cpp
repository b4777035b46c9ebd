// The solve service: fingerprint-keyed hierarchy caching (hit/miss/LRU
// eviction semantics) and column-blocked multi-RHS solves. The bitwise
// gates are the determinism contract: column j of a k-RHS solve is
// identical to a standalone solve of that RHS at any kernel-thread count,
// rank count, and matrix format.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>
#include <vector>

#include "app/service.h"
#include "common/error.h"
#include "common/parallel.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace prom::app {
namespace {

struct EnvGuard {
  ~EnvGuard() { common::set_kernel_threads(0); }
};

constexpr int kThreadCounts[] = {1, 2, 8};

ServiceConfig small_config(int nranks, mg::MatrixFormat format) {
  ServiceConfig sc;
  sc.nranks = nranks;
  sc.format = format;
  sc.mg.coarsest_max_dofs = 60;  // multi-level hierarchy on a small box
  return sc;
}

/// Distinct, smoothly varying right-hand sides so the columns converge at
/// different iteration counts (exercises per-column masking).
la::MultiVec make_rhs_block(idx n, int k) {
  la::MultiVec b(n, k);
  for (int j = 0; j < k; ++j) {
    real* bj = b.col_data(j);
    for (idx i = 0; i < n; ++i) {
      bj[i] = std::sin(real{0.01} * static_cast<real>(i + 1) *
                       static_cast<real>(j + 1)) +
              real{0.1} * static_cast<real>(j + 1);
    }
  }
  return b;
}

void expect_bitwise_equal(std::span<const real> a, std::span<const real> b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(real)), 0);
}

/// Solves each column of `rhs` standalone and checks the k-RHS solve of
/// the full block reproduces every column bitwise (solutions and Krylov
/// results alike).
void check_blocked_matches_single(SolveService& service,
                                  const la::MultiVec& rhs) {
  SolveRequest req;
  req.mesh_id = "box";
  const int k = rhs.cols();

  std::vector<SolveResponse> singles;
  for (int j = 0; j < k; ++j) {
    req.rhs = la::MultiVec(rhs.rows(), 1);
    std::copy(rhs.col(j).begin(), rhs.col(j).end(), req.rhs.col(0).begin());
    singles.push_back(service.solve(req));
  }

  req.rhs = rhs;
  const SolveResponse multi = service.solve(req);
  ASSERT_EQ(multi.results.size(), static_cast<std::size_t>(k));
  for (int j = 0; j < k; ++j) {
    SCOPED_TRACE("column " + std::to_string(j));
    EXPECT_EQ(multi.results[j].iterations, singles[j].results[0].iterations);
    EXPECT_EQ(multi.results[j].converged, singles[j].results[0].converged);
    EXPECT_EQ(multi.results[j].final_relres,
              singles[j].results[0].final_relres);
    expect_bitwise_equal(multi.solutions.col(j),
                         singles[j].solutions.col(0));
  }
}

TEST(ServiceCache, HitMissAndFingerprintSemantics) {
  SolveService service(small_config(2, mg::MatrixFormat::kCsr));
  service.register_problem("box", make_box_problem(4));

  const EntryHandle first = service.acquire("box");
  EXPECT_EQ(service.cache_misses(), 1);
  EXPECT_EQ(service.cache_hits(), 0);
  const EntryHandle second = service.acquire("box");
  EXPECT_EQ(service.cache_misses(), 1);
  EXPECT_EQ(service.cache_hits(), 1);
  EXPECT_EQ(first.get(), second.get());  // same cached setup
  EXPECT_EQ(service.cache_size(), 1u);

  // Any option that shapes the hierarchy must change the key: distinct
  // options resolve to distinct cache entries.
  const std::string base = service.fingerprint("box");
  EXPECT_NE(base, service.fingerprint("other-mesh"));
  {
    ServiceConfig sc = small_config(2, mg::MatrixFormat::kBsr3);
    EXPECT_NE(base, SolveService(sc).fingerprint("box"));
  }
  {
    ServiceConfig sc = small_config(4, mg::MatrixFormat::kCsr);
    EXPECT_NE(base, SolveService(sc).fingerprint("box"));
  }
  {
    ServiceConfig sc = small_config(2, mg::MatrixFormat::kCsr);
    sc.cycle = mg::CycleKind::kV;
    EXPECT_NE(base, SolveService(sc).fingerprint("box"));
  }
  {
    ServiceConfig sc = small_config(2, mg::MatrixFormat::kCsr);
    sc.mg.smoother = mg::SmootherKind::kChebyshev;
    EXPECT_NE(base, SolveService(sc).fingerprint("box"));
  }
  {
    ServiceConfig sc = small_config(2, mg::MatrixFormat::kCsr);
    sc.mg.coarsen.seed ^= 1;
    EXPECT_NE(base, SolveService(sc).fingerprint("box"));
  }
  // The identical config reproduces the identical key.
  EXPECT_EQ(base,
            SolveService(small_config(2, mg::MatrixFormat::kCsr))
                .fingerprint("box"));
}

TEST(ServiceCache, SolveReportsHitAndReusesSetup) {
  SolveService service(small_config(2, mg::MatrixFormat::kCsr));
  service.register_problem("box", make_box_problem(4));

  SolveRequest req;
  req.mesh_id = "box";
  const SolveResponse cold = service.solve(req);
  EXPECT_FALSE(cold.cache_hit);
  const SolveResponse warm = service.solve(req);
  EXPECT_TRUE(warm.cache_hit);
  // Same setup, same rhs, workspace reuse: bitwise repeatable.
  ASSERT_EQ(cold.results.size(), 1u);
  ASSERT_EQ(warm.results.size(), 1u);
  EXPECT_TRUE(cold.results[0].converged);
  EXPECT_EQ(cold.results[0].iterations, warm.results[0].iterations);
  expect_bitwise_equal(cold.solutions.col(0), warm.solutions.col(0));
}

TEST(ServiceCache, CachedRequestSkipsSetupPhases) {
  SolveService service(small_config(2, mg::MatrixFormat::kCsr));
  service.register_problem("box", make_box_problem(4));
  SolveRequest req;
  req.mesh_id = "box";
  service.solve(req);  // cold: populates the cache

  obs::Tracer& tracer = obs::Tracer::instance();
  const bool was_tracing = obs::tracing();
  tracer.set_enabled(true);
  const std::int64_t mark = obs::Tracer::now_ns();
  const SolveResponse warm = service.solve(req);
  tracer.set_enabled(was_tracing);
  const obs::Report rep = obs::build_report(mark);

  EXPECT_TRUE(warm.cache_hit);
  // A cached request runs no setup at all: none of the setup phases may
  // appear in its tracing window, while the solve phase must.
  EXPECT_EQ(rep.phase("partition"), nullptr);
  EXPECT_EQ(rep.phase("fine_grid"), nullptr);
  EXPECT_EQ(rep.phase("mesh_setup"), nullptr);
  EXPECT_EQ(rep.phase("matrix_setup"), nullptr);
  EXPECT_NE(rep.phase("solve"), nullptr);
}

TEST(ServiceCache, EvictionLeavesInFlightHandlesValid) {
  ServiceConfig sc = small_config(2, mg::MatrixFormat::kCsr);
  sc.cache_capacity = 1;
  SolveService service(sc);
  service.register_problem("a", make_box_problem(4));
  service.register_problem("b", make_box_problem(5));

  const EntryHandle a = service.acquire("a");
  SolveRequest req_a;
  req_a.mesh_id = "a";
  const SolveResponse before = service.solve_with(a, req_a);

  // Acquiring "b" evicts "a" from the capacity-1 cache...
  service.acquire("b");
  EXPECT_EQ(service.cache_size(), 1u);
  EXPECT_EQ(service.fingerprint("b"), (*service.acquire("b")).key);

  // ...but the held handle still carries a fully valid setup.
  const SolveResponse after = service.solve_with(a, req_a);
  EXPECT_EQ(before.results[0].iterations, after.results[0].iterations);
  expect_bitwise_equal(before.solutions.col(0), after.solutions.col(0));

  // Re-acquiring "a" is a rebuild, not a resurrection.
  const std::int64_t misses = service.cache_misses();
  const EntryHandle a2 = service.acquire("a");
  EXPECT_EQ(service.cache_misses(), misses + 1);
  EXPECT_NE(a.get(), a2.get());
}

TEST(ServiceSolve, BlockedMatchesSinglePerFormatAndThreads) {
  const EnvGuard guard;
  const mg::MatrixFormat formats[] = {
      mg::MatrixFormat::kCsr, mg::MatrixFormat::kBsr3, mg::MatrixFormat::kMf};
  for (const mg::MatrixFormat format : formats) {
    SCOPED_TRACE("format " + std::to_string(static_cast<int>(format)));
    SolveService service(small_config(2, format));
    service.register_problem("box", make_box_problem(5));
    const idx n = service.acquire("box")->unknowns;
    const la::MultiVec rhs = make_rhs_block(n, 4);
    for (const int t : kThreadCounts) {
      SCOPED_TRACE("threads " + std::to_string(t));
      common::set_kernel_threads(t);
      check_blocked_matches_single(service, rhs);
    }
  }
}

TEST(ServiceSolve, BlockedMatchesSingleAcrossRanks) {
  const EnvGuard guard;
  for (const int p : {1, 2, 4}) {
    SCOPED_TRACE("ranks " + std::to_string(p));
    for (const mg::MatrixFormat format :
         {mg::MatrixFormat::kCsr, mg::MatrixFormat::kBsr3,
          mg::MatrixFormat::kMf}) {
      SCOPED_TRACE("format " + std::to_string(static_cast<int>(format)));
      SolveService service(small_config(p, format));
      service.register_problem("box", make_box_problem(4));
      const idx n = service.acquire("box")->unknowns;
      check_blocked_matches_single(service, make_rhs_block(n, 3));
    }
  }
}

TEST(ServiceRefine, FingerprintSeparatesRefineRounds) {
  SolveService service(small_config(2, mg::MatrixFormat::kCsr));
  service.register_problem("box", make_box_problem(4));
  const std::string base = service.fingerprint("box");
  // Refinement shapes the grids, so it must be part of the cache key.
  EXPECT_NE(base.find("|ref="), std::string::npos);
  EXPECT_NE(base, service.fingerprint("box", 2));
  EXPECT_NE(service.fingerprint("box", 1), service.fingerprint("box", 2));
  // A request's default (-1) resolves to the config's refine_rounds.
  {
    ServiceConfig sc = small_config(2, mg::MatrixFormat::kCsr);
    sc.refine_rounds = 2;
    SolveService with_default(sc);
    with_default.register_problem("box", make_box_problem(4));
    EXPECT_EQ(with_default.fingerprint("box"),
              with_default.fingerprint("box", 2));
    EXPECT_EQ(with_default.fingerprint("box", 2),
              service.fingerprint("box", 2));
  }
  // The marking fraction shapes which cells refine: distinct key too.
  {
    ServiceConfig sc = small_config(2, mg::MatrixFormat::kCsr);
    sc.refine_fraction = 0.25;
    SolveService other(sc);
    other.register_problem("box", make_box_problem(4));
    EXPECT_NE(service.fingerprint("box", 2), other.fingerprint("box", 2));
  }
}

TEST(ServiceRefine, DistinctRoundsAreDistinctEntries) {
  SolveService service(small_config(2, mg::MatrixFormat::kCsr));
  service.register_problem("box", make_box_problem(4));

  const EntryHandle plain = service.acquire("box");
  const EntryHandle refined = service.acquire("box", 2);
  EXPECT_EQ(service.cache_misses(), 2);
  EXPECT_NE(plain.get(), refined.get());
  EXPECT_EQ(service.cache_size(), 2u);
  // Two bisection rounds grow the unknown count past the unrefined box.
  EXPECT_GT(refined->unknowns, plain->unknowns);

  // A request carrying refine_rounds hits the refined entry and solves on
  // the refined free-dof space.
  SolveRequest req;
  req.mesh_id = "box";
  req.refine_rounds = 2;
  const SolveResponse resp = service.solve(req);
  EXPECT_TRUE(resp.cache_hit);
  ASSERT_EQ(resp.results.size(), 1u);
  EXPECT_TRUE(resp.results[0].converged);
  EXPECT_EQ(resp.solutions.rows(), refined->unknowns);
}

TEST(ServiceRefine, RefinedScalarSolveConverges) {
  ServiceConfig sc = small_config(2, mg::MatrixFormat::kCsr);
  sc.refine_rounds = 1;
  SolveService service(sc);
  service.register_problem("het", make_poisson_het_problem(4, 1e3));
  SolveRequest req;
  req.mesh_id = "het";
  const SolveResponse resp = service.solve(req);
  ASSERT_EQ(resp.results.size(), 1u);
  EXPECT_TRUE(resp.results[0].converged);
}

TEST(ServiceRefine, EmitsImbalanceGauges) {
  SolveService service(small_config(4, mg::MatrixFormat::kCsr));
  service.register_problem("box", make_box_problem(4));

  obs::Tracer& tracer = obs::Tracer::instance();
  const bool was_tracing = obs::tracing();
  tracer.set_enabled(true);
  const std::int64_t mark = obs::Tracer::now_ns();
  service.acquire("box", 2);
  tracer.set_enabled(was_tracing);
  const obs::Report rep = obs::build_report(mark);

  EXPECT_NE(rep.phase("refine"), nullptr);
  const double inherited = rep.gauge("refine.imbalance.inherited");
  const double rebalanced = rep.gauge("refine.imbalance.rebalanced");
  ASSERT_FALSE(std::isnan(inherited));
  ASSERT_FALSE(std::isnan(rebalanced));
  EXPECT_GE(inherited, 1.0);
  // The acceptance bar: the fresh RCB cut stays within 1.2 of perfect.
  EXPECT_GE(rebalanced, 1.0);
  EXPECT_LE(rebalanced, 1.2);
  EXPECT_LE(rebalanced, inherited + 1e-12);
}

TEST(ServiceRefine, ScalarRejectsNodeBlockFormats) {
  // bsr3 and mf are built around the 3-dof node block; the scalar classes
  // must be rejected at entry with a message naming the combination, not
  // silently downgraded to CSR.
  for (const mg::MatrixFormat format :
       {mg::MatrixFormat::kBsr3, mg::MatrixFormat::kMf}) {
    SCOPED_TRACE("format " + std::to_string(static_cast<int>(format)));
    SolveService service(small_config(2, format));
    service.register_problem("het", make_poisson_het_problem(4, 1e3));
    service.register_problem("adv", make_advdiff_problem(4, 10.0));
    // A failed build leaves no cache entry; acquire still counts the miss,
    // since it counts before building.
    std::int64_t misses = service.cache_misses();
    for (const char* id : {"het", "adv"}) {
      EXPECT_THROW(service.acquire(id), prom::Error);
      EXPECT_EQ(service.cache_size(), 0u) << id;
      EXPECT_EQ(service.cache_misses(), ++misses) << id;
    }
    try {
      service.acquire("het");
      FAIL() << "scalar + non-CSR format must throw";
    } catch (const prom::Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("scalar equation classes"), std::string::npos)
          << what;
      EXPECT_NE(what.find(format == mg::MatrixFormat::kBsr3 ? "bsr3" : "mf"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("elasticity-only"), std::string::npos) << what;
    }
    // Elasticity keeps working in the same format, and its entry is the
    // only one cached.
    service.register_problem("box", make_box_problem(4));
    const SolveResponse box = service.solve({.mesh_id = "box", .rhs = {}});
    EXPECT_TRUE(box.results[0].converged);
    EXPECT_FALSE(box.cache_hit);
    EXPECT_EQ(service.cache_size(), 1u);
  }
  // The supported scalar configuration still solves.
  SolveService csr(small_config(2, mg::MatrixFormat::kCsr));
  csr.register_problem("het", make_poisson_het_problem(4, 1e3));
  EXPECT_TRUE(
      csr.solve({.mesh_id = "het", .rhs = {}}).results[0].converged);
}

TEST(ServiceSolve, ChunkingCoversWideBlocks) {
  // 5 right-hand sides with PROM_RHS_BLOCK defaulting to 8 runs one
  // chunk; the chunked path is the same code either way, so just check
  // every column converges and matches its standalone solve.
  const EnvGuard guard;
  SolveService service(small_config(2, mg::MatrixFormat::kCsr));
  service.register_problem("box", make_box_problem(4));
  const idx n = service.acquire("box")->unknowns;
  check_blocked_matches_single(service, make_rhs_block(n, 5));
}

}  // namespace
}  // namespace prom::app
