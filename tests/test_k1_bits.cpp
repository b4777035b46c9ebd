// Frozen bitwise record of the single-column solve paths. Every solver
// entry point that takes one right-hand side — serial MG-PCG in each
// fine-level format and with each smoother, distributed MG-PCG at several
// rank counts, serial and distributed GMRES and
// BiCGStab on advection-diffusion, and bare V-cycle / FMG applications —
// must reproduce the residual history (every entry, as a hex double) and
// the solution bits (an FNV-1a hash of the solution in the serial dof
// ordering) recorded in tests/golden/k1_bits.json. The other golden tests
// compare to 1e-8..1e-10; this one compares bits, so any change to the
// order of a single rounded operation on the k=1 path shows here.
//
// The file is written only with PROM_UPDATE_GOLDEN=1, which is reserved
// for an intentional numerical change.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "app/driver.h"
#include "dla/dist_mg.h"
#include "fem/assembly.h"
#include "fem/scalar.h"
#include "la/krylov.h"
#include "la/operator.h"
#include "mg/cycle.h"
#include "mg/hierarchy.h"
#include "mg/solver.h"
#include "obs/json.h"
#include "parx/runtime.h"

#ifndef PROM_GOLDEN_DIR
#error "PROM_GOLDEN_DIR must point at the committed golden files"
#endif

namespace prom {
namespace {

/// One recorded solve: residual history, iteration count, solution hash.
struct Record {
  std::vector<real> history;
  int iterations = 0;
  std::uint64_t x_hash = 0;
};

std::uint64_t bits_of(real v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

/// FNV-1a over the bit patterns of x.
std::uint64_t hash_bits(const std::vector<real>& x) {
  std::uint64_t h = 1469598103934665603ULL;
  for (real v : x) {
    std::uint64_t u = bits_of(v);
    for (int b = 0; b < 8; ++b) {
      h ^= u & 0xffU;
      h *= 1099511628211ULL;
      u >>= 8;
    }
  }
  return h;
}

std::string hex_double(real v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::string hex_u64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

Record record_of(const la::KrylovResult& r, const std::vector<real>& x) {
  return Record{r.history, r.iterations, hash_bits(x)};
}

Record record_of(const std::vector<real>& x) {
  return Record{{}, 0, hash_bits(x)};
}

// --- problems --------------------------------------------------------------

struct Problem {
  mg::Hierarchy hierarchy;
  std::vector<real> rhs;
  idx num_vertices = 0;
};

/// 6^3 elasticity box with a forced multi-level hierarchy; `bsr_mf` also
/// builds the node-block and matrix-free fine-level views.
Problem elasticity(mg::SmootherKind kind, bool bsr_mf = false) {
  const app::ModelProblem p = app::make_box_problem(6);
  fem::FeProblem fe(p.mesh, p.materials, p.dofmap);
  fem::LinearSystem sys = fem::assemble_linear_system(fe);
  mg::MgOptions mo;
  mo.smoother = kind;
  mo.coarsest_max_dofs = 60;
  Problem out;
  out.rhs = std::move(sys.rhs);
  out.num_vertices = p.mesh.num_vertices();
  out.hierarchy =
      mg::Hierarchy::build(p.mesh, p.dofmap, std::move(sys.stiffness), mo);
  if (bsr_mf) {
    out.hierarchy.enable_bsr();
    out.hierarchy.enable_mf(p.mesh, p.materials, p.dofmap);
  }
  return out;
}

/// 7^3 SUPG advection-diffusion (Peclet 20), the class's default options.
Problem advdiff() {
  const app::ModelProblem p = app::make_advdiff_problem(7, 20.0);
  fem::ScalarSystem sys =
      fem::assemble_scalar_system(p.mesh, p.scalar_dofmap, p.coeffs);
  mg::MgOptions mo = app::default_mg_options(app::EquationClass::kAdvDiff);
  mo.coarsest_max_dofs = 30;
  Problem out;
  out.rhs = std::move(sys.rhs);
  out.num_vertices = p.mesh.num_vertices();
  out.hierarchy = mg::Hierarchy::build_scalar(p.mesh, p.scalar_dofmap,
                                              std::move(sys.stiffness), mo);
  return out;
}

mg::MgSolveOptions solve_options(la::KrylovKind krylov = la::KrylovKind::kPcg,
                                 mg::MatrixFormat format =
                                     mg::MatrixFormat::kCsr,
                                 mg::CycleKind cycle = mg::CycleKind::kFmg) {
  mg::MgSolveOptions so;
  so.rtol = 1e-8;
  so.track_history = true;
  so.krylov = krylov;
  so.format = format;
  so.cycle = cycle;
  return so;
}

// --- solves ----------------------------------------------------------------

Record serial_krylov(const Problem& prob, const mg::MgSolveOptions& so) {
  std::vector<real> x(prob.rhs.size(), 0);
  const la::KrylovResult r =
      mg::mg_krylov_solve(prob.hierarchy, prob.rhs, x, so);
  return record_of(r, x);
}

enum class DistRun { kKrylov, kVcycle, kFmg };

/// Runs one distributed solve at p ranks on contiguous-block vertex
/// ownership; the solution is mapped back to the serial ordering and the
/// history is rank 0's (every rank receives the same result).
Record distributed(const Problem& prob, int p, DistRun what,
                   const mg::MgSolveOptions& so = solve_options()) {
  std::vector<idx> owner(static_cast<std::size_t>(prob.num_vertices));
  for (idx v = 0; v < prob.num_vertices; ++v) {
    owner[static_cast<std::size_t>(v)] = static_cast<idx>(
        (static_cast<std::int64_t>(v) * p) / prob.num_vertices);
  }
  std::vector<real> x(prob.rhs.size(), 0);
  la::KrylovResult result;
  parx::Runtime::run(p, [&](parx::Comm& comm) {
    const dla::DistHierarchy dist =
        dla::DistHierarchy::build(comm, prob.hierarchy, owner, so.format);
    const auto& perm = dist.permutation(0);
    const dla::RowDist& rows = dist.level(0).a.row_dist();
    const idx b0 = rows.begin(comm.rank());
    const idx nloc = rows.local_size(comm.rank());
    std::vector<real> b_local(static_cast<std::size_t>(nloc));
    for (idx i = 0; i < nloc; ++i) b_local[i] = prob.rhs[perm[b0 + i]];
    std::vector<real> x_local(static_cast<std::size_t>(nloc), 0);
    la::KrylovResult r;
    switch (what) {
      case DistRun::kKrylov:
        r = dla::dist_mg_krylov_solve(comm, dist, b_local, x_local, so);
        break;
      case DistRun::kVcycle:
        dla::dist_vcycle(comm, dist, 0, b_local, x_local);
        break;
      case DistRun::kFmg:
        x_local = dla::dist_fmg_cycle(comm, dist, b_local);
        break;
    }
    for (idx i = 0; i < nloc; ++i) x[perm[b0 + i]] = x_local[i];
    if (comm.rank() == 0) result = r;
  });
  return what == DistRun::kKrylov ? record_of(result, x) : record_of(x);
}

/// Every recorded case, by name, in file order.
std::map<std::string, Record> compute_all() {
  std::map<std::string, Record> out;
  using SK = mg::SmootherKind;
  using MF = mg::MatrixFormat;
  using KK = la::KrylovKind;

  {
    const Problem prob = elasticity(SK::kBlockJacobi, /*bsr_mf=*/true);
    const mg::Hierarchy& h = prob.hierarchy;
    out["serial_pcg_csr"] = serial_krylov(prob, solve_options());
    out["serial_pcg_bsr3"] =
        serial_krylov(prob, solve_options(KK::kPcg, MF::kBsr3));
    out["serial_pcg_mf"] =
        serial_krylov(prob, solve_options(KK::kPcg, MF::kMf));
    out["serial_pcg_csr_vcycle"] = serial_krylov(
        prob, solve_options(KK::kPcg, MF::kCsr, mg::CycleKind::kV));
    {
      std::vector<real> x(prob.rhs.size(), 0);
      const la::CsrOperator a(h.level(0).a);
      la::KrylovOptions ko;
      ko.rtol = 1e-8;
      ko.max_iters = 40;
      ko.track_history = true;
      const la::KrylovResult r = la::cg(a, prob.rhs, x, ko);
      out["serial_cg_csr"] = record_of(r, x);
    }
    {
      std::vector<real> x(prob.rhs.size(), 0);
      mg::vcycle(h, 0, prob.rhs, x);
      out["serial_vcycle"] = record_of(x);
      out["serial_fmg_cycle"] = record_of(mg::fmg_cycle(h, prob.rhs));
    }
    for (int p : {1, 2, 4}) {
      out["dist_pcg_p" + std::to_string(p)] =
          distributed(prob, p, DistRun::kKrylov);
    }
    out["dist_pcg_p2_bsr3"] = distributed(
        prob, 2, DistRun::kKrylov, solve_options(KK::kPcg, MF::kBsr3));
    out["dist_pcg_p2_vcycle"] =
        distributed(prob, 2, DistRun::kKrylov,
                    solve_options(KK::kPcg, MF::kCsr, mg::CycleKind::kV));
    out["dist_vcycle_p2"] = distributed(prob, 2, DistRun::kVcycle);
    out["dist_fmg_cycle_p2"] = distributed(prob, 2, DistRun::kFmg);
  }
  for (const auto& [name, kind] :
       {std::pair{"jacobi", SK::kJacobi},
        std::pair{"chebyshev", SK::kChebyshev}}) {
    const Problem prob = elasticity(kind);
    out[std::string("serial_pcg_csr_") + name] =
        serial_krylov(prob, solve_options());
    out[std::string("dist_pcg_p2_") + name] =
        distributed(prob, 2, DistRun::kKrylov);
  }
  {
    const Problem prob = advdiff();
    out["serial_gmres_advdiff"] =
        serial_krylov(prob, solve_options(KK::kGmres));
    out["serial_bicgstab_advdiff"] =
        serial_krylov(prob, solve_options(KK::kBicgstab));
    out["dist_gmres_advdiff_p2"] = distributed(prob, 2, DistRun::kKrylov,
                                               solve_options(KK::kGmres));
    out["dist_bicgstab_advdiff_p2"] = distributed(
        prob, 2, DistRun::kKrylov, solve_options(KK::kBicgstab));
  }
  return out;
}

std::string golden_path() {
  return std::string(PROM_GOLDEN_DIR) + "/k1_bits.json";
}

void write_golden(const std::map<std::string, Record>& recs) {
  std::string s = "{\n";
  std::size_t n = 0;
  for (const auto& [name, r] : recs) {
    s += "  \"" + name + "\": {\n";
    s += "    \"iterations\": " + std::to_string(r.iterations) + ",\n";
    s += "    \"x_hash\": \"" + hex_u64(r.x_hash) + "\",\n";
    s += "    \"history\": [";
    for (std::size_t i = 0; i < r.history.size(); ++i) {
      s += (i == 0 ? "\"" : ", \"") + hex_double(r.history[i]) + "\"";
    }
    s += "]\n  }";
    s += ++n < recs.size() ? ",\n" : "\n";
  }
  s += "}\n";
  std::ofstream f(golden_path());
  ASSERT_TRUE(f.good()) << "cannot write " << golden_path();
  f << s;
}

TEST(K1Bits, SingleColumnSolvesMatchFrozenBits) {
  const std::map<std::string, Record> got = compute_all();
  for (const auto& [name, r] : got) {
    if (!r.history.empty()) {
      EXPECT_GT(r.iterations, 0) << name;
    }
  }
  if (std::getenv("PROM_UPDATE_GOLDEN") != nullptr) {
    write_golden(got);
    GTEST_SKIP() << "golden file regenerated at " << golden_path();
  }

  const obs::json::Value golden = obs::json::parse_file(golden_path());
  ASSERT_EQ(golden.members().size(), got.size())
      << "the set of recorded cases changed";
  for (const auto& [name, want] : golden.members()) {
    SCOPED_TRACE(name);
    const auto it = got.find(name);
    ASSERT_NE(it, got.end()) << "case no longer computed";
    const Record& r = it->second;
    EXPECT_EQ(r.iterations,
              static_cast<int>(want.at("iterations").as_number()));
    EXPECT_EQ(hex_u64(r.x_hash), want.at("x_hash").as_string())
        << "solution bits differ";
    const auto& hist = want.at("history").items();
    ASSERT_EQ(r.history.size(), hist.size()) << "history length differs";
    for (std::size_t i = 0; i < hist.size(); ++i) {
      const real w = std::strtod(hist[i].as_string().c_str(), nullptr);
      EXPECT_EQ(bits_of(r.history[i]), bits_of(w))
          << "history entry " << i << ": got " << hex_double(r.history[i])
          << ", frozen " << hist[i].as_string();
    }
  }
}

}  // namespace
}  // namespace prom
