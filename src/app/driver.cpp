#include "app/driver.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <string_view>

#include "app/service.h"
#include "common/error.h"
#include "obs/trace.h"

namespace prom::app {

const char* to_string(EquationClass eq) {
  switch (eq) {
    case EquationClass::kElasticity: return "elasticity";
    case EquationClass::kPoissonHet: return "poisson_het";
    case EquationClass::kAdvDiff: return "advdiff";
  }
  return "?";
}

EquationClass equation_from_env() {
  const char* env = std::getenv("PROM_EQUATION");
  if (env == nullptr || *env == '\0') return EquationClass::kElasticity;
  const std::string_view v(env);
  if (v == "elasticity") return EquationClass::kElasticity;
  if (v == "poisson_het") return EquationClass::kPoissonHet;
  if (v == "advdiff") return EquationClass::kAdvDiff;
  PROM_CHECK_MSG(false,
                 "PROM_EQUATION must be elasticity, poisson_het, or advdiff");
  return EquationClass::kElasticity;
}

mg::MgOptions default_mg_options(EquationClass eq) {
  mg::MgOptions mo;
  if (eq == EquationClass::kAdvDiff) {
    mo.smoother = mg::SmootherKind::kJacobi;
    mo.omega = 0.5;
    mo.coarse_solver = mg::CoarseSolverKind::kDenseLu;
  }
  return mo;
}

la::KrylovKind default_krylov(EquationClass eq) {
  return eq == EquationClass::kAdvDiff ? la::KrylovKind::kGmres
                                       : la::KrylovKind::kPcg;
}

ModelProblem make_sphere_problem(const mesh::SphereInCubeParams& params,
                                 real crush) {
  ModelProblem p;
  p.mesh = mesh::sphere_in_cube_octant(params);
  p.materials = {fem::Material::paper_soft(), fem::Material::paper_hard()};
  const real side = params.cube_side;
  const real eps = 1e-9 * side;
  p.fix_bcs = [side, eps, crush](const mesh::Mesh& m, fem::DofMap& dm) {
    for (idx v : m.vertices_where([&](const Vec3& x) { return x.x < eps; })) {
      dm.fix(v, 0, 0);
    }
    for (idx v : m.vertices_where([&](const Vec3& x) { return x.y < eps; })) {
      dm.fix(v, 1, 0);
    }
    for (idx v : m.vertices_where([&](const Vec3& x) { return x.z < eps; })) {
      dm.fix(v, 2, 0);
    }
    for (idx v : m.vertices_where(
             [&](const Vec3& x) { return x.z > side - eps; })) {
      dm.fix(v, 2, -crush);
    }
  };
  p.dofmap = fem::DofMap(p.mesh.num_vertices());
  p.fix_bcs(p.mesh, p.dofmap);
  p.dofmap.finalize();
  return p;
}

ModelProblem make_box_problem(idx n, real crush, fem::Material material) {
  ModelProblem p;
  p.mesh = mesh::box_hex(n, n, n, {0, 0, 0}, {1, 1, 1});
  p.materials = {material};
  const real eps = 1e-9;
  p.fix_bcs = [eps, crush](const mesh::Mesh& m, fem::DofMap& dm) {
    dm.fix_all(m.vertices_where([&](const Vec3& x) { return x.z < eps; }), 0);
    for (idx v :
         m.vertices_where([&](const Vec3& x) { return x.z > 1 - eps; })) {
      dm.fix(v, 2, -crush);
    }
  };
  p.dofmap = fem::DofMap(p.mesh.num_vertices());
  p.fix_bcs(p.mesh, p.dofmap);
  p.dofmap.finalize();
  return p;
}

ModelProblem make_poisson_het_problem(idx n, real contrast) {
  ModelProblem p;
  p.equation = EquationClass::kPoissonHet;
  p.mesh = mesh::box_hex(n, n, n, {0, 0, 0}, {1, 1, 1});
  const real eps = 1e-9;
  p.fix_scalar_bcs = [eps](const mesh::Mesh& m, fem::ScalarDofMap& dm) {
    for (idx v : m.vertices_where([&](const Vec3& x) { return x.z < eps; })) {
      dm.fix(v, 0);
    }
    for (idx v :
         m.vertices_where([&](const Vec3& x) { return x.z > 1 - eps; })) {
      dm.fix(v, 1);
    }
  };
  p.scalar_dofmap = fem::ScalarDofMap(p.mesh.num_vertices());
  p.fix_scalar_bcs(p.mesh, p.scalar_dofmap);
  p.scalar_dofmap.finalize();
  p.coeffs.diffusion = [contrast](idx, const Vec3& x) {
    const bool inside = x.x > 0.25 && x.x < 0.75 && x.y > 0.25 &&
                        x.y < 0.75 && x.z > 0.25 && x.z < 0.75;
    return (inside ? contrast : real(1)) * Mat3::identity();
  };
  p.coeffs.source = [](idx, const Vec3&) { return real(1); };
  return p;
}

ModelProblem make_reaction_problem(idx n, real reaction) {
  PROM_CHECK_MSG(reaction >= 0, "make_reaction_problem: reaction must be >= 0");
  ModelProblem p;
  p.equation = EquationClass::kPoissonHet;
  p.mesh = mesh::box_hex(n, n, n, {0, 0, 0}, {1, 1, 1});
  const real eps = 1e-9;
  p.fix_scalar_bcs = [eps](const mesh::Mesh& m, fem::ScalarDofMap& dm) {
    for (idx v : m.vertices_where([&](const Vec3& x) {
           return x.x < eps || x.x > 1 - eps || x.y < eps || x.y > 1 - eps ||
                  x.z < eps || x.z > 1 - eps;
         })) {
      dm.fix(v, 0);
    }
  };
  p.scalar_dofmap = fem::ScalarDofMap(p.mesh.num_vertices());
  p.fix_scalar_bcs(p.mesh, p.scalar_dofmap);
  p.scalar_dofmap.finalize();
  p.coeffs.diffusion = [](idx, const Vec3&) { return Mat3::identity(); };
  p.coeffs.reaction = [reaction](idx, const Vec3&) { return reaction; };
  const real pi = real(3.14159265358979323846);
  p.coeffs.source = [reaction, pi](idx, const Vec3& x) {
    return (3 * pi * pi + reaction) * std::sin(pi * x.x) *
           std::sin(pi * x.y) * std::sin(pi * x.z);
  };
  return p;
}

ModelProblem make_advdiff_problem(idx n, real peclet) {
  PROM_CHECK_MSG(peclet > 0, "make_advdiff_problem: peclet must be > 0");
  ModelProblem p;
  p.equation = EquationClass::kAdvDiff;
  p.mesh = mesh::box_hex(n, n, n, {0, 0, 0}, {1, 1, 1});
  const real eps = 1e-9;
  p.fix_scalar_bcs = [eps](const mesh::Mesh& m, fem::ScalarDofMap& dm) {
    for (idx v : m.vertices_where([&](const Vec3& x) { return x.x < eps; })) {
      dm.fix(v, 1);
    }
    for (idx v :
         m.vertices_where([&](const Vec3& x) { return x.x > 1 - eps; })) {
      dm.fix(v, 0);
    }
  };
  p.scalar_dofmap = fem::ScalarDofMap(p.mesh.num_vertices());
  p.fix_scalar_bcs(p.mesh, p.scalar_dofmap);
  p.scalar_dofmap.finalize();
  const Vec3 dir{1, 0.5, 0.25};
  const real speed = norm(dir);
  const real kappa = speed / peclet;
  p.coeffs.diffusion = [kappa](idx, const Vec3&) {
    return kappa * Mat3::identity();
  };
  p.coeffs.velocity = [dir](idx, const Vec3&) { return dir; };
  p.coeffs.source = [](idx, const Vec3&) { return real(1); };
  p.coeffs.supg = true;
  return p;
}

perf::RunMeasurement LinearStudyReport::measurement() const {
  perf::RunMeasurement m;
  m.ranks = ranks;
  m.unknowns = unknowns;
  m.iterations = iterations;
  m.solve_flops = solve_phase.total_flops();
  m.solve_phase = solve_phase;
  m.modeled_solve_time = modeled_solve_time;
  m.wall_solve_time = wall_solve;
  return m;
}

namespace {

/// Per-rank TrafficStats of one report phase (rank-indexed, zero for
/// ranks that recorded nothing).
std::vector<parx::TrafficStats> phase_traffic(const obs::Report& rep,
                                              std::string_view name,
                                              int nranks) {
  std::vector<parx::TrafficStats> stats(static_cast<std::size_t>(nranks));
  const obs::PhaseEntry* phase = rep.phase(name);
  if (phase == nullptr) return stats;
  for (const obs::RankPhase& rp : phase->per_rank) {
    if (rp.rank < 0 || rp.rank >= nranks) continue;
    stats[rp.rank] = {rp.messages, rp.bytes, rp.flops};
  }
  return stats;
}

}  // namespace

LinearStudyReport run_linear_study(const ModelProblem& problem,
                                   const LinearStudyConfig& config) {
  LinearStudyReport report;
  report.ranks = config.nranks;

  // Every phase wall time and traffic bracket below comes out of the obs
  // tracer: recording is forced on for the study's window (independent of
  // PROM_TRACE) and aggregated into report.obs at the end.
  obs::Tracer& tracer = obs::Tracer::instance();
  const bool was_tracing = obs::tracing();
  tracer.set_enabled(true);
  const std::int64_t mark = obs::Tracer::now_ns();

  // The study is one uncached request through the solve service: a fresh
  // service per study, so the setup phases (partition, fine grid, mesh
  // setup, distributed matrix setup) always run — and emit their spans —
  // inside the tracing window.
  ServiceConfig sc;
  sc.nranks = config.nranks;
  sc.mg = config.mg;
  sc.cycle = config.cycle;
  sc.format = config.format;
  sc.cache_capacity = 1;
  SolveService service(sc);
  // Non-owning alias: the caller's problem outlives the study.
  service.register_problem(
      "study",
      std::shared_ptr<const ModelProblem>(std::shared_ptr<void>(), &problem));
  const EntryHandle entry = service.acquire("study");
  report.unknowns = entry->unknowns;
  report.levels = entry->per_rank[0].num_levels();

  SolveRequest req;
  req.mesh_id = "study";
  req.rtol = config.rtol;
  req.max_iters = config.max_iters;
  req.return_solutions = false;  // the study reads measurements, not x
  const SolveResponse resp = service.solve_with(entry, req);

  tracer.set_enabled(was_tracing);
  report.obs = obs::build_report(mark);

  report.iterations = resp.results[0].iterations;
  report.converged = resp.results[0].converged;
  report.wall_partition = report.obs.phase_seconds("partition");
  report.wall_fine_grid = report.obs.phase_seconds("fine_grid");
  report.wall_mesh_setup = report.obs.phase_seconds("mesh_setup");
  report.wall_matrix_setup = report.obs.phase_seconds("matrix_setup");
  report.wall_solve = report.obs.phase_seconds("solve");
  report.setup_phase.per_rank =
      phase_traffic(report.obs, "matrix_setup", config.nranks);
  for (const dla::DistHierarchy& dist : entry->per_rank) {
    report.max_rank_galerkin_flops =
        std::max(report.max_rank_galerkin_flops, dist.galerkin_flops());
  }
  report.solve_phase.per_rank =
      phase_traffic(report.obs, "solve", config.nranks);
  const perf::MachineModel model;
  report.modeled_solve_time = report.solve_phase.modeled_time(model);
  report.modeled_mflops =
      report.solve_phase.modeled_flop_rate(model) / 1e6;
  if (!config.report_path.empty()) report.obs.write_json(config.report_path);
  return report;
}

std::vector<ScaledCase> scaled_series(int num_cases, int base_ranks) {
  // Scaled-down mirror of the paper's series (≈ constant unknowns/rank):
  // the first three cases refine the core/outer regions tangentially, the
  // later ones add a full element layer through every shell, like the
  // paper's "one more layer of elements through each of the seventeen
  // shell layers".
  struct Knobs {
    idx core, outer, per_shell;
    double rank_scale;
  };
  const Knobs knobs[] = {
      {1, 1, 1, 1.0},   // n = 19
      {4, 3, 1, 2.0},   // n = 24
      {7, 6, 1, 3.9},   // n = 30
      {1, 1, 2, 7.8},   // n = 38
      {4, 3, 2, 15.6},  // n = 48
  };
  const int count = std::min<int>(num_cases, 5);
  std::vector<ScaledCase> cases;
  for (int i = 0; i < count; ++i) {
    ScaledCase c;
    c.params.num_shells = 17;
    c.params.base_core_layers = knobs[i].core;
    c.params.base_outer_layers = knobs[i].outer;
    c.params.layers_per_shell = knobs[i].per_shell;
    c.ranks = std::max(
        2, static_cast<int>(base_ranks * knobs[i].rank_scale + 0.5));
    cases.push_back(c);
  }
  return cases;
}

}  // namespace prom::app
