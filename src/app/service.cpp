#include "app/service.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "dla/dist_vec.h"
#include "obs/trace.h"
#include "partition/rcb.h"
#include "parx/runtime.h"

namespace prom::app {

int rhs_block_from_env() {
  const char* env = std::getenv("PROM_RHS_BLOCK");
  if (env == nullptr || *env == '\0') return 8;
  const int v = std::atoi(env);
  PROM_CHECK_MSG(v >= 1 && v <= la::kMaxRhsBlock,
                 "PROM_RHS_BLOCK must be in [1, la::kMaxRhsBlock]");
  return v;
}

void SolveService::register_problem(std::string mesh_id,
                                    ModelProblem problem) {
  register_problem(std::move(mesh_id),
                   std::make_shared<const ModelProblem>(std::move(problem)));
}

void SolveService::register_problem(
    std::string mesh_id, std::shared_ptr<const ModelProblem> problem) {
  PROM_CHECK(problem != nullptr);
  problems_[std::move(mesh_id)] = std::move(problem);
}

std::string SolveService::fingerprint(const std::string& mesh_id,
                                      int refine_rounds) const {
  if (refine_rounds < 0) refine_rounds = config_.refine_rounds;
  // Every knob that shapes the grids, the operators, or their
  // distribution. Two requests agreeing on all of these may share a
  // hierarchy; any difference must build a distinct entry. The equation
  // class comes from the registered problem (block size 1 vs 3 changes
  // every level operator); an unregistered id keys as elasticity and
  // fails in build_entry anyway.
  EquationClass eq = EquationClass::kElasticity;
  const auto pit = problems_.find(mesh_id);
  if (pit != problems_.end()) eq = pit->second->equation;
  const mg::MgOptions& mo = config_.mg;
  const coarsen::CoarsenOptions& co = mo.coarsen;
  std::ostringstream os;
  os << mesh_id << "|eq=" << static_cast<int>(eq) << "|p=" << config_.nranks
     << "|fmt=" << static_cast<int>(config_.format)
     << "|cyc=" << static_cast<int>(config_.cycle)
     << "|L=" << mo.max_levels << "|cmax=" << mo.coarsest_max_dofs
     << "|ratio=" << mo.min_coarsen_ratio
     << "|sm=" << static_cast<int>(mo.smoother) << "|w=" << mo.omega
     << "|bj=" << mo.bj_blocks_per_1000 << "|cheb=" << mo.cheby_degree
     << "|pre=" << mo.pre_smooth << "|post=" << mo.post_smooth
     << "|cs=" << static_cast<int>(mo.coarse_solver)
     << "|mod=" << co.modify_graph << "|rcl=" << co.reclassify_from_level
     << "|ext=" << static_cast<int>(co.exterior_order)
     << "|int=" << static_cast<int>(co.interior_order) << "|seed=" << co.seed
     << "|ref=" << refine_rounds << "|rfrac=" << config_.refine_fraction;
  return os.str();
}

EntryHandle SolveService::acquire(const std::string& mesh_id,
                                  int refine_rounds) {
  if (refine_rounds < 0) refine_rounds = config_.refine_rounds;
  std::string key = fingerprint(mesh_id, refine_rounds);
  // The cache span covers only the lookup: the miss path's phase.* setup
  // spans must stay top-level for the report builder to count them.
  {
    const obs::Span span("service.cache");
    const auto it = cache_.find(key);
    if (it != cache_.end()) {
      obs::counter_add("service.cache.hit", 1);
      ++hits_;
      lru_.splice(lru_.begin(), lru_, it->second);
      return *it->second;
    }
    obs::counter_add("service.cache.miss", 1);
    ++misses_;
  }
  EntryHandle entry = build_entry(mesh_id, std::move(key), refine_rounds);
  lru_.push_front(entry);
  cache_.emplace(entry->key, lru_.begin());
  if (static_cast<int>(lru_.size()) > std::max(1, config_.cache_capacity)) {
    // Drop the least recently used entry; callers holding its handle keep
    // a valid setup (shared ownership), the cache just forgets it.
    cache_.erase(lru_.back()->key);
    lru_.pop_back();
  }
  return entry;
}

EntryHandle SolveService::build_entry(const std::string& mesh_id,
                                      std::string key, int refine_rounds) {
  const auto pit = problems_.find(mesh_id);
  PROM_CHECK_MSG(pit != problems_.end(),
                 "SolveService: unknown mesh id (register_problem first)");
  auto entry = std::make_shared<ServiceEntry>();
  entry->key = std::move(key);
  entry->problem = pit->second;
  const ModelProblem& problem = *entry->problem;
  const bool scalar = problem.equation != EquationClass::kElasticity;

  // The blocked (bsr3) and matrix-free formats are elasticity-only: both
  // are built around the 3-dof node block (la::Bsr3 / the element
  // kernels), and the scalar classes have no node blocks to form. Reject
  // the combination here — at entry — instead of letting the scalar path
  // silently fall back to CSR or trip an assert deep in the distributed
  // setup.
  PROM_CHECK_MSG(!scalar || config_.format == mg::MatrixFormat::kCsr,
                 config_.format == mg::MatrixFormat::kBsr3
                     ? "SolveService: scalar equation classes (poisson_het, "
                       "advdiff) support only PROM_MATRIX=csr; "
                       "PROM_MATRIX=bsr3 is elasticity-only"
                     : "SolveService: scalar equation classes (poisson_het, "
                       "advdiff) support only PROM_MATRIX=csr; "
                       "PROM_MATRIX=mf is elasticity-only");

  // The refined mesh family, like the partition, the assembled system and
  // the serial grids below, lives only for this build: the distributed
  // hierarchies copy what they keep of it.
  std::unique_ptr<AdaptiveLoop> loop;
  if (refine_rounds > 0) {
    const obs::Span span("phase.refine");
    AdaptiveOptions aopts;
    aopts.rounds = refine_rounds;
    aopts.mark_fraction = config_.refine_fraction;
    aopts.mg = config_.mg;
    aopts.cycle = config_.cycle;
    loop = std::make_unique<AdaptiveLoop>(
        run_adaptive_refinement(problem, aopts));
  }
  AdaptiveLoop* const refined = loop.get();

  std::vector<idx> vertex_owner;
  {
    const obs::Span span("phase.partition");
    const mesh::Mesh& pmesh =
        refined != nullptr ? refined->final_mesh() : problem.mesh;
    vertex_owner = partition::rcb_partition(pmesh.coords(), config_.nranks);
    if (refined != nullptr) {
      // How lopsided the refined mesh would be under the *unrefined*
      // partition (midpoints inheriting a parent's rank) vs the fresh
      // RCB cut the entry actually uses.
      const std::vector<idx> base_owner = partition::rcb_partition(
          refined->base.coords(), config_.nranks);
      obs::gauge_set(
          "refine.imbalance.inherited",
          partition_imbalance(inherit_owners(*refined, base_owner),
                              config_.nranks));
      obs::gauge_set("refine.imbalance.rebalanced",
                     partition_imbalance(vertex_owner, config_.nranks));
    }
  }
  fem::LinearSystem sys;
  {
    const obs::Span span("phase.fine_grid");
    if (refined != nullptr) {
      sys = std::move(refined->sys);
    } else if (scalar) {
      fem::ScalarSystem ss = fem::assemble_scalar_system(
          problem.mesh, problem.scalar_dofmap, problem.coeffs);
      sys.stiffness = std::move(ss.stiffness);
      sys.rhs = std::move(ss.rhs);
    } else {
      fem::FeProblem fe(problem.mesh, problem.materials, problem.dofmap);
      sys = fem::assemble_linear_system(fe);
    }
  }
  entry->unknowns = sys.stiffness.nrows;
  entry->rhs = std::move(sys.rhs);
  // The fine matrix moves into the grids; each rank keeps its row slice.
  mg::Hierarchy grids;
  {
    const obs::Span span("phase.mesh_setup");
    if (refined != nullptr) {
      grids = scalar ? mg::Hierarchy::build_grids_refined_scalar(
                           refined->mesh_ptrs(), refined->scalar_dofmap_ptrs(),
                           refined->rounds, std::move(sys.stiffness),
                           config_.mg)
                     : mg::Hierarchy::build_grids_refined(
                           refined->mesh_ptrs(), refined->dofmap_ptrs(),
                           refined->rounds, std::move(sys.stiffness),
                           config_.mg);
    } else {
      grids = scalar ? mg::Hierarchy::build_grids_scalar(
                           problem.mesh, problem.scalar_dofmap,
                           std::move(sys.stiffness), config_.mg)
                     : mg::Hierarchy::build_grids(problem.mesh, problem.dofmap,
                                                  std::move(sys.stiffness),
                                                  config_.mg);
    }
  }

  entry->per_rank.resize(static_cast<std::size_t>(config_.nranks));
  entry->workspaces.resize(static_cast<std::size_t>(config_.nranks));
  parx::Runtime::run(config_.nranks, [&](parx::Comm& comm) {
    comm.barrier();
    const obs::Span span("phase.matrix_setup");
    // The matrix-free view is elasticity-only (enforced above), so the
    // scalar paths keep the unrefined pointers — the struct is unused.
    const bool mf_refined = !scalar && refined != nullptr;
    const dla::MfProblem mf{
        mf_refined ? &refined->final_mesh() : &problem.mesh,
        &problem.materials,
        mf_refined ? &refined->final_dofmap() : &problem.dofmap,
        /*bbar=*/true};
    entry->per_rank[comm.rank()] = dla::DistHierarchy::build(
        comm, grids, vertex_owner, config_.format,
        config_.format == mg::MatrixFormat::kMf ? &mf : nullptr);
    comm.barrier();
  });
  return entry;
}

SolveResponse SolveService::solve(const SolveRequest& req) {
  const std::int64_t hits_before = hits_;
  const EntryHandle entry = acquire(req.mesh_id, req.refine_rounds);
  SolveResponse resp = solve_with(entry, req);
  resp.cache_hit = hits_ > hits_before;
  return resp;
}

SolveResponse SolveService::solve_with(const EntryHandle& entry,
                                       const SolveRequest& req) const {
  PROM_CHECK(entry != nullptr);
  const int p = config_.nranks;

  // The request's right-hand sides, defaulting to the assembled load
  // vector (serial free-dof numbering either way).
  la::MultiVec b;
  if (req.rhs.rows() == 0 && req.rhs.cols() == 0) {
    b.resize(entry->unknowns, 1);
    std::copy(entry->rhs.begin(), entry->rhs.end(), b.col(0).begin());
  } else {
    PROM_CHECK_MSG(req.rhs.rows() == entry->unknowns,
                   "SolveRequest::rhs rows must equal the free-dof count");
    b = req.rhs;
  }
  const int ktotal = b.cols();
  const int kblock = rhs_block_from_env();

  SolveResponse resp;
  resp.results.resize(static_cast<std::size_t>(ktotal));
  if (req.return_solutions) resp.solutions.resize(entry->unknowns, ktotal);

  mg::MgSolveOptions so;
  so.rtol = req.rtol;
  so.max_iters = req.max_iters;
  so.cycle = config_.cycle;
  so.format = config_.format;
  so.track_history = req.track_history;
  so.krylov = default_krylov(entry->problem->equation);

  parx::Runtime::run(p, [&](parx::Comm& comm) {
    const int rank = comm.rank();
    dla::DistHierarchy& dist = entry->per_rank[rank];
    const std::vector<idx>& perm = dist.permutation(0);
    const dla::RowDist& rows = dist.level(0).a.row_dist();
    const idx b0 = rows.begin(rank);
    const idx nloc = rows.local_size(rank);

    comm.barrier();
    const obs::Span solve_span("phase.solve");
    for (int j0 = 0; j0 < ktotal; j0 += kblock) {
      const int k = std::min(kblock, ktotal - j0);
      const obs::Span batch_span("solve.batch");
      la::MultiVec b_local(nloc, k);
      la::MultiVec x_local(nloc, k);
      for (int j = 0; j < k; ++j) {
        real* bl = b_local.col_data(j);
        const real* bs = b.col_data(j0 + j);
        for (idx i = 0; i < nloc; ++i) bl[i] = bs[perm[b0 + i]];
      }
      std::vector<la::KrylovResult> results;
      if (so.krylov == la::KrylovKind::kPcg) {
        results = dla::dist_mg_pcg_solve_mv(comm, dist, b_local, x_local, so,
                                            &entry->workspaces[rank]);
      } else {
        // Non-symmetric classes: no blocked GMRES/BiCGStab driver, so the
        // chunk's columns solve one at a time (the chunking itself stays,
        // keeping request shapes identical to the SPD path).
        results.resize(static_cast<std::size_t>(k));
        for (int j = 0; j < k; ++j) {
          results[static_cast<std::size_t>(j)] = dla::dist_mg_krylov_solve(
              comm, dist, b_local.col(j), x_local.col(j), so);
        }
      }
      if (req.return_solutions) {
        const la::MultiVec x_full =
            dla::dist_gather_all_mv(comm, rows, x_local);
        if (rank == 0) {
          for (int j = 0; j < k; ++j) {
            real* out = resp.solutions.col_data(j0 + j);
            const real* xf = x_full.col_data(j);
            for (idx g = 0; g < entry->unknowns; ++g) out[perm[g]] = xf[g];
          }
        }
      }
      if (rank == 0) {
        for (int j = 0; j < k; ++j) resp.results[j0 + j] = results[j];
      }
    }
    comm.barrier();
  });
  return resp;
}

}  // namespace prom::app
