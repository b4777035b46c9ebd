// The solve service: an explicit setup/solve lifecycle over the study
// pipeline. Setup (partition, fine-grid assembly, mesh setup, distributed
// matrix setup) is keyed by a fingerprint of the mesh id and every option
// that shapes the hierarchy, and cached — a repeat request skips
// DistHierarchy::build entirely and goes straight to the solve phase.
// Solves accept k right-hand sides at once and run the column-blocked
// MG-PCG (dla::dist_mg_pcg_solve_mv) in chunks of PROM_RHS_BLOCK columns:
// one ghost exchange per operator application serves the whole chunk, and
// column j of a k-RHS solve is bitwise identical to a standalone solve of
// that RHS at any rank count and kernel-thread count.
#pragma once

#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "app/driver.h"
#include "app/refine.h"
#include "dla/dist_mg.h"
#include "la/krylov_any.h"
#include "la/multivec.h"

namespace prom::app {

/// Columns per blocked-PCG chunk: PROM_RHS_BLOCK (default 8; must be in
/// [1, la::kMaxRhsBlock]). Fails fast on an out-of-range value.
int rhs_block_from_env();

struct ServiceConfig {
  int nranks = 2;
  mg::MgOptions mg;
  mg::CycleKind cycle = mg::CycleKind::kFmg;
  mg::MatrixFormat format = mg::matrix_format_from_env();
  /// Cached hierarchies kept alive (LRU eviction beyond this).
  int cache_capacity = 4;
  /// Adaptive refinement rounds run before setup (app/refine.h): the
  /// entry is then built on the refined mesh — refined grids finest-
  /// first, fresh RCB cut of the refined coordinates. 0 = the seed
  /// behavior (no refinement). Seeded from PROM_REFINE; a SolveRequest
  /// can override per request.
  int refine_rounds = refine_rounds_from_env();
  real refine_fraction = 0.1;  ///< fixed-fraction marking per round
};

/// One cached setup: everything DistHierarchy::build produced, per
/// virtual rank, plus the assembled load vector the right-hand sides
/// default to — what solve_with reads. Setup-only data (the refined mesh
/// family, the partition, the fine matrix, the serial grids) does not
/// outlive build_entry. Handles are shared_ptrs, so eviction never
/// invalidates an entry a caller still holds.
struct ServiceEntry {
  std::string key;  ///< the cache fingerprint this entry was built under
  std::shared_ptr<const ModelProblem> problem;
  /// The assembled load vector (serial free-dof numbering).
  std::vector<real> rhs;
  /// Rank r's distributed hierarchy (parx ranks share one address space,
  /// so the whole set lives here and each solve re-enters the runtime).
  std::vector<dla::DistHierarchy> per_rank;
  /// Rank r's PCG work vectors: repeat solves of the same shape allocate
  /// nothing on the Krylov side.
  std::vector<la::KrylovWorkspace> workspaces;
  idx unknowns = 0;
};
using EntryHandle = std::shared_ptr<ServiceEntry>;

struct SolveRequest {
  std::string mesh_id;
  /// k right-hand sides in the serial free-dof numbering; an empty block
  /// means "one solve of the assembled load vector".
  la::MultiVec rhs;
  real rtol = 1e-4;
  int max_iters = 200;
  bool track_history = false;
  /// Gather solutions back to the serial numbering (costs one allgatherv
  /// per chunk); the study driver turns this off.
  bool return_solutions = true;
  /// Adaptive refinement rounds for this request: -1 uses the config
  /// default (ServiceConfig::refine_rounds); any other value overrides
  /// it, keying a distinct cache entry.
  int refine_rounds = -1;
};

struct SolveResponse {
  std::vector<la::KrylovResult> results;  ///< one per right-hand side
  /// Solutions in the serial free-dof numbering (empty unless
  /// SolveRequest::return_solutions).
  la::MultiVec solutions;
  bool cache_hit = false;
};

/// The cached setup/solve frontend. Not thread-safe: one service per
/// driving thread (solves themselves spin up the virtual ranks).
class SolveService {
 public:
  explicit SolveService(const ServiceConfig& config) : config_(config) {}

  /// Registers a model problem under `mesh_id` (owning copy).
  void register_problem(std::string mesh_id, ModelProblem problem);
  /// Registers a caller-owned model problem (no copy; the pointee must
  /// outlive every entry built from it).
  void register_problem(std::string mesh_id,
                        std::shared_ptr<const ModelProblem> problem);

  /// The cached entry for `mesh_id` under the current config, building it
  /// on a miss (emits the setup phase spans only then — a cached request
  /// has no partition/fine_grid/mesh_setup/matrix_setup spans at all).
  /// `refine_rounds` = -1 uses the config default.
  EntryHandle acquire(const std::string& mesh_id, int refine_rounds = -1);

  /// acquire + solve_with in one call.
  SolveResponse solve(const SolveRequest& req);

  /// Runs the blocked solve against an already-acquired entry. The entry
  /// stays valid even if the cache has since evicted it.
  SolveResponse solve_with(const EntryHandle& entry,
                           const SolveRequest& req) const;

  const ServiceConfig& config() const { return config_; }
  std::size_t cache_size() const { return lru_.size(); }
  std::int64_t cache_hits() const { return hits_; }
  std::int64_t cache_misses() const { return misses_; }

  /// The cache key `mesh_id` resolves to under the current config.
  /// `refine_rounds` = -1 uses the config default.
  std::string fingerprint(const std::string& mesh_id,
                          int refine_rounds = -1) const;

 private:
  EntryHandle build_entry(const std::string& mesh_id, std::string key,
                          int refine_rounds);

  ServiceConfig config_;
  std::unordered_map<std::string, std::shared_ptr<const ModelProblem>>
      problems_;
  std::list<EntryHandle> lru_;  // front = most recently used
  std::unordered_map<std::string, std::list<EntryHandle>::iterator> cache_;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
};

}  // namespace prom::app
