#include "mg/hierarchy.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/error.h"
#include "common/log.h"
#include "la/operator.h"
#include "obs/trace.h"
#include "partition/greedy.h"

namespace prom::mg {
namespace {

/// Adjacency graph of a square sparse matrix's pattern.
graph::Graph graph_of_pattern(const la::Csr& a) {
  std::vector<std::pair<idx, idx>> edges;
  for (idx i = 0; i < a.nrows; ++i) {
    for (nnz_t k = a.rowptr[i]; k < a.rowptr[i + 1]; ++k) {
      if (a.colidx[k] > i) edges.emplace_back(i, a.colidx[k]);
    }
  }
  return graph::Graph::from_edges(a.nrows, edges);
}

}  // namespace

Hierarchy Hierarchy::build(const mesh::Mesh& mesh, const fem::DofMap& dofmap,
                           la::Csr a_fine, const MgOptions& opts) {
  Hierarchy h = build_grids(mesh, dofmap, std::move(a_fine), opts);
  h.build_operators();
  return h;
}

Hierarchy Hierarchy::build_grids(const mesh::Mesh& mesh,
                                 const fem::DofMap& dofmap, la::Csr a_fine,
                                 const MgOptions& opts) {
  PROM_CHECK(dofmap.num_vertices() == mesh.num_vertices());
  PROM_CHECK(a_fine.nrows == dofmap.num_free() &&
             a_fine.ncols == dofmap.num_free());
  std::vector<char> dof_free(static_cast<std::size_t>(dofmap.num_dofs()));
  for (idx d = 0; d < dofmap.num_dofs(); ++d) {
    dof_free[d] = dofmap.is_constrained(d) ? 0 : 1;
  }
  return build_grids_any(mesh, 3, std::move(dof_free), dofmap.free_dofs(),
                         std::move(a_fine), opts);
}

Hierarchy Hierarchy::build_scalar(const mesh::Mesh& mesh,
                                  const fem::ScalarDofMap& dofmap,
                                  la::Csr a_fine, const MgOptions& opts) {
  Hierarchy h = build_grids_scalar(mesh, dofmap, std::move(a_fine), opts);
  h.build_operators();
  return h;
}

Hierarchy Hierarchy::build_grids_scalar(const mesh::Mesh& mesh,
                                        const fem::ScalarDofMap& dofmap,
                                        la::Csr a_fine,
                                        const MgOptions& opts) {
  PROM_CHECK(dofmap.num_vertices() == mesh.num_vertices());
  PROM_CHECK(a_fine.nrows == dofmap.num_free() &&
             a_fine.ncols == dofmap.num_free());
  std::vector<char> dof_free(static_cast<std::size_t>(dofmap.num_dofs()));
  for (idx v = 0; v < dofmap.num_dofs(); ++v) {
    dof_free[v] = dofmap.is_constrained(v) ? 0 : 1;
  }
  return build_grids_any(mesh, 1, std::move(dof_free), dofmap.free_dofs(),
                         std::move(a_fine), opts);
}

Hierarchy Hierarchy::build_grids_any(const mesh::Mesh& mesh, int ncomp,
                                     std::vector<char> dof_free,
                                     std::vector<idx> fine_free,
                                     la::Csr a_fine, const MgOptions& opts) {
  Hierarchy h;
  h.opts_ = opts;
  h.block_size_ = ncomp;

  // Level 0: the application-provided grid.
  MgLevel fine;
  fine.a = std::move(a_fine);
  fine.num_vertices = mesh.num_vertices();
  fine.free_dofs = std::move(fine_free);
  h.levels_.push_back(std::move(fine));

  // Geometry of the level currently being coarsened. The coarsening is
  // purely vertex-based — identical grids for any block size; only the
  // dof expansion of the restriction differs.
  std::vector<Vec3> coords = mesh.coords();
  graph::Graph vgraph = mesh.vertex_graph();
  coarsen::Classification cls = coarsen::classify_mesh(mesh, opts.coarsen.face);

  for (int l = 0; l + 1 < opts.max_levels; ++l) {
    const idx n_free = static_cast<idx>(h.levels_.back().free_dofs.size());
    if (n_free <= opts.coarsest_max_dofs) break;

    coarsen::CoarsenLevelResult cl =
        coarsen::coarsen_level(coords, vgraph, cls, l, opts.coarsen);
    const idx n_coarse = static_cast<idx>(cl.selected.size());
    if (n_coarse < 8 ||
        n_coarse >= static_cast<idx>(opts.min_coarsen_ratio *
                                     static_cast<real>(coords.size()))) {
      PROM_WARN("coarsening stalled at level "
                << l << " (" << coords.size() << " -> " << n_coarse
                << " vertices); stopping hierarchy here");
      break;
    }

    // Coarse constraint flags + free dof lists for the dof expansion.
    std::vector<char> coarse_dof_free(static_cast<std::size_t>(ncomp) *
                                      n_coarse);
    std::vector<idx> coarse_free;
    for (idx c = 0; c < n_coarse; ++c) {
      for (int comp = 0; comp < ncomp; ++comp) {
        const char f = dof_free[ncomp * cl.selected[c] + comp];
        coarse_dof_free[ncomp * c + comp] = f;
        if (f) coarse_free.push_back(ncomp * c + comp);
      }
    }

    MgLevel next;
    next.r = coarsen::expand_restriction_to_dofs(
        cl.r_vertex, h.levels_.back().free_dofs, coarse_free, ncomp);
    next.num_vertices = n_coarse;
    next.free_dofs = std::move(coarse_free);
    next.selected_from_fine = cl.selected;
    next.lost_vertices = static_cast<idx>(cl.lost.size());
    next.graph_edges_removed = cl.graph_stats.edges_removed;
    h.levels_.push_back(std::move(next));

    // Advance the geometry to the new level.
    std::vector<Vec3> coarse_coords(static_cast<std::size_t>(n_coarse));
    for (idx c = 0; c < n_coarse; ++c) {
      coarse_coords[c] = coords[cl.selected[c]];
    }
    coords = std::move(coarse_coords);
    vgraph = cl.coarse_mesh.vertex_graph();
    cls = std::move(cl.coarse_cls);
    dof_free = std::move(coarse_dof_free);
  }

  return h;
}

namespace {

/// Free-dof list of a finalized dof map, plus the constraint flags the
/// MIS chain continues from.
template <typename AnyDofMap>
std::vector<idx> free_list(const AnyDofMap& dm) {
  return dm.free_dofs();
}

/// Vertex-weight restriction for one bisection round: n_coarse x n_fine,
/// column f holding fine vertex f's interpolation weights on the coarse
/// (pre-round) vertices. Surviving vertices inject; midpoints take half
/// of each bisected-edge endpoint, composed through same-round midpoints
/// in increasing id order (parents always have smaller ids).
la::Csr refinement_restriction(const mesh::RefineResult& round,
                               idx n_fine) {
  const idx n_coarse = round.num_parent_vertices;
  PROM_CHECK(n_fine ==
             n_coarse + static_cast<idx>(round.vertex_parents.size()));
  // weights[f]: sorted (coarse vertex, weight) pairs for fine vertex f.
  std::vector<std::vector<std::pair<idx, real>>> weights(
      static_cast<std::size_t>(n_fine));
  for (idx f = 0; f < n_coarse; ++f) weights[f] = {{f, 1}};
  for (idx m = n_coarse; m < n_fine; ++m) {
    const auto& par = round.vertex_parents[m - n_coarse];
    std::vector<std::pair<idx, real>> w;
    for (idx p : {par[0], par[1]}) {
      PROM_CHECK(p < m);
      for (const auto& [cv, cw] : weights[p]) w.emplace_back(cv, cw / 2);
    }
    std::sort(w.begin(), w.end());
    std::vector<std::pair<idx, real>> merged;
    for (const auto& [cv, cw] : w) {
      if (!merged.empty() && merged.back().first == cv) {
        merged.back().second += cw;
      } else {
        merged.emplace_back(cv, cw);
      }
    }
    weights[m] = std::move(merged);
  }
  // Transpose the per-column weights into CSR rows (coarse vertices).
  std::vector<nnz_t> rowptr(static_cast<std::size_t>(n_coarse) + 1, 0);
  for (idx f = 0; f < n_fine; ++f) {
    for (const auto& [cv, cw] : weights[f]) rowptr[cv + 1]++;
  }
  for (idx i = 0; i < n_coarse; ++i) rowptr[i + 1] += rowptr[i];
  la::Csr r;
  r.nrows = n_coarse;
  r.ncols = n_fine;
  r.rowptr = rowptr;
  r.colidx.resize(static_cast<std::size_t>(rowptr[n_coarse]));
  r.vals.resize(static_cast<std::size_t>(rowptr[n_coarse]));
  std::vector<nnz_t> cursor(rowptr.begin(), rowptr.end() - 1);
  for (idx f = 0; f < n_fine; ++f) {
    for (const auto& [cv, cw] : weights[f]) {
      const nnz_t k = cursor[cv]++;
      r.colidx[k] = f;
      r.vals[k] = cw;
    }
  }
  return r;
}

/// Free-dof rows (level-local) of the vertices touching the cells that
/// `round` subdivided — the local-smoothing region of that level.
std::vector<idx> refined_region_rows(const mesh::Mesh& mesh,
                                     const mesh::RefineResult& round,
                                     std::span<const idx> free,
                                     int ncomp) {
  std::vector<char> in_region(static_cast<std::size_t>(mesh.num_vertices()),
                              0);
  for (idx e = 0; e < mesh.num_cells(); ++e) {
    if (!round.cell_changed[e]) continue;
    for (idx v : mesh.cell(e)) in_region[v] = 1;
  }
  std::vector<idx> rows;
  for (idx i = 0; i < static_cast<idx>(free.size()); ++i) {
    if (in_region[free[i] / ncomp]) rows.push_back(i);
  }
  return rows;
}

}  // namespace

Hierarchy Hierarchy::build_grids_refined(
    const std::vector<const mesh::Mesh*>& meshes,
    const std::vector<const fem::DofMap*>& dofmaps,
    const std::vector<mesh::RefineResult>& rounds, la::Csr a_fine,
    const MgOptions& opts) {
  std::vector<std::vector<idx>> level_free;
  for (const fem::DofMap* dm : dofmaps) level_free.push_back(free_list(*dm));
  return build_grids_refined_any(meshes, rounds, std::move(level_free), 3,
                                 std::move(a_fine), opts);
}

Hierarchy Hierarchy::build_grids_refined_scalar(
    const std::vector<const mesh::Mesh*>& meshes,
    const std::vector<const fem::ScalarDofMap*>& dofmaps,
    const std::vector<mesh::RefineResult>& rounds, la::Csr a_fine,
    const MgOptions& opts) {
  std::vector<std::vector<idx>> level_free;
  for (const fem::ScalarDofMap* dm : dofmaps) {
    level_free.push_back(free_list(*dm));
  }
  return build_grids_refined_any(meshes, rounds, std::move(level_free), 1,
                                 std::move(a_fine), opts);
}

Hierarchy Hierarchy::build_refined(
    const std::vector<const mesh::Mesh*>& meshes,
    const std::vector<const fem::DofMap*>& dofmaps,
    const std::vector<mesh::RefineResult>& rounds, la::Csr a_fine,
    const MgOptions& opts) {
  Hierarchy h = build_grids_refined(meshes, dofmaps, rounds,
                                    std::move(a_fine), opts);
  h.build_operators();
  return h;
}

Hierarchy Hierarchy::build_refined_scalar(
    const std::vector<const mesh::Mesh*>& meshes,
    const std::vector<const fem::ScalarDofMap*>& dofmaps,
    const std::vector<mesh::RefineResult>& rounds, la::Csr a_fine,
    const MgOptions& opts) {
  Hierarchy h = build_grids_refined_scalar(meshes, dofmaps, rounds,
                                           std::move(a_fine), opts);
  h.build_operators();
  return h;
}

Hierarchy Hierarchy::build_grids_refined_any(
    const std::vector<const mesh::Mesh*>& meshes,
    const std::vector<mesh::RefineResult>& rounds,
    std::vector<std::vector<idx>> level_free, int ncomp, la::Csr a_fine,
    const MgOptions& opts) {
  const int R = static_cast<int>(rounds.size());
  PROM_CHECK(static_cast<int>(meshes.size()) == R + 1);
  PROM_CHECK(static_cast<int>(level_free.size()) == R + 1);
  PROM_CHECK(R >= 1);
  for (const mesh::Mesh* m : meshes) {
    PROM_CHECK_MSG(m->kind() == mesh::CellKind::kTet4,
                   "build_refined: refinement levels must be TET4 meshes");
  }
  PROM_CHECK(a_fine.nrows == static_cast<idx>(level_free[R].size()));

  Hierarchy h;
  h.opts_ = opts;
  h.block_size_ = ncomp;

  // Level 0: the finest refined mesh. Full smoothing — everything below
  // defers its unrefined region here or to the MIS chain.
  MgLevel fine;
  fine.a = std::move(a_fine);
  fine.num_vertices = meshes[R]->num_vertices();
  fine.free_dofs = level_free[R];
  h.levels_.push_back(std::move(fine));

  // Refinement levels, finest first: level R - r is meshes[r].
  for (int r = R - 1; r >= 0; --r) {
    const obs::Span span("setup.refine_level", R - r);
    const idx n_coarse = meshes[r]->num_vertices();
    la::Csr r_vertex =
        refinement_restriction(rounds[r], meshes[r + 1]->num_vertices());
    MgLevel next;
    next.r = coarsen::expand_restriction_to_dofs(
        r_vertex, h.levels_.back().free_dofs, level_free[r], ncomp);
    next.num_vertices = n_coarse;
    next.free_dofs = level_free[r];
    // Ownership chain for the distributed build: every coarse vertex IS
    // fine vertex with the same id (bisection only appends midpoints).
    next.selected_from_fine.resize(static_cast<std::size_t>(n_coarse));
    for (idx v = 0; v < n_coarse; ++v) next.selected_from_fine[v] = v;
    next.smooth_rows =
        refined_region_rows(*meshes[r], rounds[r], level_free[r], ncomp);
    h.levels_.push_back(std::move(next));
  }

  // MIS/Delaunay chain below the unrefined mesh: reuse the standard grid
  // build on meshes[0] and splice its coarse levels in (its level 0
  // duplicates the refinement-coarsest level above and is dropped).
  std::vector<char> dof_free(
      static_cast<std::size_t>(ncomp) * meshes[0]->num_vertices(), 0);
  for (idx d : level_free[0]) dof_free[d] = 1;
  Hierarchy mis = build_grids_any(*meshes[0], ncomp, std::move(dof_free),
                                  level_free[0], la::Csr{}, opts);
  for (std::size_t l = 1; l < mis.levels_.size(); ++l) {
    h.levels_.push_back(std::move(mis.levels_[l]));
  }
  return h;
}

Hierarchy Hierarchy::from_operator_chain(la::Csr a_fine,
                                         std::vector<la::Csr> restrictions,
                                         const MgOptions& opts) {
  Hierarchy h;
  h.opts_ = opts;
  MgLevel fine;
  fine.num_vertices = a_fine.nrows;
  fine.free_dofs.resize(static_cast<std::size_t>(a_fine.nrows));
  for (idx i = 0; i < a_fine.nrows; ++i) fine.free_dofs[i] = i;
  fine.a = std::move(a_fine);
  h.levels_.push_back(std::move(fine));
  for (la::Csr& r : restrictions) {
    PROM_CHECK(r.ncols ==
               static_cast<idx>(h.levels_.back().free_dofs.size()));
    MgLevel next;
    next.num_vertices = r.nrows;
    next.free_dofs.resize(static_cast<std::size_t>(r.nrows));
    for (idx i = 0; i < r.nrows; ++i) next.free_dofs[i] = i;
    next.r = std::move(r);
    h.levels_.push_back(std::move(next));
  }
  h.build_operators();
  return h;
}

void Hierarchy::update_fine_matrix(la::Csr a_fine) {
  PROM_CHECK(!levels_.empty());
  PROM_CHECK(a_fine.nrows == levels_[0].a.nrows);
  levels_[0].a = std::move(a_fine);
  build_operators();
}

void Hierarchy::set_fine_matrix(la::Csr a_fine) {
  PROM_CHECK(!levels_.empty());
  PROM_CHECK(a_fine.nrows == levels_[0].a.nrows);
  levels_[0].a = std::move(a_fine);
  levels_[0].a_bsr.reset();  // stale node-block view; enable_bsr rebuilds
}

void Hierarchy::build_operators() {
  for (std::size_t l = 1; l < levels_.size(); ++l) {
    const obs::Span span("setup.galerkin", static_cast<int>(l));
    levels_[l].a = la::galerkin_product(levels_[l].r, levels_[l - 1].a);
  }
  // Level-resolved size metrics (the serial mirror of the distributed
  // build's records; the serial hierarchy holds the whole operator).
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    const int li = static_cast<int>(l);
    obs::gauge_set("mg.rows", static_cast<double>(levels_[l].a.nrows), li);
    obs::counter_add("mg.nnz", static_cast<double>(levels_[l].a.nnz()), li);
  }
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    MgLevel& lv = levels_[l];
    lv.a_bsr.reset();  // stale node-block view; enable_bsr rebuilds
    if (l + 1 == levels_.size() && levels_.size() > 1) {
      factor_coarsest(lv.a, opts_.coarse_solver, lv.direct, lv.direct_lu);
    } else {
      lv.smoother = level_smoother(la::SerialBackend{}, la::CsrOperator(lv.a),
                                   lv.a, opts_, /*row_offset=*/0);
    }
  }
}

std::vector<std::vector<idx>> smoother_blocks(const la::Csr& diag,
                                              const MgOptions& opts) {
  if (opts.smoother != SmootherKind::kBlockJacobi) return {};
  return partition::block_jacobi_blocks(graph_of_pattern(diag),
                                        opts.bj_blocks_per_1000);
}

void factor_coarsest(const la::Csr& a, CoarseSolverKind kind,
                     std::unique_ptr<la::DenseLdlt>& direct,
                     std::unique_ptr<la::DenseLu>& direct_lu) {
  direct.reset();
  direct_lu.reset();
  la::DenseMatrix dense(a.nrows, a.ncols);
  for (idx i = 0; i < a.nrows; ++i) {
    for (nnz_t k = a.rowptr[i]; k < a.rowptr[i + 1]; ++k) {
      dense(i, a.colidx[k]) = a.vals[k];
    }
  }
  if (kind == CoarseSolverKind::kDenseLu) {
    // Partial pivoting handles anything short of exact singularity, which
    // the check rejects: no shift escalation.
    direct_lu = std::make_unique<la::DenseLu>(dense);
    PROM_CHECK_MSG(direct_lu->ok(),
                   "coarsest-level LU factorization failed (singular)");
    return;
  }
  direct = std::make_unique<la::DenseLdlt>(dense);
  if (direct->ok()) return;
  // Newton tangents can be mildly indefinite; shift to factorability
  // (degrades the coarse solve, never correctness of PCG's answer).
  real max_diag = 1;
  for (idx i = 0; i < a.nrows; ++i) {
    max_diag = std::max(max_diag, std::abs(dense(i, i)));
  }
  for (real shift = 1e-12 * max_diag; !direct->ok(); shift *= 10) {
    la::DenseMatrix shifted = dense;
    for (idx i = 0; i < a.nrows; ++i) shifted(i, i) += shift;
    *direct = la::DenseLdlt(shifted);
    PROM_CHECK_MSG(shift < 1e30, "coarse-level shift escalation failed");
  }
  PROM_WARN("coarsest-level operator required a diagonal shift");
}

void solve_coarsest(const la::DenseLdlt* direct, const la::DenseLu* direct_lu,
                    la::BlockCRef b, la::BlockRef x) {
  PROM_CHECK(b.rows() == x.rows() && b.cols() == x.cols());
  const auto n = static_cast<std::size_t>(b.rows());
  const std::span<const real> bs(b.data(), n * b.cols());
  const std::span<real> xs(x.data(), n * x.cols());
  if (direct != nullptr) {
    direct->solve_mv(bs, xs, b.cols(), b.rows());
  } else {
    PROM_CHECK(direct_lu != nullptr);
    direct_lu->solve_mv(bs, xs, b.cols(), b.rows());
  }
}

MatrixFormat matrix_format_from_env() {
  const char* env = std::getenv("PROM_MATRIX");
  if (env == nullptr || env[0] == '\0') return MatrixFormat::kCsr;
  const std::string_view v(env);
  if (v == "csr") return MatrixFormat::kCsr;
  if (v == "bsr3") return MatrixFormat::kBsr3;
  if (v == "mf") return MatrixFormat::kMf;
  PROM_CHECK_MSG(false, "PROM_MATRIX must be 'csr', 'bsr3' or 'mf'");
  return MatrixFormat::kCsr;
}

void Hierarchy::enable_bsr() {
  const obs::Span span("setup.enable_bsr");
  PROM_CHECK_MSG(block_size_ == 3,
                 "node-block (bsr3) format requires block size 3");
  for (MgLevel& lv : levels_) {
    PROM_CHECK(static_cast<idx>(lv.free_dofs.size()) == lv.a.nrows);
    la::NodeBlockMap map = la::node_block_map(lv.free_dofs);
    la::Bsr3 blocked = la::bsr_from_free_csr(lv.a, map);
    lv.a_bsr =
        std::make_unique<la::BsrOperator>(std::move(blocked), std::move(map));
  }
}

void Hierarchy::enable_mf(const mesh::Mesh& mesh,
                          std::span<const fem::Material> materials,
                          const fem::DofMap& dofmap, bool bbar) {
  PROM_CHECK(!levels_.empty());
  PROM_CHECK_MSG(block_size_ == 3,
                 "matrix-free elasticity format requires block size 3");
  fem::MatrixFreeOperator op =
      fem::MatrixFreeOperator::build(mesh, materials, dofmap, bbar);
  PROM_CHECK_MSG(op.rows() == levels_[0].a.nrows,
                 "enable_mf: dofmap does not match the fine operator");
  levels_[0].a_mf = std::make_unique<fem::MatrixFreeOperator>(std::move(op));
}

std::string Hierarchy::describe() const {
  std::ostringstream os;
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    const MgLevel& lv = levels_[l];
    os << "level " << l << ": " << lv.num_vertices << " vertices, "
       << lv.free_dofs.size() << " free dofs, nnz(A) = " << lv.a.nnz();
    if (l > 0) {
      os << ", reduction 1/"
         << static_cast<double>(levels_[l - 1].num_vertices) /
                static_cast<double>(lv.num_vertices)
         << ", lost " << lv.lost_vertices;
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace prom::mg
