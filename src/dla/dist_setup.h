// Distributed matrix setup: the Galerkin triple product R A R^T computed
// on row-distributed matrices (the paper's "matrix setup" phase, Table 3).
// Each rank works only on its own rows plus fetched ghost rows of the
// right-hand factor, so per-rank setup cost scales with local rows — no
// rank ever materializes a global operator. The per-row accumulation order
// mirrors la::spgemm exactly (ascending-column Gustavson), so the
// distributed coarse operators are bit-identical to the serial Galerkin
// chain under the setup permutation.
#pragma once

#include "dla/dist_csr.h"
#include "la/csr.h"
#include "parx/runtime.h"

namespace prom::dla {

/// C = A * B distributed: requires A's column distribution == B's row
/// distribution. Ghost rows of B (rows matching A's ghost columns) are
/// fetched from their owners once. `a_col_serial`, when non-empty, maps a
/// global column id of A to its pre-permutation (serial) id; each output
/// entry then accumulates its terms in ascending *serial* order — the
/// order la::spgemm uses on the unpermuted matrices — so the product is
/// bit-identical to permuting the serial product, for any ownership
/// permutation. Empty means ascending global column order. Collective.
DistCsr dist_spgemm(parx::Comm& comm, const DistCsr& a, const DistCsr& b,
                    std::span<const idx> a_col_serial = {});

/// R^T distributed: each local entry (i, j) is shipped to the owner of
/// output row j; the result is row-distributed by R's column distribution.
/// Collective.
DistCsr dist_transpose(parx::Comm& comm, const DistCsr& r);

/// The Galerkin coarse operator R A R^T, associated exactly as the serial
/// la::galerkin_product: spgemm(R, spgemm(A, R^T)). `fine_col_serial` is
/// the fine level's permutation (new index -> serial free-dof index),
/// forwarded to both products as the term order (both multiply against
/// fine-level columns). Collective.
DistCsr dist_galerkin_product(parx::Comm& comm, const DistCsr& r,
                              const DistCsr& a,
                              std::span<const idx> fine_col_serial = {});

/// Result of repartition_mesh: the migrated operator plus the permutation
/// (new global index -> serial index) its rows and columns now follow.
struct RepartitionResult {
  DistCsr a;
  std::vector<idx> perm;
};

/// Migrates a row-distributed operator onto a new serial-row -> rank
/// assignment (the refine->rebalance step: `new_owner` is typically
/// partition::rcb_partition of the refined mesh, expanded to dofs).
/// The global numbering changes: the new numbering stable-sorts the
/// serial rows by their new owner — exactly the recipe
/// DistHierarchy::build uses — so the result is bit-identical
/// to DistCsr::from_global_permuted of the serial operator under the new
/// assignment, without any rank touching the serial matrix. `old_perm`
/// maps `a`'s current global ids to serial ids (DistHierarchy::
/// permutation(0) when migrating a fine level). Collective.
RepartitionResult repartition_mesh(parx::Comm& comm, const DistCsr& a,
                                   std::span<const idx> old_perm,
                                   std::span<const idx> new_owner);

/// Gathers a distributed matrix to a replicated la::Csr on every rank.
/// Only legitimate for the constant-size coarsest operator (the redundant
/// coarse solve of §5); everything larger stays distributed. Collective.
la::Csr dist_gather_matrix(parx::Comm& comm, const DistCsr& a);

}  // namespace prom::dla
