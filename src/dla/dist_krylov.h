// Distributed preconditioned conjugate gradient over parx: literally the
// same implementation as la::pcg (la::pcg_any), instantiated with the
// ParxBackend so reductions allreduce and operator application is the
// distributed SpMV — the paper's solve phase.
#pragma once

#include <span>

#include "dla/dist_csr.h"
#include "la/krylov.h"
#include "la/multivec.h"
#include "parx/runtime.h"

namespace prom::dla {

/// A distributed linear operator: applies to the local blocks of k
/// distributed vectors (a single vector is the k=1 block), column j
/// bitwise identical to the k=1 application of that column;
/// implementations communicate internally, one exchange per peer carrying
/// every column. Collective.
class DistOperator {
 public:
  virtual ~DistOperator() = default;
  virtual idx local_n() const = 0;
  virtual void apply(parx::Comm& comm, la::BlockCRef x_local,
                     la::BlockRef y_local) const = 0;
};

/// DistOperator adapter for any square distributed operator with the
/// shared spmv/residual interface over column blocks (DistCsr, DistBsr,
/// DistMf); the fused residual is the one the ParxBackend picks up
/// (bitwise equal to apply + waxpby, see la/backend.h).
template <class M>
class DistOperatorRef final : public DistOperator {
 public:
  explicit DistOperatorRef(const M& a) : a_(&a) {}
  idx local_n() const override { return a_->local_rows(); }
  void apply(parx::Comm& comm, la::BlockCRef x_local,
             la::BlockRef y_local) const override {
    a_->spmv(comm, x_local, y_local);
  }
  void residual(parx::Comm& comm, la::BlockCRef b_local,
                la::BlockCRef x_local, la::BlockRef r_local) const {
    a_->residual(comm, b_local, x_local, r_local);
  }

 private:
  const M* a_;
};

/// Distributed (P)CG on one right-hand side (la::pcg_any's k=1 case on
/// the parx backend); `m` may be null for plain CG. Collective; every
/// rank receives the same KrylovResult.
la::KrylovResult dist_pcg(parx::Comm& comm, const DistOperator& a,
                          const DistOperator* m, std::span<const real> b_local,
                          std::span<real> x_local,
                          const la::KrylovOptions& opts = {});

/// Distributed restarted GMRES(m) with optional right preconditioning —
/// la::gmres_any on the parx backend, for non-symmetric operators
/// (advection–diffusion). Collective; every rank receives the same
/// KrylovResult.
la::KrylovResult dist_gmres(parx::Comm& comm, const DistOperator& a,
                            const DistOperator* m,
                            std::span<const real> b_local,
                            std::span<real> x_local,
                            const la::GmresOptions& opts = {});

/// Distributed BiCGStab with optional right preconditioning —
/// la::bicgstab_any on the parx backend. Collective; every rank receives
/// the same KrylovResult.
la::KrylovResult dist_bicgstab(parx::Comm& comm, const DistOperator& a,
                               const DistOperator* m,
                               std::span<const real> b_local,
                               std::span<real> x_local,
                               const la::KrylovOptions& opts = {});

}  // namespace prom::dla
