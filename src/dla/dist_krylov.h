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

/// A distributed linear operator: applies to the local block of a
/// distributed vector; implementations communicate internally.
class DistOperator {
 public:
  virtual ~DistOperator() = default;
  virtual idx local_n() const = 0;
  virtual void apply(parx::Comm& comm, std::span<const real> x_local,
                     std::span<real> y_local) const = 0;
  /// Column-blocked apply on the local blocks of k distributed vectors;
  /// column j is bitwise identical to `apply` on that column. Overridden
  /// by operators whose exchange can carry all columns in one message per
  /// peer; the default applies column by column. Collective.
  virtual void apply_mv(parx::Comm& comm, const la::MultiVec& x_local,
                        la::MultiVec& y_local) const {
    for (int j = 0; j < x_local.cols(); ++j) {
      apply(comm, x_local.col(j), y_local.col(j));
    }
  }
};

/// DistOperator adapter for any square distributed operator with the
/// shared spmv/residual interface over column blocks (DistCsr, DistBsr,
/// DistMf): apply and apply_mv are the same call at k=1 and k, and the
/// fused residual is the one the ParxBackend picks up (bitwise equal to
/// apply + waxpby, see la/backend.h).
template <class M>
class DistOperatorRef final : public DistOperator {
 public:
  explicit DistOperatorRef(const M& a) : a_(&a) {}
  idx local_n() const override { return a_->local_rows(); }
  void apply(parx::Comm& comm, std::span<const real> x_local,
             std::span<real> y_local) const override {
    a_->spmv(comm, x_local, y_local);
  }
  void apply_mv(parx::Comm& comm, const la::MultiVec& x_local,
                la::MultiVec& y_local) const override {
    a_->spmv(comm, x_local, y_local);
  }
  void residual(parx::Comm& comm, la::BlockCRef b_local,
                la::BlockCRef x_local, la::BlockRef r_local) const {
    a_->residual(comm, b_local, x_local, r_local);
  }

 private:
  const M* a_;
};

/// Distributed (P)CG; `m` may be null for plain CG. Collective; every rank
/// receives the same KrylovResult.
la::KrylovResult dist_pcg(parx::Comm& comm, const DistOperator& a,
                          const DistOperator* m, std::span<const real> b_local,
                          std::span<real> x_local,
                          const la::KrylovOptions& opts = {});

/// Column-blocked distributed PCG: one exchange per operator application
/// serves all k right-hand sides; column j of the result is bitwise
/// identical to `dist_pcg` on that column alone. Collective; every rank
/// receives the same results.
std::vector<la::KrylovResult> dist_pcg_multi(
    parx::Comm& comm, const DistOperator& a, const DistOperator* m,
    const la::MultiVec& b_local, la::MultiVec& x_local,
    const la::KrylovOptions& opts = {}, la::KrylovWorkspace* ws = nullptr);

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
