#include "dla/dist_krylov.h"

#include "dla/parx_backend.h"
#include "la/krylov_any.h"

namespace prom::dla {

la::KrylovResult dist_pcg(parx::Comm& comm, const DistOperator& a,
                          const DistOperator* m, std::span<const real> b_local,
                          std::span<real> x_local,
                          const la::KrylovOptions& opts) {
  return la::pcg_any(ParxBackend{&comm}, a, m, b_local, x_local, opts)
      .front();
}

la::KrylovResult dist_gmres(parx::Comm& comm, const DistOperator& a,
                            const DistOperator* m,
                            std::span<const real> b_local,
                            std::span<real> x_local,
                            const la::GmresOptions& opts) {
  return la::gmres_any(ParxBackend{&comm}, a, m, b_local, x_local, opts);
}

la::KrylovResult dist_bicgstab(parx::Comm& comm, const DistOperator& a,
                               const DistOperator* m,
                               std::span<const real> b_local,
                               std::span<real> x_local,
                               const la::KrylovOptions& opts) {
  return la::bicgstab_any(ParxBackend{&comm}, a, m, b_local, x_local, opts);
}

}  // namespace prom::dla
