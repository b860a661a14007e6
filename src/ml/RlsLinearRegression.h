//===- ml/RlsLinearRegression.h - Online least squares ----------*- C++ -*-===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive least squares (RLS): an online-updating linear model for the
/// streaming telemetry path. A batch fit() seeds the coefficients and the
/// inverse Gram matrix P = (X^T X + Lambda I)^-1; each subsequent
/// update(x, y) folds one observation in with a Sherman-Morrison rank-1
/// update in O(F^2) — no history is retained and no dataset is rescanned,
/// so continuous retraining is epoch-size-independent, the property the
/// serving engine's online-retrain mode is built on.
///
/// The O(N*F^2) full refit over the accumulated stream stays as the
/// reference (FitAlgorithm::Refit, which the serving engine's caller picks
/// per engine — bench_serving_engine's `--retrain rls|refit`) and as the
/// baseline of the retrain speedup gate. RLS reassociates the Gram
/// accumulation, so the contract against the reference is a
/// property-tested tolerance (< 1e-8 relative coefficient and prediction
/// error after every stream prefix), mirroring the AVX2 K-split kernels'
/// contract rather than a bit-identity contract.
///
//===----------------------------------------------------------------------===//

#ifndef SLOPE_ML_RLSLINEARREGRESSION_H
#define SLOPE_ML_RLSLINEARREGRESSION_H

#include "ml/Model.h"

namespace slope {
namespace ml {

/// Online-model maintenance algorithm, chosen per serving engine
/// (core::ServingEngine::enableOnlineRetrain). Rls folds each new
/// observation into the inverse-Gram state in O(F^2); Refit re-solves the
/// normal equations over the full accumulated history in O(N*F^2) — the
/// readable reference the property suite scores Rls against.
enum class FitAlgorithm {
  Refit, ///< Full batch refit over the accumulated stream (reference).
  Rls,   ///< Sherman-Morrison rank-1 updates (fast path).
};

/// Configuration of the streaming linear model.
struct RlsOptions {
  /// No intercept term, matching the paper's linear energy models.
  bool ZeroIntercept = true;
  /// Ridge penalty; also the prior precision seeding P before the first
  /// batch fit. Must be > 0 so P exists even for rank-deficient seeds.
  double Lambda = 1e-6;
};

/// Linear regression with O(F^2) recursive-least-squares online updates.
///
/// Unlike the paper-default LinearRegression this model is unconstrained
/// (no NNLS): non-negativity is a projection, not an invariant a rank-1
/// update can maintain. On the fleet workloads the serving engine
/// retrains over, the non-negativity constraints are inactive anyway
/// (energy rises with every counted event), so the unconstrained solution
/// coincides with the NNLS one.
class RlsLinearRegression : public Model {
public:
  explicit RlsLinearRegression(RlsOptions Options = RlsOptions())
      : Options(Options) {}

  /// Batch (re)fit: solves the ridge normal equations over \p Training
  /// (the exact system LinearRegression solves with NonNegative off) and
  /// seeds the inverse Gram for subsequent update() calls. This is also
  /// the FitAlgorithm::Refit reference: calling fit on the accumulated
  /// stream after every epoch is the O(N*F^2) path the Rls updates are
  /// gated against.
  Expected<bool> fit(const Dataset &Training) override;

  /// Folds one observation (\p Features: featureWidth() values, target
  /// \p Target) into the model: Sherman-Morrison rank-1 update of the
  /// inverse Gram plus the gain-weighted coefficient correction. O(F^2)
  /// time, O(F^2) state, no history. Must follow a successful fit().
  void update(const double *Features, double Target);

  /// Convenience overload; asserts the width matches.
  void update(const std::vector<double> &Features, double Target) {
    assert(Features.size() == Width && "feature width mismatch");
    update(Features.data(), Target);
  }

  double predict(const std::vector<double> &Features) const override;

  /// Allocation-free single-row predict for serving hot loops.
  double predictRow(const double *Features) const;

  std::vector<double> predictBatch(const Dataset &Data) const override;
  std::string name() const override { return "RLS-LR"; }

  /// \returns the current coefficients (one per feature).
  const std::vector<double> &coefficients() const {
    assert(Fitted && "model not fitted");
    return Coefficients;
  }

  /// \returns the intercept (0 when ZeroIntercept).
  double intercept() const {
    assert(Fitted && "model not fitted");
    return Intercept;
  }

  size_t featureWidth() const { return Width; }

  /// \returns rows absorbed so far (seed rows plus update() calls).
  uint64_t observations() const { return Seen; }

private:
  /// Augmented width: featureWidth() plus one intercept slot when
  /// ZeroIntercept is off. W and P live in augmented coordinates.
  size_t stateWidth() const { return Options.ZeroIntercept ? Width : Width + 1; }

  RlsOptions Options;
  size_t Width = 0;
  std::vector<double> Coefficients; ///< Per-feature view of the state.
  double Intercept = 0;
  /// Augmented coefficient vector (intercept first when present).
  std::vector<double> W;
  /// Inverse Gram (X^T X + Lambda I)^-1, stateWidth() x stateWidth()
  /// row-major, kept symmetric by construction.
  std::vector<double> P;
  std::vector<double> Gain; ///< Reused P*x scratch (stateWidth()).
  std::vector<double> XAug; ///< Reused augmented-row scratch (intercept).
  uint64_t Seen = 0;
  bool Fitted = false;
};

} // namespace ml
} // namespace slope

#endif // SLOPE_ML_RLSLINEARREGRESSION_H
