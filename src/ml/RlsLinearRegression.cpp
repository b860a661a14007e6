//===- ml/RlsLinearRegression.cpp - Online least squares -------------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "ml/RlsLinearRegression.h"

#include "stats/Solve.h"

using namespace slope;
using namespace slope::ml;

Expected<bool> RlsLinearRegression::fit(const Dataset &Training) {
  if (Training.numRows() == 0)
    return makeError("cannot fit an RLS model on an empty dataset");
  if (Training.numFeatures() == 0)
    return makeError("cannot fit an RLS model without features");
  if (!(Options.Lambda > 0))
    return makeError("RLS needs Lambda > 0: the ridge prior is what keeps "
                     "the inverse Gram defined for rank-deficient seeds");

  Width = Training.numFeatures();
  const size_t SW = stateWidth();

  // The seed solve is the exact ridge system LinearRegression solves with
  // NonNegative off: (X^T X + Lambda I) w = X^T y.
  stats::Matrix X = Training.designMatrix(!Options.ZeroIntercept);
  auto Solution =
      stats::solveNormalEquations(X, Training.targets(), Options.Lambda);
  if (!Solution)
    return Solution.error();
  W = Solution.takeValue();

  // Seed the inverse Gram P = (X^T X + Lambda I)^-1 column by column
  // (Cholesky solve against each unit vector). Each solve refactorizes —
  // O(SW^4) total — but SW is tens at most and fits are rare next to the
  // O(SW^2) updates they amortize over.
  stats::Matrix G = X.gram();
  for (size_t D = 0; D < SW; ++D)
    G.at(D, D) += Options.Lambda;
  P.assign(SW * SW, 0.0);
  std::vector<double> Unit(SW, 0.0);
  for (size_t C = 0; C < SW; ++C) {
    Unit[C] = 1.0;
    auto Col = stats::solveCholesky(G, Unit);
    Unit[C] = 0.0;
    if (!Col)
      return Col.error();
    for (size_t R = 0; R < SW; ++R)
      P[R * SW + C] = (*Col)[R];
  }

  if (Options.ZeroIntercept) {
    Intercept = 0;
    Coefficients = W;
  } else {
    Intercept = W.front();
    Coefficients.assign(W.begin() + 1, W.end());
  }
  Gain.assign(SW, 0.0);
  XAug.assign(SW, 0.0);
  Seen = Training.numRows();
  Fitted = true;
  return true;
}

void RlsLinearRegression::update(const double *Features, double Target) {
  assert(Fitted && "updating an unfitted model; call fit() first");
  const size_t SW = stateWidth();

  const double *X = Features;
  if (!Options.ZeroIntercept) {
    XAug[0] = 1.0;
    for (size_t C = 0; C < Width; ++C)
      XAug[C + 1] = Features[C];
    X = XAug.data();
  }

  // Sherman-Morrison on P = G^-1 for G' = G + x x^T:
  //   Px    = P x
  //   denom = 1 + x^T P x            (> 0: P is positive definite)
  //   w    += Px * (y - x^T w) / denom
  //   P    -= Px Px^T / denom        (stays symmetric by construction)
  for (size_t R = 0; R < SW; ++R)
    Gain[R] = stats::dot(&P[R * SW], X, SW);
  const double Denom = 1.0 + stats::dot(X, Gain.data(), SW);
  const double Err = Target - stats::dot(X, W.data(), SW);

  stats::axpy(Err / Denom, Gain.data(), W.data(), SW);
  for (size_t R = 0; R < SW; ++R)
    stats::axpy(-Gain[R] / Denom, Gain.data(), &P[R * SW], SW);

  if (Options.ZeroIntercept) {
    Coefficients = W;
  } else {
    Intercept = W.front();
    Coefficients.assign(W.begin() + 1, W.end());
  }
  ++Seen;
}

double RlsLinearRegression::predictRow(const double *Features) const {
  assert(Fitted && "predicting with an unfitted model");
  double Sum = Intercept;
  for (size_t C = 0; C < Width; ++C)
    Sum += Coefficients[C] * Features[C];
  return Sum;
}

double RlsLinearRegression::predict(const std::vector<double> &Features) const {
  assert(Features.size() == Width &&
         "feature width does not match the fitted model");
  return predictRow(Features.data());
}

std::vector<double>
RlsLinearRegression::predictBatch(const Dataset &Data) const {
  assert(Fitted && "predicting with an unfitted model");
  assert(Data.numFeatures() == Width &&
         "feature width does not match the fitted model");
  // Accumulate per row in ascending feature order — the same order as
  // predictRow() — streaming each column once.
  std::vector<double> Out(Data.numRows(), Intercept);
  for (size_t C = 0; C < Width; ++C) {
    const double *Col = Data.column(C);
    double Wc = Coefficients[C];
    for (size_t R = 0; R < Out.size(); ++R)
      Out[R] += Wc * Col[R];
  }
  return Out;
}
