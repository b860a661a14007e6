//===- core/OnlineEstimator.cpp - Deployable online energy model ----------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "core/OnlineEstimator.h"

#include "ml/QuantizedModel.h"
#include "pmc/CounterScheduler.h"

using namespace slope;
using namespace slope::core;
using namespace slope::sim;

Expected<OnlineEstimator>
OnlineEstimator::train(Machine &M, power::HclWattsUp &Meter,
                       const std::vector<std::string> &PmcNames,
                       const std::vector<CompoundApplication> &TrainingApps,
                       ModelFamily Family, uint64_t Seed) {
  if (PmcNames.empty())
    return makeError("an online estimator needs at least one PMC");

  std::vector<pmc::EventId> Events;
  for (const std::string &Name : PmcNames) {
    auto Id = M.registry().lookup(Name);
    if (!Id)
      return Id.error();
    Events.push_back(*Id);
  }

  // Online constraint: all events in one collection run.
  auto Plan = pmc::planCollection(M.registry(), Events, M.platform().pmuSpec());
  if (!Plan)
    return Plan.error();
  if (Plan->numRuns() != 1)
    return makeError("the selected PMCs need " +
                     std::to_string(Plan->numRuns()) +
                     " collection runs; an online estimator requires 1");

  DatasetBuilder Builder(M, Meter);
  auto Training = Builder.build(TrainingApps, Events);
  if (!Training)
    return Training.error();

  std::unique_ptr<ml::Model> FittedModel = makePaperModel(Family, Seed);
  if (auto Fit = FittedModel->fit(*Training); !Fit)
    return Fit.error();
  // Under --infer-algo quantized the estimator serves the fixed-point
  // twin, calibrated on the training dataset. Propagate build failures
  // (e.g. a non-identity NN) instead of silently serving FP.
  if (ml::defaultInferenceAlgorithm() == ml::InferenceAlgorithm::Quantized) {
    auto Q = ml::QuantizedModel::build(std::move(FittedModel), *Training);
    if (!Q)
      return Q.error();
    FittedModel = Q.takeValue();
  }
  return OnlineEstimator(M, std::move(Events),
                         std::vector<std::string>(PmcNames),
                         std::move(FittedModel));
}

double OnlineEstimator::estimateExecution(const Execution &Exec) const {
  return FittedModel->predict(M->readCounters(Events, Exec));
}

std::vector<double>
OnlineEstimator::estimateExecutions(const std::vector<Execution> &Execs) const {
  ml::Dataset Batch(Names);
  Batch.reserveRows(Execs.size());
  for (const Execution &Exec : Execs)
    Batch.addRow(M->readCounters(Events, Exec), 0.0);
  return FittedModel->predictBatch(Batch);
}

double OnlineEstimator::estimateRun(const CompoundApplication &App) {
  return estimateExecution(M->run(App));
}
