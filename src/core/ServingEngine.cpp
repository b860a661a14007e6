//===- core/ServingEngine.cpp - Fleet energy-attribution service ----------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "core/ServingEngine.h"

#include "ml/QuantizedModel.h"
#include "support/PhaseTimers.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <limits>

using namespace slope;
using namespace slope::core;

double ServingStats::batchLatencyQuantileMs(double Q) const {
  if (BatchMs.empty())
    return 0;
  std::vector<double> Sorted(BatchMs);
  std::sort(Sorted.begin(), Sorted.end());
  size_t I = static_cast<size_t>(Q * static_cast<double>(Sorted.size() - 1));
  return Sorted[std::min(I, Sorted.size() - 1)];
}

ServingEngine::ServingEngine(const ml::Model &M, size_t FeatureWidth,
                             uint32_t NumTenants, uint32_t NumApps,
                             ServingConfig Config)
    : Model(&M), Quant(dynamic_cast<const ml::QuantizedModel *>(&M)),
      Width(FeatureWidth), NumTenants(NumTenants), NumApps(NumApps),
      EpochSize(std::max<size_t>(1, Config.EpochSize)),
      BatchSize(std::max<size_t>(1, Config.BatchSize)),
      ScoreLabels(Config.ScoreLabels) {
  assert(FeatureWidth > 0 && "serving needs at least one feature");
  assert(NumTenants > 0 && NumApps > 0 && "serving needs a fleet shape");
  assert(static_cast<uint64_t>(NumTenants) * NumApps <= UINT32_MAX &&
         "a cell index must fit in 32 bits");
  assert((!Quant || Quant->featureWidth() == Width) &&
         "quantized model width does not match the engine");
  FeatureNames.reserve(Width);
  for (size_t F = 0; F < Width; ++F)
    FeatureNames.push_back("pmc" + std::to_string(F));
  Cells.resize(static_cast<size_t>(NumTenants) * NumApps);
  if (Quant) {
    // Integer path: quanta accumulators plus one fixed BatchSize batch
    // buffer, sized once here so the hot loop never allocates.
    CellsQ.resize(Cells.size());
    PendingCells.reserve(BatchSize);
    PendingRowsQ.resize(BatchSize * Width);
    PredQ.resize(BatchSize);
  } else {
    PendingCells.reserve(EpochSize);
    PendingFeatures.reserve(EpochSize * Width);
    PendingLabels.reserve(EpochSize);
  }
}

void ServingEngine::enableOnlineRetrain(ml::RlsLinearRegression &OnlineModel,
                                        ml::FitAlgorithm Algo,
                                        const ml::Dataset *SeedHistory) {
  assert(!Quant && "online retrain is incompatible with a quantized model: "
                   "a retrained model cannot keep a frozen quantization "
                   "grid");
  assert(OnlineModel.featureWidth() == Width &&
         "online model width does not match the engine");
  assert(Stats.Observations == 0 && PendingCount == 0 &&
         "enable retrain before ingesting");
  Online = &OnlineModel;
  RetrainAlgo = Algo;
  Model = &OnlineModel;
  if (RetrainAlgo == ml::FitAlgorithm::Refit) {
    if (SeedHistory) {
      assert(SeedHistory->numFeatures() == Width &&
             "seed history width does not match the engine");
      History = *SeedHistory;
    } else {
      History = ml::Dataset(FeatureNames);
    }
  }
}

inline bool ServingEngine::pushQuantizedRow(uint32_t Tenant, uint32_t App,
                                            const double *Features) {
  if (!admit(Tenant, App, Features))
    return false;
  // Quantize once at the door; the rest of the pipeline is integer, and
  // the staged row is half the width of the FP path's.
  Quant->quantizeRow(Features,
                     PendingRowsQ.data() + PendingCells.size() * Width);
  PendingCells.push_back(Tenant * NumApps + App);
  if (PendingCells.size() == BatchSize)
    flushQuantizedBatch();
  ++PendingCount;
  return true;
}

inline bool ServingEngine::pushFpRow(uint32_t Tenant, uint32_t App,
                                     const double *Features, double Label) {
  if (!admit(Tenant, App, Features))
    return false;
  PendingCells.push_back(Tenant * NumApps + App);
  PendingFeatures.insert(PendingFeatures.end(), Features, Features + Width);
  PendingLabels.push_back(Label);
  ++PendingCount;
  return true;
}

bool ServingEngine::ingest(uint32_t Tenant, uint32_t App,
                           const double *Features) {
  return ingest(Tenant, App, Features,
                std::numeric_limits<double>::quiet_NaN());
}

bool ServingEngine::ingest(uint32_t Tenant, uint32_t App,
                           const double *Features, double Label) {
  const bool Staged = Quant ? pushQuantizedRow(Tenant, App, Features)
                            : pushFpRow(Tenant, App, Features, Label);
  if (PendingCount >= EpochSize)
    foldEpoch();
  return Staged;
}

void ServingEngine::flushQuantizedBatch() {
  const auto Start = std::chrono::steady_clock::now();
  const size_t N = PendingCells.size();
  Quant->predictQuantizedMany(PendingRowsQ.data(), /*Indices=*/nullptr, N,
                              PredQ.data());
  for (size_t I = 0; I < N; ++I) {
    QCell &C = CellsQ[PendingCells[I]];
    C.EnergyQ += PredQ[I];
    C.Count += 1;
  }
  Stats.BatchMs.push_back(std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - Start)
                              .count());
  ++Stats.Batches;
  PendingCells.clear();
}

void ServingEngine::retrainOnPending() {
  if (Quant || PendingLabels.empty() || (!Online && !ScoreLabels))
    return;
  const size_t NumPending = PendingCells.size();
  assert(PendingLabels.size() == NumPending && "label column out of sync");

  // Staleness pass: score the epoch-start model — the one this epoch's
  // predictions were actually served with — against the epoch's labels,
  // serially in trace order (bit-identical at any thread/batch count).
  // Runs before any update so frozen and retrained engines are measured
  // on equal footing: the difference between their scores is exactly the
  // staleness the retraining removes.
  std::vector<double> RowBuf;
  bool AnyLabeled = false;
  for (size_t I = 0; I < NumPending; ++I) {
    const double Y = PendingLabels[I];
    if (!std::isfinite(Y))
      continue;
    AnyLabeled = true;
    const double *X = PendingFeatures.data() + I * Width;
    double Pred;
    if (Online) {
      Pred = Online->predictRow(X);
    } else {
      RowBuf.assign(X, X + Width);
      Pred = Model->predict(RowBuf);
    }
    Stats.PredictionAbsErrJ += std::abs(Pred - Y);
    Stats.LabelAbsJ += std::abs(Y);
  }
  if (!Online || !AnyLabeled)
    return;

  // Advance the model for the next epoch. Both paths apply the labeled
  // rows serially in trace order, so the retrained coefficients are as
  // thread/batch-invariant as the folded table.
  if (RetrainAlgo == ml::FitAlgorithm::Rls) {
    // O(F^2) per observation, no history: cost per fold is proportional
    // to the epoch, not to the stream consumed so far.
    ScopedPhase Timer(Phase::RlsUpdate);
    for (size_t I = 0; I < NumPending; ++I)
      if (std::isfinite(PendingLabels[I]))
        Online->update(PendingFeatures.data() + I * Width, PendingLabels[I]);
  } else {
    // The reference: append the epoch to the history and re-solve the
    // batch fit from scratch — O(N*F^2) with N the entire stream so far.
    ScopedPhase Timer(Phase::Refit);
    for (size_t I = 0; I < NumPending; ++I)
      if (std::isfinite(PendingLabels[I]))
        History.addRow(PendingFeatures.data() + I * Width, PendingLabels[I]);
    auto Refitted = Online->fit(History);
    assert(Refitted && "online refit failed on accumulated history");
    (void)Refitted;
  }
  ++Stats.Retrains;
}

void ServingEngine::foldEpoch() {
  ScopedPhase FoldTimer(Phase::ServeFold);
  if (Quant) {
    // Integer path: full batches already flushed in place as they filled;
    // only the partial remainder is left, one cheap kernel call.
    if (!PendingCells.empty())
      flushQuantizedBatch();
  } else {
    // The epoch's rows in trace order, cut into BatchSize batches: the
    // pool's tasks. Each writes only its own slice of Predictions and its
    // own latency slot.
    const size_t NumPending = PendingCells.size();
    const size_t NumBatches = (NumPending + BatchSize - 1) / BatchSize;
    Predictions.resize(NumPending);
    const size_t FirstMs = Stats.BatchMs.size();
    Stats.BatchMs.resize(FirstMs + NumBatches);
    parallelFor(0, NumBatches, 1, [&](size_t BI) {
      const size_t Begin = BI * BatchSize;
      const size_t End = std::min(Begin + BatchSize, NumPending);
      // One batch Dataset per pool thread, refilled in place. A fresh one
      // per batch grew the allocator's heaps: on a 4-core Xeon, fleet-rf
      // peak_rss_mb read 15.6 MB in 3 of 4 runs, against 13.7 MB in 4 of
      // 4 with this reuse. Every engine names its features pmc0, pmc1,
      // ..., so the width alone tells whether the schema fits.
      thread_local ml::Dataset Batch;
      if (Batch.numFeatures() != Width)
        Batch = ml::Dataset(FeatureNames);
      Batch.clearRows();
      for (size_t P = Begin; P < End; ++P)
        Batch.addRow(PendingFeatures.data() + P * Width, 0.0);
      const auto Start = std::chrono::steady_clock::now();
      const std::vector<double> Predicted = Model->predictBatch(Batch);
      Stats.BatchMs[FirstMs + BI] =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - Start)
              .count();
      std::copy(Predicted.begin(), Predicted.end(),
                Predictions.data() + Begin);
    });
    Stats.Batches += NumBatches;
    // One serial pass adds the predictions to their cells in trace order.
    for (size_t P = 0; P < NumPending; ++P) {
      Cell &C = Cells[PendingCells[P]];
      C.EnergyJ += Predictions[P];
      C.Count += 1;
    }
  }

  // Score this epoch against its labels and (in retrain mode) advance
  // the model — the republish point: the next epoch's predictions see
  // the post-update coefficients, this epoch's saw the pre-update ones.
  retrainOnPending();

  // The FP path's cells already hold this epoch: between folds they are
  // the query-visible table. The quantized path publishes here, converting
  // each cell's exact quanta total to joules: one multiply per cell per
  // fold, off the hot loop. Mid-epoch flushes move only the quanta, so
  // queries see the last fold until the next one.
  if (Quant) {
    const double DequantScale = Quant->dequantScale();
    for (size_t I = 0; I < Cells.size(); ++I) {
      Cells[I].EnergyJ = static_cast<double>(CellsQ[I].EnergyQ) * DequantScale;
      Cells[I].Count = CellsQ[I].Count;
    }
  }
  Stats.Observations += PendingCount;
  Stats.Epochs += 1;
  PendingCount = 0;
  PendingCells.clear();
  PendingFeatures.clear();
  PendingLabels.clear();
}

void ServingEngine::endEpoch() {
  if (PendingCount == 0)
    return;
  foldEpoch();
}

void ServingEngine::replay(const FleetTrace &Trace) {
  assert(Trace.width() == Width && "trace width does not match the engine");
  ScopedPhase Timer(Phase::Serve);
  // Bulk-stage in epoch-sized chunks; results are identical to a per-row
  // ingest loop (same rows, order, and fold boundaries), and the chunking
  // lets the staging slices and the folds charge disjoint sub-phases so
  // --bench-json can split replay cost into ingest_ms and fold_ms.
  size_t I = 0;
  while (I < Trace.size()) {
    const size_t End = std::min(Trace.size(), I + (EpochSize - PendingCount));
    {
      // ingest()'s staging paths, minus the per-row fold checks; on the
      // FP path the trace's labels ride along for the retrain fold.
      ScopedPhase IngestTimer(Phase::ServeIngest);
      if (Quant)
        for (size_t R = I; R < End; ++R)
          pushQuantizedRow(Trace.tenant(R), Trace.app(R), Trace.features(R));
      else
        for (size_t R = I; R < End; ++R)
          pushFpRow(Trace.tenant(R), Trace.app(R), Trace.features(R),
                    Trace.label(R));
    }
    I = End;
    if (PendingCount >= EpochSize)
      foldEpoch();
  }
  endEpoch();
}

double ServingEngine::tenantEnergy(uint32_t Tenant) const {
  assert(Tenant < NumTenants && "tenant id out of range");
  const Cell *Row = cellsOf(Tenant);
  double Sum = 0;
  for (uint32_t A = 0; A < NumApps; ++A)
    Sum += Row[A].EnergyJ;
  return Sum;
}

uint64_t ServingEngine::tenantObservations(uint32_t Tenant) const {
  assert(Tenant < NumTenants && "tenant id out of range");
  const Cell *Row = cellsOf(Tenant);
  uint64_t Sum = 0;
  for (uint32_t A = 0; A < NumApps; ++A)
    Sum += Row[A].Count;
  return Sum;
}

double ServingEngine::appEnergy(uint32_t App) const {
  assert(App < NumApps && "app id out of range");
  double Sum = 0;
  for (uint32_t T = 0; T < NumTenants; ++T)
    Sum += cellsOf(T)[App].EnergyJ;
  return Sum;
}

uint64_t ServingEngine::appObservations(uint32_t App) const {
  assert(App < NumApps && "app id out of range");
  uint64_t Sum = 0;
  for (uint32_t T = 0; T < NumTenants; ++T)
    Sum += cellsOf(T)[App].Count;
  return Sum;
}

double ServingEngine::fleetEnergy() const {
  double Sum = 0;
  for (uint32_t T = 0; T < NumTenants; ++T)
    Sum += tenantEnergy(T);
  return Sum;
}
