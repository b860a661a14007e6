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
#include <utility>

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
  assert((!Quant || Quant->featureWidth() == Width) &&
         "quantized model width does not match the engine");
  unsigned NumShards = Config.NumShards > 0
                           ? Config.NumShards
                           : ThreadPool::global().numThreads();
  Shards.resize(std::max(1u, NumShards));
  TenantShard.resize(NumTenants);
  TenantLocal.resize(NumTenants);
  for (uint32_t T = 0; T < NumTenants; ++T) {
    TenantShard[T] = T % static_cast<uint32_t>(Shards.size());
    TenantLocal[T] = T / static_cast<uint32_t>(Shards.size());
  }
  FeatureNames.reserve(Width);
  for (size_t F = 0; F < Width; ++F)
    FeatureNames.push_back("pmc" + std::to_string(F));
  for (size_t SI = 0; SI < Shards.size(); ++SI) {
    // Shard SI owns the striped tenants {SI, SI + S, SI + 2S, ...};
    // shards past the tenant count (more shards than tenants) own none.
    size_t Owned = SI < NumTenants
                       ? (NumTenants - SI + Shards.size() - 1) / Shards.size()
                       : 0;
    Shards[SI].Cells.resize(Owned * NumApps);
    if (Quant) {
      // Integer path: quanta accumulators plus one fixed BatchSize batch
      // buffer, sized once here so the hot loop never allocates or
      // checks capacity.
      Shards[SI].CellsQ.resize(Owned * NumApps);
      Shards[SI].PendingRows.resize(BatchSize * Width);
      Shards[SI].PendingCells.resize(BatchSize);
      Shards[SI].PredQ.resize(BatchSize);
    }
  }
  if (!Quant) {
    PendingTenants.reserve(EpochSize);
    PendingApps.reserve(EpochSize);
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
  // Quantize once at the door and route straight to the owning shard's
  // batch; the rest of the pipeline is integer, and the staged row is
  // half the width of the FP path's.
  Shard &S = Shards[TenantShard[Tenant]];
  Quant->quantizeRow(Features, S.PendingRows.data() + S.PendingN * Width);
  S.PendingCells[S.PendingN] = TenantLocal[Tenant] * NumApps + App;
  if (++S.PendingN == BatchSize)
    flushShardBatch(S);
  ++PendingCount;
  return true;
}

inline bool ServingEngine::pushFpRow(uint32_t Tenant, uint32_t App,
                                     const double *Features, double Label) {
  if (!admit(Tenant, App, Features))
    return false;
  PendingTenants.push_back(Tenant);
  PendingApps.push_back(App);
  PendingFeatures.insert(PendingFeatures.end(), Features, Features + Width);
  PendingLabels.push_back(Label);
  ++PendingCount;
  return true;
}

bool ServingEngine::ingest(uint32_t Tenant, uint32_t App,
                           const double *Features) {
  if (!Quant)
    return ingest(Tenant, App, Features,
                  std::numeric_limits<double>::quiet_NaN());
  const bool Staged = pushQuantizedRow(Tenant, App, Features);
  if (PendingCount >= EpochSize)
    foldEpoch();
  return Staged;
}

bool ServingEngine::ingest(uint32_t Tenant, uint32_t App,
                           const double *Features, double Label) {
  assert(!Quant && "labeled ingestion requires the FP serving path");
  const bool Staged = pushFpRow(Tenant, App, Features, Label);
  if (PendingCount >= EpochSize)
    foldEpoch();
  return Staged;
}

void ServingEngine::flushShardBatch(Shard &S) {
  const auto Start = std::chrono::steady_clock::now();
  Quant->predictQuantizedMany(S.PendingRows.data(), /*Indices=*/nullptr,
                              S.PendingN, S.PredQ.data());
  const int64_t *PredQ = S.PredQ.data();
  const uint32_t *Cells = S.PendingCells.data();
  for (size_t I = 0, N = S.PendingN; I < N; ++I) {
    Shard::QCell &C = S.CellsQ[Cells[I]];
    C.EnergyQ += PredQ[I];
    C.Count += 1;
  }
  Stats.BatchMs.push_back(std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - Start)
                              .count());
  ++Stats.Batches;
  S.PendingN = 0;
}

void ServingEngine::retrainOnPending() {
  if (Quant || PendingLabels.empty() || (!Online && !ScoreLabels))
    return;
  const size_t NumPending = PendingTenants.size();
  assert(PendingLabels.size() == NumPending && "label column out of sync");

  // Staleness pass: score the epoch-start model — the one this epoch's
  // predictions were actually served with — against the epoch's labels,
  // serially in trace order (bit-identical at any shard/thread count).
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
  // shard/thread-invariant as the folded table.
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
  const size_t NumShards = Shards.size();

  // FP path: stable counting-sort partition of the pending observations
  // by shard — per-shard contiguous index runs, each preserving trace
  // order, so a cell's accumulation order is independent of the shard
  // count. (The quantized path pre-routed its rows at ingest, which
  // preserves trace order within a shard the same way.)
  std::vector<size_t> Offsets(NumShards + 1, 0);
  if (!Quant) {
    const size_t NumPending = PendingTenants.size();
    PartitionScratch.resize(NumPending);
    if (NumShards == 1) {
      // Everything belongs to the one shard, already in trace order.
      Offsets[1] = NumPending;
      for (size_t I = 0; I < NumPending; ++I)
        PartitionScratch[I] = I;
    } else {
      for (size_t I = 0; I < NumPending; ++I)
        ++Offsets[shardOf(PendingTenants[I]) + 1];
      for (size_t SI = 0; SI < NumShards; ++SI)
        Offsets[SI + 1] += Offsets[SI];
      std::vector<size_t> Cursor(Offsets.begin(), Offsets.end() - 1);
      for (size_t I = 0; I < NumPending; ++I)
        PartitionScratch[Cursor[shardOf(PendingTenants[I])]++] = I;
    }
  }

  if (Quant) {
    // Integer path: full batches already flushed in place as they
    // filled; only each shard's partial remainder is left, one cheap
    // kernel call per shard — not worth a task dispatch.
    for (size_t SI = 0; SI < NumShards; ++SI)
      if (Shards[SI].PendingN > 0)
        flushShardBatch(Shards[SI]);
  } else {
    // Each shard's run, cut into BatchSize batches in shard order: the
    // batch count per shard is ceil(run / BatchSize) at any thread count.
    std::vector<std::pair<size_t, size_t>> Batches;
    for (size_t SI = 0; SI < NumShards; ++SI)
      for (size_t B = Offsets[SI]; B < Offsets[SI + 1]; B += BatchSize)
        Batches.emplace_back(B, std::min(B + BatchSize, Offsets[SI + 1]));
    // The batches are the pool's tasks. Each writes only its own slice of
    // Predictions and its own latency slot, so a Zipf-hot shard's batches
    // spread over the pool like any other's.
    Predictions.resize(PartitionScratch.size());
    const size_t FirstMs = Stats.BatchMs.size();
    Stats.BatchMs.resize(FirstMs + Batches.size());
    parallelFor(0, Batches.size(), 1, [&](size_t BI) {
      const auto [Begin, End] = Batches[BI];
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
        Batch.addRow(PendingFeatures.data() + PartitionScratch[P] * Width,
                     0.0);
      const auto Start = std::chrono::steady_clock::now();
      const std::vector<double> Predicted = Model->predictBatch(Batch);
      Stats.BatchMs[FirstMs + BI] =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - Start)
              .count();
      std::copy(Predicted.begin(), Predicted.end(),
                Predictions.data() + Begin);
    });
    Stats.Batches += Batches.size();
    // Add each shard's predictions to its cells in partition order, which
    // is trace order per cell.
    for (size_t SI = 0; SI < NumShards; ++SI) {
      Shard &S = Shards[SI];
      for (size_t P = Offsets[SI]; P < Offsets[SI + 1]; ++P) {
        const size_t Obs = PartitionScratch[P];
        Cell &C = S.Cells[TenantLocal[PendingTenants[Obs]] * NumApps +
                          PendingApps[Obs]];
        C.EnergyJ += Predictions[P];
        C.Count += 1;
      }
    }
  }

  // Score this epoch against its labels and (in retrain mode) advance
  // the model — the republish point: the next epoch's predictions see
  // the post-update coefficients, this epoch's saw the pre-update ones.
  retrainOnPending();

  // The FP path's cells already hold this epoch: between folds they are
  // the query-visible table. The quantized path publishes here, converting
  // each cell's exact quanta total to joules in its shard's Cells: one
  // multiply per cell per fold, off the hot loop. Mid-epoch flushes move
  // only the quanta, so queries see the last fold until the next one.
  if (Quant) {
    const double DequantScale = Quant->dequantScale();
    for (Shard &S : Shards)
      for (size_t I = 0; I < S.Cells.size(); ++I) {
        S.Cells[I].EnergyJ =
            static_cast<double>(S.CellsQ[I].EnergyQ) * DequantScale;
        S.Cells[I].Count = S.CellsQ[I].Count;
      }
  }
  Stats.Observations += PendingCount;
  Stats.Epochs += 1;
  PendingCount = 0;
  PendingTenants.clear();
  PendingApps.clear();
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
