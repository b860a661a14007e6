//===- core/ServingEngine.h - Fleet energy-attribution service --*- C++ -*-===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The long-running estimator service the pipeline's artifact plugs into:
/// ingests a stream of (tenant-id, app-id, PMC-vector) observations from
/// a simulated fleet and answers per-tenant / per-app dynamic-energy
/// queries, with inference through the model's batch path in bounded-size
/// batches so latency stays bounded while throughput scales.
///
/// Concurrency follows the per-CPU accumulator + periodic-fold idiom of
/// in-kernel energy models: tenant state is sharded (tenant % NumShards,
/// striped so Zipf-hot low tenant ids spread across shards), each shard
/// owns plain per-shard accumulation cells, and an explicit epoch boundary
/// folds the epoch's observations into them. The cells change only at a
/// fold, so between folds they are the query-visible table itself: a
/// query reads its tenants' cells in their shards. The fold's parallel
/// tasks are batches, not
/// shards: each shard's run of the epoch is cut into BatchSize batches,
/// and all batches of all shards go through one pool loop, each predicting
/// into its own slice of a position-indexed buffer — no locks or atomics
/// on the hot path, and a Zipf-hot shard no longer holds the whole fold
/// on one thread.
///
/// Determinism argument (the house bit-identity style): a (tenant, app)
/// cell is owned by exactly one shard, the epoch partition is a stable
/// counting sort (so each shard's run is in trace order), each prediction
/// is a pure function of one feature row, and the predictions are added to
/// their cells serially in partition order once every batch is done — so
/// every cell's float accumulation order is trace order regardless of
/// shard count, thread count, or batch size. Derived aggregates are summed
/// from the cells in ascending (tenant, app) order, whichever shard holds
/// each, so replaying the same trace is bit-identical at any shard/thread
/// count.
///
/// Serving a ml::QuantizedModel switches the hot loop to the integer fast
/// path: each observation is quantized once at ingest (int32 rows, half
/// the memory traffic of doubles) and staged directly into its owning
/// shard's batch buffer with a precomputed accumulation slot — the shard
/// is a pure function of the tenant id, so the integer path skips the
/// epoch partition pass and the index gather entirely. The moment a
/// shard's batch fills, predictQuantizedMany runs over it in place — no
/// Dataset assembly, no per-batch allocation, no FP in the loop — and
/// accumulates raw int64 prediction quanta into per-cell 128-bit integer
/// slots, converted to joules into the shard's cells once per cell at
/// fold time (a flush between folds moves only the quanta). Flushing
/// in place keeps the whole pipeline inside one BatchSize buffer per
/// shard (L1-resident) instead of writing an epoch of rows to memory and
/// reading them back at the fold; the integer kernel is cheap enough
/// that the saved traffic outweighs fold-task parallelism. Per-shard
/// staging preserves trace order within a shard (appends happen in
/// arrival order), and integer accumulation is exact, so the bit-identity
/// argument above holds trivially; the quantized replay additionally
/// matches the FP reference within the model's documented error bound.
///
//===----------------------------------------------------------------------===//

#ifndef SLOPE_CORE_SERVINGENGINE_H
#define SLOPE_CORE_SERVINGENGINE_H

#include "core/FleetTrace.h"
#include "ml/Model.h"
#include "ml/RlsLinearRegression.h"
#include "support/AlignedBuffer.h"

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace slope {
namespace ml {
class QuantizedModel;
} // namespace ml
namespace core {

/// Serving knobs. None of them changes any query result — they trade
/// wall clock and memory only (EpochSize additionally sets how much
/// ingested traffic may be pending before it becomes query-visible).
struct ServingConfig {
  /// Tenant-state shards; 0 means one per global-pool thread.
  unsigned NumShards = 0;
  /// Observations buffered before an automatic epoch fold.
  size_t EpochSize = 65536;
  /// Maximum rows per Model::predictBatch call (bounds batch latency).
  size_t BatchSize = 256;
  /// Score labeled observations against the serving model at each fold
  /// (ServingStats staleness counters) even without online retrain. Off
  /// by default: the scoring pass is serial per-row prediction, which a
  /// frozen forest-family replay does not want on its critical path.
  /// Online-retrain mode always scores (its per-row predict is O(F)).
  bool ScoreLabels = false;
};

/// Serving-side counters, populated as epochs fold.
struct ServingStats {
  uint64_t Observations = 0; ///< Observations folded into the table.
  uint64_t Epochs = 0;       ///< Folds performed.
  uint64_t Batches = 0;      ///< predictBatch calls issued.
  uint64_t Retrains = 0;     ///< Online-retrain passes performed at folds.
  /// Observations refused at ingest, for either of two reasons: a tenant
  /// or app id outside the fleet, or a feature that is not finite (NaN or
  /// +/-Inf, which would poison an FP cell for good and quantize to a
  /// saturated value). Counted as they arrive, never staged or folded.
  uint64_t Refused = 0;
  /// Sum of |prediction - label| over every labeled observation, with
  /// each epoch's predictions made by the model that epoch was actually
  /// served with (the epoch-start model). This is the staleness measure:
  /// a frozen model accumulates error as the workload drifts; a retrained
  /// one tracks it. Accumulated in one serial trace-order pass per fold,
  /// so it is bit-identical at any shard/thread count.
  double PredictionAbsErrJ = 0;
  double LabelAbsJ = 0; ///< Sum of |label| over the same observations.
  /// Wall-clock latency of every batch prediction call (predictBatch, or
  /// the quantized kernel over a shard's batch). The values and their
  /// order are timing, not deterministic; the count is deterministic for
  /// a fixed shard count.
  std::vector<double> BatchMs;

  /// \returns the \p Q quantile (0..1) of BatchMs, 0 when empty.
  double batchLatencyQuantileMs(double Q) const;

  /// \returns the relative staleness error: sum |pred - label| over
  /// sum |label| (0 when no labeled observations were served).
  double stalenessError() const {
    return LabelAbsJ > 0 ? PredictionAbsErrJ / LabelAbsJ : 0;
  }
};

/// A sharded, epoch-folded energy-attribution engine over one fitted
/// model (typically OnlineEstimator::model()).
class ServingEngine {
public:
  /// Serves \p M (borrowed; must outlive the engine and be fitted) for a
  /// fleet of \p NumTenants tenants running \p NumApps app templates,
  /// with \p FeatureWidth PMCs per observation.
  ServingEngine(const ml::Model &M, size_t FeatureWidth, uint32_t NumTenants,
                uint32_t NumApps, ServingConfig Config = ServingConfig());

  /// Switches the engine to online-retrain mode: predictions are served
  /// from \p Online (borrowed; must be fitted — typically seeded from the
  /// head of the stream — and must outlive the engine), and every epoch
  /// fold feeds that epoch's labeled observations back into it, then
  /// republishes the updated model for the next epoch. \p Algo selects
  /// the maintenance path: Rls folds each observation in with an O(F^2)
  /// Sherman-Morrison update; Refit accumulates the full history and
  /// re-runs the O(N*F^2) batch fit every fold (the reference). Either
  /// way the updates are applied serially in trace order at the fold, so
  /// replay stays bit-identical at any shard/thread/batch count. Must be
  /// called before any ingestion; incompatible with a quantized model
  /// (a retrained model cannot keep a frozen quantization grid).
  ///
  /// \p SeedHistory (Refit mode only): the dataset \p Online was seeded
  /// from. The refit accumulates new epochs on top of it, so the
  /// reference solves the same ridge system the RLS updates maintain —
  /// over the seed plus every epoch — and the two paths' attributions
  /// agree to solver precision.
  void enableOnlineRetrain(ml::RlsLinearRegression &Online,
                           ml::FitAlgorithm Algo,
                           const ml::Dataset *SeedHistory = nullptr);

  /// Buffers one observation (\p Features: featureWidth() values); folds
  /// automatically once EpochSize observations are pending. \returns
  /// false, and counts the row in ServingStats::Refused without staging
  /// it, when \p Tenant or \p App is outside the fleet or any feature is
  /// not finite; such a row changes no table and does not count toward
  /// the epoch.
  bool ingest(uint32_t Tenant, uint32_t App, const double *Features);

  /// Buffers one labeled observation: like ingest(), plus a measured
  /// dynamic-energy target the online-retrain fold learns from (and
  /// scores the serving model against — see ServingStats). Without
  /// retrain mode the label only feeds the staleness stats. Refuses rows
  /// the same way (a NaN label only marks the row unlabeled).
  bool ingest(uint32_t Tenant, uint32_t App, const double *Features,
              double Label);

  /// Flushes pending observations through the shards and folds them into
  /// the shards' cells, which queries read.
  void endEpoch();

  /// Ingests the whole trace and ends the epoch; the standard replay
  /// driver (charged to Phase::Serve, with the staging and fold slices
  /// sub-attributed to Phase::ServeIngest / Phase::ServeFold). In
  /// online-retrain mode the trace's labels ride along, so each fold
  /// retrains on the epoch just served. Rows whose tenant or app id is
  /// outside this engine's fleet, or whose features are not all finite,
  /// are refused as ingest() refuses them.
  void replay(const FleetTrace &Trace);

  /// Folded per-tenant dynamic energy (J) / observation count.
  double tenantEnergy(uint32_t Tenant) const;
  uint64_t tenantObservations(uint32_t Tenant) const;

  /// Folded per-app dynamic energy (J) / observation count, summed over
  /// tenants in ascending order.
  double appEnergy(uint32_t App) const;
  uint64_t appObservations(uint32_t App) const;

  /// Folded fleet-wide dynamic energy: per-tenant totals summed in
  /// ascending tenant order.
  double fleetEnergy() const;

  size_t featureWidth() const { return Width; }
  uint32_t numTenants() const { return NumTenants; }
  uint32_t numApps() const { return NumApps; }
  unsigned numShards() const { return static_cast<unsigned>(Shards.size()); }
  const ServingStats &stats() const { return Stats; }

private:
  /// One (tenant, app) accumulation slot.
  struct Cell {
    double EnergyJ = 0;
    uint64_t Count = 0;
  };

  /// Per-shard state: the owned tenants' cells plus, on the quantized
  /// path, their quanta accumulators, the staged batch and its scratch.
  struct Shard {
    /// Totals as of the last fold, local-tenant-major (localTenant *
    /// NumApps + app); local tenant L is global tenant L * NumShards +
    /// shardIndex. Written only by the fold: the query-visible table.
    std::vector<Cell> Cells;
    /// Quantized-path accumulation slot: running energy in raw
    /// prediction quanta plus the observation count, fused so the hot
    /// loop touches one cache line per observation. 128-bit quanta so
    /// even pathological output bases cannot overflow under millions of
    /// observations per cell; exact, converted to joules once per cell
    /// at fold time.
    struct QCell {
      __int128 EnergyQ = 0;
      uint64_t Count = 0;
    };
    /// Quantized path only: same cell layout as Cells, running between
    /// folds.
    std::vector<QCell> CellsQ;
    /// Quantized path only: this shard's current batch, staged at ingest
    /// (the shard of an observation is known the moment it arrives, so
    /// the integer path never needs the epoch partition pass). Fixed
    /// BatchSize capacity — the moment it fills, the integer kernel runs
    /// over it in place (see flushShardBatch), so the quantized epoch
    /// never materialises: rows live in one L1-resident buffer instead of
    /// an epoch-sized staging array that would be written and re-read
    /// through memory. PendingRows is flat row-major int32 in trace
    /// order, in 64-byte-aligned line-padded storage so ingest's
    /// eight-wide quantizeRow never tangles with the allocation edge;
    /// PendingCells holds the precomputed accumulation slot per
    /// row; PendingN counts staged rows.
    AlignedBuffer<int32_t> PendingRows;
    std::vector<uint32_t> PendingCells;
    size_t PendingN = 0;
    /// Quantized path only: reused per-batch prediction-quanta buffer.
    std::vector<int64_t> PredQ;
  };

  unsigned shardOf(uint32_t Tenant) const { return TenantShard[Tenant]; }

  /// \returns \p Tenant's NumApps cells in its shard.
  const Cell *cellsOf(uint32_t Tenant) const {
    return Shards[TenantShard[Tenant]].Cells.data() +
           static_cast<size_t>(TenantLocal[Tenant]) * NumApps;
  }

  /// \returns whether a row may be staged: (\p Tenant, \p App) inside the
  /// fleet and all Width of \p Features finite; counts the row as refused
  /// when it may not.
  bool admit(uint32_t Tenant, uint32_t App, const double *Features) {
    bool Finite = true;
    for (size_t F = 0; F < Width; ++F)
      Finite &= std::isfinite(Features[F]);
    if (Finite && Tenant < NumTenants && App < NumApps)
      return true;
    ++Stats.Refused;
    return false;
  }

  /// The quantized staging path, shared by ingest() and replay(): admits
  /// the row, quantizes it straight into its owning shard's batch with
  /// its accumulation slot, and flushes the batch the moment it fills.
  /// Counts the row as pending; the caller folds at the epoch boundary.
  /// \returns whether the row was admitted.
  bool pushQuantizedRow(uint32_t Tenant, uint32_t App,
                        const double *Features);

  /// The FP staging path, shared by ingest() and replay(): admits the
  /// row and appends it, with \p Label (NaN = unlabeled), to the pending
  /// columns. Counts the row as pending; the caller folds at the epoch
  /// boundary. \returns whether the row was admitted.
  bool pushFpRow(uint32_t Tenant, uint32_t App, const double *Features,
                 double Label);

  /// Integer fast path: predictQuantizedMany straight over the shard's
  /// staged int32 batch into its quanta accumulators — no Dataset
  /// assembly, no allocation, no FP, no index gather. Called the moment a
  /// shard's batch fills (and once per shard at the epoch fold for the
  /// partial remainder), so per-shard batch counts match the FP path's
  /// ceil(rows / BatchSize) exactly. The kernel is cheap enough that
  /// running it inline beats shipping rows to fold-time tasks: the batch
  /// buffer stays cache-hot instead of round-tripping an epoch of rows
  /// through memory. Runs on the caller's thread only, so it records its
  /// latency and batch count in Stats directly.
  void flushShardBatch(Shard &S);

  /// Partitions pending observations by shard (stable), runs every
  /// shard's batches through one pool loop and adds the predictions to
  /// their cells in partition order (the quantized path converts its
  /// quanta into the cells instead). In
  /// online-retrain mode this is also where the model advances: a serial
  /// trace-order pass scores the epoch-start model against the epoch's
  /// labels (staleness stats), then feeds the labeled rows into the online
  /// model (Phase::RlsUpdate) or refits it over the accumulated history
  /// (Phase::Refit) before the next epoch begins.
  void foldEpoch();

  /// The serial staleness-scoring + retrain pass of foldEpoch().
  void retrainOnPending();

  const ml::Model *Model;
  /// Non-null when serving a quantized model; enables the integer path.
  const ml::QuantizedModel *Quant = nullptr;
  size_t Width;
  uint32_t NumTenants;
  uint32_t NumApps;
  size_t EpochSize;
  size_t BatchSize;
  bool ScoreLabels;

  std::vector<Shard> Shards;
  /// Precomputed striping maps: tenant -> owning shard (tenant %
  /// NumShards) and tenant -> local index within it (tenant / NumShards).
  /// The epoch partition and both shard loops read these per observation;
  /// a runtime-divisor div there costs more than the rest of the
  /// quantized per-row work combined.
  std::vector<uint32_t> TenantShard;
  std::vector<uint32_t> TenantLocal;
  ServingStats Stats;

  // Online-retrain state: the served-and-updated model (null when the
  // engine serves a frozen model), the maintenance algorithm, and — for
  // the Refit reference — the accumulated labeled history.
  ml::RlsLinearRegression *Online = nullptr;
  ml::FitAlgorithm RetrainAlgo = ml::FitAlgorithm::Rls;
  ml::Dataset History; ///< Refit mode only: every labeled row so far.

  // Pending (unprocessed) observations, columnar like the trace (FP path
  // only — a quantized engine stages rows pre-quantized and pre-routed in
  // the shards' PendingRows/PendingCells; pushQuantizedRow is the only
  // place its features exist as doubles).
  std::vector<uint32_t> PendingTenants;
  std::vector<uint32_t> PendingApps;
  std::vector<double> PendingFeatures; ///< Flat row-major (FP path).
  std::vector<double> PendingLabels; ///< Per-row label (NaN = unlabeled).
  std::vector<size_t> PartitionScratch; ///< Reused stable-partition output.
  std::vector<double> Predictions; ///< FP fold: one per partition position.
  std::vector<std::string> FeatureNames; ///< pmc0, pmc1, ...: batch schema.
  size_t PendingCount = 0; ///< Observations buffered since the last fold.
};

} // namespace core
} // namespace slope

#endif // SLOPE_CORE_SERVINGENGINE_H
