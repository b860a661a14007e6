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
/// State is one tenant-major table of (tenant, app) accumulation cells,
/// indexed tenant * NumApps + app. Ingest stages each admitted row with
/// its flat cell index, and an explicit epoch boundary folds the epoch's
/// observations into the cells. The cells change only at a fold, so
/// between folds they are the query-visible table itself. The fold cuts
/// the epoch's rows, in trace order, into BatchSize batches; the batches
/// are the pool's tasks, each predicting into its own slice of a
/// position-indexed buffer, so no lock or atomic is on the hot path.
///
/// Determinism argument (the house bit-identity style): each prediction is
/// a pure function of one feature row, and once every batch is done the
/// predictions are added to their cells in one serial pass in trace order.
/// So every cell's float accumulation order is trace order at any thread
/// count or batch size. Derived aggregates are summed from the cells in
/// ascending (tenant, app) order, so replaying the same trace is
/// bit-identical at any thread/batch count.
///
/// Serving a ml::QuantizedModel switches the hot loop to the integer fast
/// path: each observation is quantized once at ingest (int32 rows, half
/// the memory traffic of doubles) into one BatchSize staging buffer with
/// its cell index. The moment the buffer fills, predictQuantizedMany runs
/// over it in place on the ingest thread (no Dataset assembly, no
/// per-batch allocation, no FP in the loop) and adds raw int64 prediction
/// quanta to per-cell 128-bit integer slots, converted to joules into the
/// cells once per cell at fold time (a flush between folds moves only the
/// quanta). The buffer stays L1-resident instead of writing an epoch of
/// rows to memory and reading them back at the fold; the integer kernel is
/// cheap enough that the saved traffic outweighs fold-task parallelism.
/// Rows flush in arrival order and integer accumulation is exact, so the
/// bit-identity argument above holds trivially; the quantized replay
/// additionally matches the FP reference within the model's documented
/// error bound. The quantized path ignores labels: it neither scores nor
/// retrains.
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
  /// Read by nothing: the engine keeps one cell table and no shards.
  /// Declared only because perfbench/Fleet.cpp assigns it, and the
  /// benchmark's code changes only in a change of its own, which deletes
  /// this field with the assignment. No other caller may set it.
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
  /// Batch predictions issued: ceil(rows / BatchSize) per fold on both
  /// paths, at any thread count.
  uint64_t Batches = 0;
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
  /// so it is bit-identical at any thread/batch count.
  double PredictionAbsErrJ = 0;
  double LabelAbsJ = 0; ///< Sum of |label| over the same observations.
  /// Wall-clock latency of every batch prediction call (predictBatch, or
  /// the quantized kernel over the staged batch). The values and their
  /// order are timing, not deterministic; the count is Batches.
  std::vector<double> BatchMs;

  /// \returns the \p Q quantile (0..1) of BatchMs, 0 when empty.
  double batchLatencyQuantileMs(double Q) const;

  /// \returns the relative staleness error: sum |pred - label| over
  /// sum |label| (0 when no labeled observations were served).
  double stalenessError() const {
    return LabelAbsJ > 0 ? PredictionAbsErrJ / LabelAbsJ : 0;
  }
};

/// An epoch-folded energy-attribution engine over one fitted model
/// (typically OnlineEstimator::model()).
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
  /// replay stays bit-identical at any thread/batch count. Must be
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
  /// retrain mode the label only feeds the staleness stats; the quantized
  /// path ignores it. Refuses rows the same way (a NaN label only marks
  /// the row unlabeled).
  bool ingest(uint32_t Tenant, uint32_t App, const double *Features,
              double Label);

  /// Predicts the pending observations and folds them into the cells,
  /// which queries read.
  void endEpoch();

  /// Ingests the whole trace and ends the epoch; the standard replay
  /// driver (charged to Phase::Serve, with the staging and fold slices
  /// sub-attributed to Phase::ServeIngest / Phase::ServeFold). In
  /// online-retrain mode the trace's labels ride along, so each fold
  /// retrains on the epoch just served (the quantized path drops them, as
  /// ingest() does). Rows whose tenant or app id is
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
  const ServingStats &stats() const { return Stats; }

private:
  /// One (tenant, app) accumulation slot.
  struct Cell {
    double EnergyJ = 0;
    uint64_t Count = 0;
  };

  /// Quantized-path accumulation slot: running energy in raw prediction
  /// quanta plus the observation count, fused so the hot loop touches one
  /// cache line per observation. 128-bit quanta so even pathological
  /// output bases cannot overflow under millions of observations per
  /// cell; exact, converted to joules once per cell at fold time.
  struct QCell {
    __int128 EnergyQ = 0;
    uint64_t Count = 0;
  };

  /// \returns \p Tenant's NumApps cells.
  const Cell *cellsOf(uint32_t Tenant) const {
    return Cells.data() + static_cast<size_t>(Tenant) * NumApps;
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
  /// the row, quantizes it straight into the staged batch with its cell
  /// index, and flushes the batch the moment it fills. Counts the row as
  /// pending; the caller folds at the epoch boundary. \returns whether
  /// the row was admitted.
  bool pushQuantizedRow(uint32_t Tenant, uint32_t App,
                        const double *Features);

  /// The FP staging path, shared by ingest() and replay(): admits the
  /// row and appends it, with its cell index and \p Label (NaN =
  /// unlabeled), to the pending columns. Counts the row as pending; the
  /// caller folds at the epoch boundary. \returns whether the row was
  /// admitted.
  bool pushFpRow(uint32_t Tenant, uint32_t App, const double *Features,
                 double Label);

  /// Integer fast path: predictQuantizedMany straight over the staged
  /// int32 batch into the quanta accumulators — no Dataset assembly, no
  /// allocation, no FP, no index gather. Called the moment the batch fills
  /// (and at the epoch fold for the partial remainder), so the batch count
  /// matches the FP path's ceil(rows / BatchSize) per fold. Runs on the
  /// caller's thread only, so it records its latency and batch count in
  /// Stats directly.
  void flushQuantizedBatch();

  /// Runs the epoch's BatchSize batches of pending rows through one pool
  /// loop and adds the predictions to their cells in trace order (the
  /// quantized path converts its quanta into the cells instead). In
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

  /// Totals as of the last fold, tenant-major (tenant * NumApps + app).
  /// Written only by the fold: the query-visible table.
  std::vector<Cell> Cells;
  /// Quantized path only: the same layout as Cells, running between folds.
  std::vector<QCell> CellsQ;
  ServingStats Stats;

  // Online-retrain state: the served-and-updated model (null when the
  // engine serves a frozen model), the maintenance algorithm, and — for
  // the Refit reference — the accumulated labeled history.
  ml::RlsLinearRegression *Online = nullptr;
  ml::FitAlgorithm RetrainAlgo = ml::FitAlgorithm::Rls;
  ml::Dataset History; ///< Refit mode only: every labeled row so far.

  // Staged rows, in trace order. Both paths stage each row's cell index in
  // PendingCells. The FP path stages the whole epoch, columnar like the
  // trace. The quantized path stages one batch of at most BatchSize rows,
  // pre-quantized in PendingRowsQ (64-byte-aligned, line-padded storage, so
  // ingest's eight-wide quantizeRow never tangles with the allocation
  // edge); pushQuantizedRow is the only place its features exist as
  // doubles.
  std::vector<uint32_t> PendingCells;
  std::vector<double> PendingFeatures; ///< FP: flat row-major.
  std::vector<double> PendingLabels; ///< FP: per-row label (NaN = unlabeled).
  std::vector<double> Predictions; ///< FP fold: one per pending row.
  AlignedBuffer<int32_t> PendingRowsQ; ///< Quantized: the batch, row-major.
  std::vector<int64_t> PredQ; ///< Quantized: the batch's prediction quanta.
  std::vector<std::string> FeatureNames; ///< pmc0, pmc1, ...: batch schema.
  size_t PendingCount = 0; ///< Observations staged since the last fold.
};

} // namespace core
} // namespace slope

#endif // SLOPE_CORE_SERVINGENGINE_H
