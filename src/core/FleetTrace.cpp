//===- core/FleetTrace.cpp - Simulated fleet observation stream -----------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "core/FleetTrace.h"

#include "support/ThreadPool.h"

#include <algorithm>
#include <cmath>

using namespace slope;
using namespace slope::core;
using namespace slope::sim;

Expected<FleetTrace>
FleetTrace::synthesize(Machine &M, const std::vector<pmc::EventId> &Events,
                       const std::vector<CompoundApplication> &Apps,
                       const FleetTraceConfig &Config) {
  if (Apps.empty())
    return makeError("a fleet trace needs at least one app template");
  if (Events.empty())
    return makeError("a fleet trace needs at least one PMC");
  if (Config.NumTenants == 0)
    return makeError("a fleet trace needs at least one tenant");
  const size_t Protos = std::max<size_t>(1, Config.PrototypesPerApp);

  FleetTrace Trace;
  Trace.Width = Events.size();
  Trace.NumTenants = Config.NumTenants;
  Trace.NumApps = static_cast<uint32_t>(Apps.size());

  // Ground the prototype rows in the simulator: Protos executions per
  // template (runBatch forks the machine's run counter serially, so the
  // prototype set is a deterministic function of the machine state).
  std::vector<double> Prototypes(Apps.size() * Protos * Trace.Width);
  std::vector<double> ProtoEnergy(Apps.size() * Protos);
  for (size_t A = 0; A < Apps.size(); ++A) {
    std::vector<Execution> Runs = M.runBatch(Apps[A], Protos);
    for (size_t P = 0; P < Protos; ++P) {
      M.readCounters(Events.data(), Events.size(), Runs[P],
                     Prototypes.data() + (A * Protos + P) * Trace.Width);
      ProtoEnergy[A * Protos + P] = Runs[P].TrueDynamicEnergyJ;
    }
  }

  // Zipf popularity CDF over tenant ids; observations sample it by
  // binary search on one uniform draw.
  std::vector<double> TenantCdf(Config.NumTenants);
  double Total = 0;
  for (uint32_t T = 0; T < Config.NumTenants; ++T) {
    Total += std::pow(static_cast<double>(T) + 1.0, -Config.TenantSkew);
    TenantCdf[T] = Total;
  }

  // Per-app drift ramps: app A's energy-per-feature ratio scales by
  // (1 + DriftMax * RampA * t) with t sweeping 0 -> 1 across the trace.
  const Rng Base(Config.Seed);
  std::vector<double> Ramp(Apps.size(), 0.0);
  if (Config.DriftMax != 0) {
    const Rng RampRng = Base.fork("ramp");
    for (size_t A = 0; A < Apps.size(); ++A)
      Ramp[A] = RampRng.fork(A + 1).uniform(-1.0, 1.0);
  }
  const double TScale = Config.NumObservations > 1
                            ? 1.0 / static_cast<double>(
                                        Config.NumObservations - 1)
                            : 0.0;

  Trace.Tenants.resize(Config.NumObservations);
  Trace.Apps.resize(Config.NumObservations);
  Trace.Features.resize(Config.NumObservations * Trace.Width);
  Trace.Labels.resize(Config.NumObservations);
  parallelFor(0, Config.NumObservations, 4096, [&](size_t I) {
    Rng R = Base.fork(I);
    const double U = R.uniform(0.0, Total);
    const uint32_t Tenant = static_cast<uint32_t>(
        std::upper_bound(TenantCdf.begin(), TenantCdf.end(), U) -
        TenantCdf.begin());
    const uint32_t App = static_cast<uint32_t>(R.below(Trace.NumApps));
    const size_t Proto = R.below(Protos);
    const double *Row =
        Prototypes.data() + (App * Protos + Proto) * Trace.Width;
    double *Out = Trace.Features.data() + I * Trace.Width;
    Trace.Tenants[I] = std::min(Tenant, Config.NumTenants - 1);
    Trace.Apps[I] = App;
    for (size_t F = 0; F < Trace.Width; ++F)
      Out[F] = Row[F] * R.lognormalFactor(Config.JitterSigma);
    // Label draws come after every feature draw in the fork(I) stream, so
    // feature values are invariant under DriftMax and LabelNoiseSigma.
    const double Drift =
        1.0 + Config.DriftMax * Ramp[App] * (static_cast<double>(I) * TScale);
    Trace.Labels[I] = ProtoEnergy[App * Protos + Proto] * Drift *
                      R.lognormalFactor(Config.LabelNoiseSigma);
  });
  return Trace;
}
