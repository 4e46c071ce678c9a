/**
 * @file
 * Shared experiment runners behind the benchmark harnesses: full
 * simulation with per-kernel stat collection, per-app evaluation of
 * silicon PKS / simulated PKS / full PKA / baselines, and the projection
 * constants used to report paper-style simulation-time axes.
 */

#ifndef PKA_CORE_EXPERIMENTS_HH
#define PKA_CORE_EXPERIMENTS_HH

#include <string>
#include <vector>

#include "core/baselines.hh"
#include "core/pka.hh"
#include "silicon/silicon_gpu.hh"
#include "sim/simulator.hh"
#include "workload/suites.hh"

namespace pka::core
{

/**
 * Accel-Sim-like simulation rate (simulated cycles per wall-clock second)
 * used to project "hours to simulate" axes; derived from the paper's
 * Figure-1 scale (seconds of silicon => centuries of simulation).
 */
constexpr double kSimCyclesPerSecond = 300.0;

/** Simulated cycles -> projected wall-clock hours at Accel-Sim rates. */
inline double
projectedSimHours(double cycles)
{
    return cycles / kSimCyclesPerSecond / 3600.0;
}

/**
 * The "first 1B instructions" budget translated to this reproduction's
 * workload scale (our classic workloads carry a small fraction of the
 * paper's instruction volume, so 6M preserves the truncation behaviour:
 * small apps complete, everything else is cut off mid-warmup).
 */
constexpr uint64_t k1BEquivalentInstructions = 6'000'000ULL;

/** A traced/profiled pair of the same workload (may differ in length). */
struct WorkloadPair
{
    pka::workload::Workload traced;
    pka::workload::Workload profiled;
};

/** Build traced+profiled variants for every registry workload. */
std::vector<WorkloadPair> buildAllPairs(const pka::workload::GenOptions &g = {});

/**
 * Full-simulation outcome for a whole app. When launches fail under a
 * CampaignPolicy, cycle/instruction totals are reweighted by the
 * completed-launch fraction so they still estimate the whole app;
 * perKernel then holds only completed launches (consumers key on
 * TBPointKernelStats::launchId, not position).
 */
struct FullSimResult : CampaignReport
{
    double cycles = 0.0;
    double threadInsts = 0.0;
    double dramUtilPct = 0.0; ///< cycle-weighted average

    std::vector<TBPointKernelStats> perKernel;

    double ipc() const
    {
        return cycles > 0 ? threadInsts / cycles : 0.0;
    }
};

/**
 * Simulate every launch of `w` to completion across `engine`, collecting
 * per-kernel stats (TBPoint's required input) and reducing in launch
 * order — aggregates are bit-identical for any thread count. The
 * campaign runs through runCampaign: `checkpoint` journals it (stage
 * "fullsim") and resumes an interrupted run with bit-identical
 * aggregates; `policy` == nullptr is the strict contract (any failed
 * launch is fatal), non-null drops failed launches from the reweighted
 * aggregates and reports them.
 */
FullSimResult fullSimulate(const sim::SimEngine &engine,
                           const sim::GpuSimulator &simulator,
                           const pka::workload::Workload &w,
                           const CampaignCheckpoint *checkpoint = nullptr,
                           const CampaignPolicy *policy = nullptr);

/** fullSimulate on the process-wide shared engine. */
FullSimResult fullSimulate(const sim::GpuSimulator &simulator,
                           const pka::workload::Workload &w);

/** True for workloads small enough to simulate fully in the benches. */
bool isFullySimulable(const pka::workload::Workload &w);

/** Everything the evaluation section needs for one app on one device. */
struct AppEvaluation
{
    std::string suite;
    std::string name;
    bool excluded = false;
    std::string exclusionReason;

    // Silicon ground truth.
    double siliconCycles = 0.0;
    double siliconSeconds = 0.0;
    double siliconIpc = 0.0;

    // Silicon-side PKS evaluation (Table 4, first columns).
    double siliconPksErrorPct = 0.0;
    double siliconPksSpeedup = 1.0;

    // Full simulation (zero when not fully simulable).
    bool fullySimulated = false;
    FullSimResult fullSim;
    double simErrorPct = 0.0; ///< full-sim cycles vs silicon

    // PKS / PKA in simulation.
    PkaAppResult pka;
    double pksErrorPct = 0.0; ///< PKS projected cycles vs silicon
    double pkaErrorPct = 0.0;
    double pksIpcErrorPct = 0.0;
    double pkaIpcErrorPct = 0.0;
    double fullIpcErrorPct = 0.0;
    double pksSpeedupVsFull = 1.0; ///< simulated-cycle reduction
    double pkaSpeedupVsFull = 1.0;
};

/** Evaluation knobs. */
struct EvalOptions
{
    PkaOptions pka;
    bool runFullSim = true; ///< skip full simulation entirely (silicon-only)
};

/**
 * Evaluate one workload pair against a device. Runs silicon, full
 * simulation (when tractable), PKS and PKA. All simulation goes through
 * `engine` (the process-wide shared engine when null).
 */
AppEvaluation evaluateApp(const WorkloadPair &pair,
                          const silicon::SiliconGpu &gpu,
                          const sim::GpuSimulator &simulator,
                          const EvalOptions &options = {},
                          const sim::SimEngine *engine = nullptr);

/** Evaluate every registry workload on one device spec. */
std::vector<AppEvaluation>
evaluateAll(const silicon::GpuSpec &spec,
            const pka::workload::GenOptions &gen = {},
            const EvalOptions &options = {});

} // namespace pka::core

#endif // PKA_CORE_EXPERIMENTS_HH
