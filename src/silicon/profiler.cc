#include "silicon/profiler.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/rng.hh"

namespace pka::silicon
{

using pka::common::Rng;
using pka::workload::InstrClass;
using pka::workload::KernelDescriptor;
using pka::workload::Workload;

std::array<double, KernelMetrics::kCount>
KernelMetrics::toArray() const
{
    return {coalescedGlobalLoads, coalescedGlobalStores,
            coalescedLocalLoads, threadGlobalLoads, threadGlobalStores,
            threadLocalLoads, threadSharedLoads, threadSharedStores,
            threadGlobalAtomics, instructions, divergenceEff, numCtas};
}

const char *
KernelMetrics::name(size_t i)
{
    static const char *names[KernelMetrics::kCount] = {
        "coalesced_global_loads", "coalesced_global_stores",
        "coalesced_local_loads", "thread_global_loads",
        "thread_global_stores", "thread_local_loads",
        "thread_shared_loads", "thread_shared_stores",
        "thread_global_atomics", "instructions", "divergence_eff",
        "num_ctas"};
    PKA_ASSERT(i < KernelMetrics::kCount, "metric index out of range");
    return names[i];
}

KernelMetrics
deriveKernelMetrics(const KernelDescriptor &k)
{
    const auto &prog = *k.program;
    const double warp_execs =
        static_cast<double>(k.numCtas()) *
        static_cast<double>(k.warpsPerCta()) * k.iterations;
    auto cls = [&](InstrClass c) {
        return warp_execs *
               static_cast<double>(prog.classInstrsPerIteration(c));
    };

    KernelMetrics m;
    m.threadGlobalLoads = cls(InstrClass::GlobalLoad);
    m.threadGlobalStores = cls(InstrClass::GlobalStore);
    m.threadLocalLoads = cls(InstrClass::LocalLoad);
    m.threadSharedLoads = cls(InstrClass::SharedLoad);
    m.threadSharedStores = cls(InstrClass::SharedStore);
    m.threadGlobalAtomics = cls(InstrClass::GlobalAtomic);
    m.coalescedGlobalLoads =
        m.threadGlobalLoads * prog.sectorsPerAccess;
    m.coalescedGlobalStores =
        m.threadGlobalStores * prog.sectorsPerAccess;
    m.coalescedLocalLoads = m.threadLocalLoads * prog.sectorsPerAccess;
    m.instructions =
        warp_execs * static_cast<double>(prog.instrsPerIteration());
    m.divergenceEff = 32.0 * prog.divergenceEff;
    m.numCtas = static_cast<double>(k.numCtas());
    return m;
}

namespace
{

/** Apply a small deterministic measurement noise to all counters. */
void
addMeasurementNoise(KernelMetrics &m, uint64_t seed, uint32_t launch_id)
{
    Rng rng = Rng::forKey(seed, launch_id, 0x0ECF);
    auto n = [&rng](double &v) {
        if (v > 0)
            v *= 1.0 + rng.normal(0.0, 0.004);
    };
    n(m.coalescedGlobalLoads);
    n(m.coalescedGlobalStores);
    n(m.coalescedLocalLoads);
    n(m.threadGlobalLoads);
    n(m.threadGlobalStores);
    n(m.threadLocalLoads);
    n(m.threadSharedLoads);
    n(m.threadSharedStores);
    n(m.threadGlobalAtomics);
    n(m.instructions);
}

} // namespace

DetailedProfiler::DetailedProfiler(const SiliconGpu &gpu)
    : gpu_(gpu)
{
}

std::vector<DetailedProfile>
DetailedProfiler::profile(const Workload &w, size_t max_kernels) const
{
    size_t count = w.launches.size();
    if (max_kernels > 0)
        count = std::min(count, max_kernels);
    std::vector<DetailedProfile> out;
    out.reserve(count);
    for (size_t i = 0; i < count; ++i)
        out.push_back(profileLaunch(w, i));
    return out;
}

std::vector<DetailedProfile>
DetailedProfiler::profile(const Workload &w, size_t max_kernels,
                          const AppExecution &silicon) const
{
    PKA_ASSERT(silicon.launches.size() == w.launches.size(),
               "silicon run does not match the stream");
    size_t count = w.launches.size();
    if (max_kernels > 0)
        count = std::min(count, max_kernels);
    std::vector<DetailedProfile> out;
    out.reserve(count);
    for (size_t i = 0; i < count; ++i) {
        out.push_back(counters(w, i));
        out.back().cycles = silicon.launches[i].cycles;
    }
    return out;
}

DetailedProfile
DetailedProfiler::counters(const Workload &w, size_t index) const
{
    PKA_ASSERT(index < w.launches.size(), "launch index out of range");
    const auto &k = w.launches[index];
    DetailedProfile p;
    p.launchId = k.launchId;
    p.kernelName = k.program->name;
    p.metrics = deriveKernelMetrics(k);
    addMeasurementNoise(p.metrics, w.seed, k.launchId);
    return p;
}

DetailedProfile
DetailedProfiler::profileLaunch(const Workload &w, size_t index) const
{
    DetailedProfile p = counters(w, index);
    p.cycles = gpu_.execute(w.launches[index], w.seed).cycles;
    return p;
}

namespace
{

/** Replay cost of one launch that runs `seconds` on silicon. */
double
replayCost(double seconds)
{
    return DetailedProfiler::kPerKernelOverheadSec +
           DetailedProfiler::kReplayFactor * seconds;
}

/** Tracing cost of a whole app that runs `seconds` over `launches`. */
double
traceCost(double seconds, size_t launches)
{
    return seconds * 1.15 + 2e-6 * static_cast<double>(launches);
}

} // namespace

double
DetailedProfiler::costSeconds(const Workload &w, size_t max_kernels) const
{
    size_t count = w.launches.size();
    if (max_kernels > 0)
        count = std::min(count, max_kernels);
    double cost = 0.0;
    for (size_t i = 0; i < count; ++i)
        cost += replayCost(gpu_.execute(w.launches[i], w.seed).seconds);
    return cost;
}

double
DetailedProfiler::costSeconds(const AppExecution &silicon,
                              size_t max_kernels)
{
    size_t count = silicon.launches.size();
    if (max_kernels > 0)
        count = std::min(count, max_kernels);
    double cost = 0.0;
    for (size_t i = 0; i < count; ++i)
        cost += replayCost(silicon.launches[i].seconds);
    return cost;
}

LightweightProfiler::LightweightProfiler(const SiliconGpu &gpu)
    : gpu_(gpu)
{
}

std::vector<LightProfile>
LightweightProfiler::profile(const Workload &w) const
{
    std::vector<LightProfile> out;
    out.reserve(w.launches.size());
    for (const auto &k : w.launches) {
        LightProfile p;
        p.launchId = k.launchId;
        p.kernelName = k.program->name;
        p.grid = k.grid;
        p.block = k.block;
        p.tensorDims = k.tensorDims;
        out.push_back(std::move(p));
    }
    return out;
}

double
LightweightProfiler::costSeconds(const Workload &w) const
{
    double app = 0.0;
    for (const auto &k : w.launches)
        app += gpu_.execute(k, w.seed).seconds;
    return traceCost(app, w.launches.size());
}

double
LightweightProfiler::costSeconds(const AppExecution &silicon)
{
    double app = 0.0;
    for (const auto &l : silicon.launches)
        app += l.seconds;
    return traceCost(app, silicon.launches.size());
}

} // namespace pka::silicon
