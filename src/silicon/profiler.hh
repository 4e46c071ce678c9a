/**
 * @file
 * Silicon profiler substitutes.
 *
 * DetailedProfiler stands in for Nsight Compute: it collects the 12
 * microarchitecture-agnostic counters of the paper's Table 2 plus kernel
 * cycles, at a realistic per-kernel replay cost that makes whole-app
 * detailed profiling intractable for MLPerf-scale streams (the paper's
 * Figure 1 "Silicon Profiler" series). LightweightProfiler stands in for
 * Nsight Systems (+ PyProf for ML workloads): kernel name, grid/block
 * dimensions and optional tensor-dims annotations only, at near-native
 * cost.
 */

#ifndef PKA_SILICON_PROFILER_HH
#define PKA_SILICON_PROFILER_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "silicon/silicon_gpu.hh"
#include "workload/kernel.hh"

namespace pka::silicon
{

/** The paper's Table-2 microarchitecture-agnostic counters. */
struct KernelMetrics
{
    double coalescedGlobalLoads = 0;  ///< l1tex sectors, global loads
    double coalescedGlobalStores = 0; ///< l1tex sectors, global stores
    double coalescedLocalLoads = 0;   ///< l1tex sectors, local loads
    double threadGlobalLoads = 0;     ///< executed global-load instructions
    double threadGlobalStores = 0;    ///< executed global-store instructions
    double threadLocalLoads = 0;      ///< executed local-load instructions
    double threadSharedLoads = 0;     ///< executed shared-load instructions
    double threadSharedStores = 0;    ///< executed shared-store instructions
    double threadGlobalAtomics = 0;   ///< executed global atomics
    double instructions = 0;          ///< all executed instructions
    double divergenceEff = 32;        ///< threads per executed instruction
    double numCtas = 0;               ///< launch grid size

    /** Number of counters. */
    static constexpr size_t kCount = 12;

    /** Counters as a dense feature vector (PKS input). */
    std::array<double, kCount> toArray() const;

    /** Name of the i-th counter. */
    static const char *name(size_t i);
};

/**
 * Derive the Table-2 counters for one launch, noise-free: a pure
 * function of the descriptor (program instruction mix, grid/block,
 * iterations), with none of the profiler's simulated measurement
 * noise. This is the signature input of the store's similarity tier —
 * both the probing and the inserting side must compute bit-identical
 * counters for the same launch, which measurement noise would defeat.
 */
KernelMetrics deriveKernelMetrics(const pka::workload::KernelDescriptor &k);

/** One Nsight-Compute-style record. */
struct DetailedProfile
{
    uint32_t launchId = 0;
    std::string kernelName;
    KernelMetrics metrics;
    uint64_t cycles = 0; ///< measured kernel duration in cycles
};

/** One Nsight-Systems-style record (optionally PyProf-augmented). */
struct LightProfile
{
    uint32_t launchId = 0;
    std::string kernelName;
    pka::workload::Dim3 grid;
    pka::workload::Dim3 block;
    std::vector<uint32_t> tensorDims;
};

/** Detailed (Nsight Compute equivalent) profiler. */
class DetailedProfiler
{
  public:
    explicit DetailedProfiler(const SiliconGpu &gpu);

    /**
     * Profile the first `max_kernels` launches (0 = all). Counter values
     * carry a small deterministic measurement noise.
     */
    std::vector<DetailedProfile>
    profile(const pka::workload::Workload &w, size_t max_kernels = 0) const;

    /**
     * Profile a single launch by stream index. Bit-identical to the
     * corresponding element of profile(w) — the streaming selection path
     * profiles launches one at a time and must observe exactly what the
     * batch path would have.
     */
    DetailedProfile profileLaunch(const pka::workload::Workload &w,
                                  size_t index) const;

    /**
     * profile(w, max_kernels) with each launch's cycles taken from
     * `silicon`, a SiliconGpu::run(w) on this profiler's GPU, instead of
     * executing the launch again. Bit-identical to profile(w, max_kernels).
     */
    std::vector<DetailedProfile>
    profile(const pka::workload::Workload &w, size_t max_kernels,
            const AppExecution &silicon) const;

    /**
     * Wall-clock cost of profiling the first `max_kernels` launches
     * (0 = all): per-kernel replay overhead dominates for short kernels.
     */
    double costSeconds(const pka::workload::Workload &w,
                       size_t max_kernels = 0) const;

    /**
     * costSeconds(w, max_kernels) from `silicon`, a SiliconGpu::run(w):
     * the same sum in the same order, bit-identical, executing nothing.
     */
    static double costSeconds(const AppExecution &silicon,
                              size_t max_kernels = 0);

    /** Per-kernel fixed replay overhead (seconds). */
    static constexpr double kPerKernelOverheadSec = 1.2;

    /** Runtime multiplier from counter replays. */
    static constexpr double kReplayFactor = 40.0;

  private:
    /** A launch's profile without its measured cycles. */
    DetailedProfile counters(const pka::workload::Workload &w,
                             size_t index) const;

    const SiliconGpu &gpu_;
};

/** Lightweight (Nsight Systems + PyProf equivalent) profiler. */
class LightweightProfiler
{
  public:
    explicit LightweightProfiler(const SiliconGpu &gpu);

    /** Profile all launches: names, dims and tensor annotations only. */
    std::vector<LightProfile>
    profile(const pka::workload::Workload &w) const;

    /** Wall-clock cost of tracing the whole app. */
    double costSeconds(const pka::workload::Workload &w) const;

    /** costSeconds(w) from `silicon`, a SiliconGpu::run(w): bit-identical,
     *  executing nothing. */
    static double costSeconds(const AppExecution &silicon);

  private:
    const SiliconGpu &gpu_;
};

} // namespace pka::silicon

#endif // PKA_SILICON_PROFILER_HH
