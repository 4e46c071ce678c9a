/**
 * @file
 * Campaign-engine microbenchmark: serial-vs-parallel wall-clock speedup
 * with bit-identical aggregate verification, and memoization hit rate on
 * an MLPerf-style repetitive stream. Emits JSON so CI can assert the
 * acceptance criteria (speedup on multi-core hosts, hit rate >= 90%,
 * aggregates identical across thread counts and cache on/off).
 *
 * The campaign sweep runs with memoization OFF so the speedup measures
 * the thread pool, not the cache. The cache run seeds from launch
 * content (EngineOptions::contentSeed) so identical launches are
 * bit-identical and cache hits are semantically honest.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "core/experiments.hh"
#include "silicon/gpu_spec.hh"
#include "sim/engine.hh"
#include "sim/simulator.hh"
#include "workload/suites.hh"

using namespace pka;

namespace
{

/** Aggregates that must be bit-identical for every engine config. */
struct CampaignAggregate
{
    double cycles = 0.0;
    double threadInsts = 0.0;
    double dramUtilPct = 0.0;

    bool operator==(const CampaignAggregate &) const = default;
};

struct ConfigRun
{
    unsigned threads = 0;
    double wallSeconds = 0.0;
    double cpuSeconds = 0.0;
    uint64_t faulted = 0; ///< failed + quarantined (must be 0: clean path)
    CampaignAggregate agg;
};

ConfigRun
runCampaign(const std::vector<workload::Workload> &apps,
            const sim::GpuSimulator &simulator, unsigned threads)
{
    sim::EngineOptions eo;
    eo.threads = threads;
    eo.memoize = false; // measure the pool, not the cache
    sim::SimEngine engine(eo);

    ConfigRun run;
    run.threads = threads;
    for (const auto &w : apps) {
        core::FullSimResult fs = core::fullSimulate(engine, simulator, w);
        run.wallSeconds += fs.wallSeconds;
        run.cpuSeconds += fs.cpuSeconds;
        run.faulted += fs.failures.size() + fs.quarantinedKernels;
        run.agg.cycles += fs.cycles;
        run.agg.threadInsts += fs.threadInsts;
        run.agg.dramUtilPct += fs.dramUtilPct;
    }
    return run;
}

} // namespace

int
main()
{
    sim::GpuSimulator simulator(silicon::voltaV100());

    // Multi-app campaign: enough independent launches to keep every
    // worker busy, small enough to sweep four thread counts.
    const std::vector<std::string> names = {"srad_v2", "stencil",
                                            "scluster", "fdtd2d", "lud_i"};
    std::vector<workload::Workload> apps;
    size_t campaign_launches = 0;
    for (const auto &n : names) {
        auto w = workload::buildWorkload(n);
        PKA_ASSERT(w.has_value(), "campaign workload missing");
        campaign_launches += w->launches.size();
        apps.push_back(std::move(*w));
    }

    std::vector<ConfigRun> runs;
    for (unsigned t : {1u, 2u, 4u, 8u})
        runs.push_back(runCampaign(apps, simulator, t));

    bool campaign_identical = true;
    for (const auto &r : runs)
        campaign_identical = campaign_identical && r.agg == runs[0].agg;
    double speedup = runs.back().wallSeconds > 0
                         ? runs.front().wallSeconds / runs.back().wallSeconds
                         : 0.0;

    // MLPerf-style stream: a few distinct kernel configs repeated for
    // thousands of launches — the regime where memoization pays.
    workload::GenOptions g;
    g.mlperfScale = 0.0002;
    auto stream = workload::buildWorkload("gnmt_training", g);
    PKA_ASSERT(stream.has_value(), "mlperf stream missing");

    sim::EngineOptions cache_on;
    cache_on.contentSeed = true;
    sim::EngineOptions cache_off = cache_on;
    cache_off.memoize = false;

    sim::SimEngine engine_on(cache_on);
    sim::SimEngine engine_off(cache_off);
    core::FullSimResult on =
        core::fullSimulate(engine_on, simulator, *stream);
    core::FullSimResult off =
        core::fullSimulate(engine_off, simulator, *stream);
    bool cache_identical = on.cycles == off.cycles &&
                           on.threadInsts == off.threadInsts &&
                           on.dramUtilPct == off.dramUtilPct;
    double hit_rate =
        on.cacheHits + on.cacheMisses > 0
            ? 100.0 * static_cast<double>(on.cacheHits) /
                  static_cast<double>(on.cacheHits + on.cacheMisses)
            : 0.0;

    std::printf("{\n  \"campaign\": {\n");
    std::printf("    \"workloads\": [");
    for (size_t i = 0; i < names.size(); ++i)
        std::printf("%s\"%s\"", i ? ", " : "", names[i].c_str());
    std::printf("],\n");
    std::printf("    \"launches\": %zu,\n", campaign_launches);
    std::printf("    \"configs\": [\n");
    for (size_t i = 0; i < runs.size(); ++i) {
        const auto &r = runs[i];
        std::printf("      {\"threads\": %u, \"wall_seconds\": %.4f, "
                    "\"cpu_seconds\": %.4f, \"cycles\": %.17g}%s\n",
                    r.threads, r.wallSeconds, r.cpuSeconds, r.agg.cycles,
                    i + 1 < runs.size() ? "," : "");
    }
    std::printf("    ],\n");
    std::printf("    \"speedup_8_vs_1\": %.3f,\n", speedup);
    std::printf("    \"aggregates_bit_identical\": %s\n",
                campaign_identical ? "true" : "false");
    std::printf("  },\n");
    std::printf("  \"cache\": {\n");
    std::printf("    \"workload\": \"gnmt_training\",\n");
    std::printf("    \"launches\": %zu,\n", stream->launches.size());
    std::printf("    \"hits\": %llu,\n",
                static_cast<unsigned long long>(on.cacheHits));
    std::printf("    \"misses\": %llu,\n",
                static_cast<unsigned long long>(on.cacheMisses));
    std::printf("    \"hit_rate_pct\": %.2f,\n", hit_rate);
    std::printf("    \"wall_seconds_cache_on\": %.4f,\n", on.wallSeconds);
    std::printf("    \"wall_seconds_cache_off\": %.4f,\n", off.wallSeconds);
    std::printf("    \"cycles\": %.17g,\n", on.cycles);
    std::printf("    \"aggregates_bit_identical\": %s\n",
                cache_identical ? "true" : "false");

    // Clean-path smoke for the fault-tolerance machinery: with no fault
    // injection armed, nothing may retry, fail or be quarantined.
    uint64_t faulted = on.failures.size() + on.quarantinedKernels +
                       off.failures.size() + off.quarantinedKernels;
    for (const auto &r : runs)
        faulted += r.faulted;
    std::printf("  },\n");
    std::printf("  \"clean_path\": {\n");
    std::printf("    \"faulted_or_quarantined\": %llu\n",
                static_cast<unsigned long long>(faulted));
    std::printf("  }\n}\n");

    return (campaign_identical && cache_identical && faulted == 0) ? 0 : 1;
}
