/**
 * @file
 * Persistent-store microbenchmark: cold-vs-warm campaign wall time
 * through a content-addressed result store, and the store hit rate on an
 * MLPerf-style repetitive stream. Emits JSON so CI can assert the
 * acceptance criteria (warm re-runs answer every launch from disk with
 * zero simulator invocations and bit-identical aggregates).
 *
 * The store lives in a throwaway directory under the system temp path
 * and is removed on exit, so repeated bench runs always measure a true
 * cold start.
 */

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "core/experiments.hh"
#include "silicon/gpu_spec.hh"
#include "sim/engine.hh"
#include "sim/simulator.hh"
#include "store/file_store.hh"
#include "workload/suites.hh"

namespace fs = std::filesystem;
using namespace pka;

namespace
{

struct CampaignRun
{
    double wallSeconds = 0.0;
    double cycles = 0.0;
    double threadInsts = 0.0;
    uint64_t storeHits = 0;
    uint64_t memoryHits = 0;
    uint64_t misses = 0;
};

/** One full campaign over `apps` through a fresh engine on `store`. */
CampaignRun
runCampaign(const std::vector<workload::Workload> &apps,
            const sim::GpuSimulator &simulator,
            const store::KernelResultStore *store, bool content_seed)
{
    sim::EngineOptions eo;
    eo.store = store;
    eo.contentSeed = content_seed;
    sim::SimEngine engine(eo); // fresh engine: memory cache starts cold

    CampaignRun run;
    for (const auto &w : apps) {
        core::FullSimResult fs = core::fullSimulate(engine, simulator, w);
        run.wallSeconds += fs.wallSeconds;
        run.cycles += fs.cycles;
        run.threadInsts += fs.threadInsts;
        run.storeHits += fs.storeHits;
        run.memoryHits += fs.cacheHits;
        run.misses += fs.cacheMisses;
    }
    return run;
}

} // namespace

int
main()
{
    sim::GpuSimulator simulator(silicon::voltaV100());

    fs::path root = fs::temp_directory_path() /
                    ("pka_micro_store_" + std::to_string(::getpid()));

    // Campaign of classic workloads: every launch key distinct, so the
    // cold/warm delta isolates pure store behaviour (persist everything,
    // then answer everything from disk).
    const std::vector<std::string> names = {"srad_v2", "stencil",
                                            "scluster", "lud_i"};
    std::vector<workload::Workload> apps;
    size_t campaign_launches = 0;
    for (const auto &n : names) {
        auto w = workload::buildWorkload(n);
        PKA_ASSERT(w.has_value(), "campaign workload missing");
        campaign_launches += w->launches.size();
        apps.push_back(std::move(*w));
    }

    CampaignRun cold, warm;
    uint64_t record_count = 0, record_bytes = 0;
    {
        store::KernelResultStore store(root.string());
        cold = runCampaign(apps, simulator, &store, false);
        warm = runCampaign(apps, simulator, &store, false);
        record_count = store.recordCount();
        record_bytes = store.recordBytes();
    }
    bool warm_from_disk = warm.misses == 0 &&
                          warm.storeHits ==
                              static_cast<uint64_t>(campaign_launches);
    bool campaign_identical = warm.cycles == cold.cycles &&
                              warm.threadInsts == cold.threadInsts;

    // MLPerf-style stream under content seeding: a few distinct kernels
    // repeated for thousands of launches. The warm run answers every
    // distinct kernel from disk and every repeat from memory — zero
    // simulator invocations end to end.
    workload::GenOptions g;
    g.mlperfScale = 0.0002;
    auto stream = workload::buildWorkload("gnmt_training", g);
    PKA_ASSERT(stream.has_value(), "mlperf stream missing");
    fs::path gnmt_root = root / "gnmt";

    CampaignRun gcold, gwarm;
    {
        store::KernelResultStore store(gnmt_root.string());
        std::vector<workload::Workload> one;
        one.push_back(*stream);
        gcold = runCampaign(one, simulator, &store, true);
        gwarm = runCampaign(one, simulator, &store, true);
    }
    double gnmt_hit_rate =
        gwarm.storeHits + gwarm.memoryHits + gwarm.misses > 0
            ? 100.0 *
                  static_cast<double>(gwarm.storeHits + gwarm.memoryHits) /
                  static_cast<double>(gwarm.storeHits + gwarm.memoryHits +
                                      gwarm.misses)
            : 0.0;
    bool gnmt_from_disk = gwarm.misses == 0;
    bool gnmt_identical = gwarm.cycles == gcold.cycles &&
                          gwarm.threadInsts == gcold.threadInsts;

    std::error_code ec;
    fs::remove_all(root, ec);

    std::printf("{\n  \"host_cpus\": %u,\n",
                std::max(1u, std::thread::hardware_concurrency()));
    std::printf("  \"build_type\": \"%s\",\n", PKA_BUILD_TYPE);
    std::printf("  \"campaign\": {\n");
    std::printf("    \"workloads\": [");
    for (size_t i = 0; i < names.size(); ++i)
        std::printf("%s\"%s\"", i ? ", " : "", names[i].c_str());
    std::printf("],\n");
    std::printf("    \"launches\": %zu,\n", campaign_launches);
    std::printf("    \"record_count\": %llu,\n",
                static_cast<unsigned long long>(record_count));
    std::printf("    \"record_bytes\": %llu,\n",
                static_cast<unsigned long long>(record_bytes));
    std::printf("    \"cold_wall_seconds\": %.4f,\n", cold.wallSeconds);
    std::printf("    \"warm_wall_seconds\": %.4f,\n", warm.wallSeconds);
    std::printf("    \"warm_speedup\": %.2f,\n",
                warm.wallSeconds > 0
                    ? cold.wallSeconds / warm.wallSeconds
                    : 0.0);
    std::printf("    \"warm_store_hits\": %llu,\n",
                static_cast<unsigned long long>(warm.storeHits));
    std::printf("    \"warm_misses\": %llu,\n",
                static_cast<unsigned long long>(warm.misses));
    std::printf("    \"warm_entirely_from_disk\": %s,\n",
                warm_from_disk ? "true" : "false");
    std::printf("    \"aggregates_bit_identical\": %s\n",
                campaign_identical ? "true" : "false");
    std::printf("  },\n");
    std::printf("  \"gnmt\": {\n");
    std::printf("    \"workload\": \"gnmt_training\",\n");
    std::printf("    \"launches\": %zu,\n", stream->launches.size());
    std::printf("    \"cold_wall_seconds\": %.4f,\n", gcold.wallSeconds);
    std::printf("    \"warm_wall_seconds\": %.4f,\n", gwarm.wallSeconds);
    std::printf("    \"warm_store_hits\": %llu,\n",
                static_cast<unsigned long long>(gwarm.storeHits));
    std::printf("    \"warm_memory_hits\": %llu,\n",
                static_cast<unsigned long long>(gwarm.memoryHits));
    std::printf("    \"warm_misses\": %llu,\n",
                static_cast<unsigned long long>(gwarm.misses));
    std::printf("    \"warm_hit_rate_pct\": %.2f,\n", gnmt_hit_rate);
    std::printf("    \"warm_entirely_from_cache\": %s,\n",
                gnmt_from_disk ? "true" : "false");
    std::printf("    \"aggregates_bit_identical\": %s\n",
                gnmt_identical ? "true" : "false");
    std::printf("  }\n}\n");

    return (warm_from_disk && campaign_identical && gnmt_from_disk &&
            gnmt_identical)
               ? 0
               : 1;
}
