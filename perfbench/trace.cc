/**
 * @file
 * In-process half of the PKA benchmark (perfbench/run.py drives it).
 *
 *   pka_trace batch SPANS CACHE_ROOT CMD...
 *       CMD is analyze:<app>:<mlperf-scale>[:cache] or
 *       simulate:<app>:<scale>[:cache]. Composes the public calls that
 *       `pka analyze` (runPka = selectKernelsChecked + simulateSelection
 *       twice) and `pka simulate` (fullSimulate) make, with a span around
 *       every call into a layer. `:cache` gives command i a fresh result
 *       store CACHE_ROOT/i, like `--cache-dir`.
 *   pka_trace serve-compose SPANS STORE_DIR JOURNAL_DIR < names
 *       Composes the daemon's RUN path (buildWorkload + fullSimulate on
 *       one shared engine and store) for each campaign name on stdin.
 *   pka_trace serve-load ADDR CLIENTS PASS_SIZE SECONDS < names
 *       Closed-loop load through serve::Client: CLIENTS connections,
 *       each sending its next RUN only after the previous RESULT. The
 *       names are cut into passes of PASS_SIZE campaigns; passes start
 *       until SECONDS have elapsed. No spans: this is the untraced load.
 *
 * Every mode prints JSON objects, one per line, on stdout; the traced
 * modes also write their spans (name, trace id, id, parent, start, end)
 * to SPANS when the run ends.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/pka.hh"
#include "core/pkp.hh"
#include "serve/client.hh"
#include "silicon/gpu_spec.hh"
#include "silicon/profiler.hh"
#include "silicon/silicon_gpu.hh"
#include "sim/engine.hh"
#include "sim/fnv.hh"
#include "store/file_store.hh"
#include "store/journal.hh"
#include "workload/suites.hh"

namespace
{

using namespace pka;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

double
now()
{
    return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            c = ' ';
        out += c;
    }
    return out + "\"";
}

/** Flat JSON object writer: `{"k": v, ...}` on one line. */
class JsonLine
{
  public:
    JsonLine &num(const std::string &k, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return raw(k, buf);
    }
    JsonLine &str(const std::string &k, const std::string &v)
    {
        return raw(k, jsonString(v));
    }
    JsonLine &raw(const std::string &k, const std::string &v)
    {
        os_ << (first_ ? "{" : ", ") << jsonString(k) << ": " << v;
        first_ = false;
        return *this;
    }
    std::string done() const { return os_.str() + "}"; }

  private:
    std::ostringstream os_;
    bool first_ = true;
};

/** In-memory span recorder; single-threaded by construction. */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        uint64_t trace = 0;
        long parent = -1;
        double start = 0.0;
        double end = 0.0;
    };

    void setTrace(uint64_t id) { trace_ = id; }

    long open(const std::string &name)
    {
        spans_.push_back({name, trace_, current_, now(), 0.0});
        current_ = static_cast<long>(spans_.size()) - 1;
        return current_;
    }

    void close(long id)
    {
        spans_[id].end = now();
        current_ = spans_[id].parent;
    }

    bool write(const std::string &path) const
    {
        std::ofstream os(path);
        os << "[\n";
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            os << JsonLine()
                      .str("name", s.name)
                      .num("trace", static_cast<double>(s.trace))
                      .num("id", static_cast<double>(i))
                      .num("parent", static_cast<double>(s.parent))
                      .num("start", s.start)
                      .num("end", s.end)
                      .done()
               << (i + 1 < spans_.size() ? ",\n" : "\n");
        }
        os << "]\n";
        return static_cast<bool>(os);
    }

  private:
    std::vector<Span> spans_;
    uint64_t trace_ = 0;
    long current_ = -1;
};

Tracer tracer;

/** RAII span around one call into a layer. */
class Scope
{
  public:
    explicit Scope(const std::string &name) : id_(tracer.open(name)) {}
    ~Scope() { tracer.close(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    long id_;
};

/** Engine cache keys (content, launch id, stop config) already seen. */
using KeySet = std::set<std::tuple<uint64_t, uint64_t, uint64_t>>;

/** Layer counters summed over every command of one traced run. */
struct Counters
{
    uint64_t launches = 0;
    uint64_t distinctKeys = 0;
    uint64_t profiledLaunches = 0;
    uint64_t pksGroups = 0;
    uint64_t classified = 0;
    uint64_t abstentions = 0;
    uint64_t fallbackMapped = 0;
    double pkaSimCycles = 0.0;
    double pksSimCycles = 0.0;
    sim::EngineStats engine; ///< summed over every fan-out
    unsigned engineThreads = 0;
    double simCycles = 0.0;  ///< cycles of launches actually simulated
    double simWarpInsts = 0.0;
    double shardBusyMs = 0.0;
    double shardSpanMs = 0.0; ///< team size x busiest shard, per launch
    store::StoreStatsSnapshot store;

    void addEngine(const sim::EngineStats &s)
    {
        engine.launches += s.launches;
        engine.cacheHits += s.cacheHits;
        engine.storeHits += s.storeHits;
        engine.cacheMisses += s.cacheMisses;
        engine.simTierHits += s.simTierHits;
        engine.wallSeconds += s.wallSeconds;
        engine.cpuSeconds += s.cpuSeconds;
        engine.shardedLaunches += s.shardedLaunches;
    }

    void addStore(const store::StoreStatsSnapshot &s)
    {
        store.hits += s.hits;
        store.misses += s.misses;
        store.puts += s.puts;
        store.putFailures += s.putFailures;
        store.bytesRead += s.bytesRead;
        store.bytesWritten += s.bytesWritten;
        store.ioRetries += s.ioRetries;
    }

    /** Cycles/instructions/shard time of results the engine simulated:
     *  the first occurrence of each cache key in a fan-out that missed
     *  (every command here starts from a fresh engine and store). */
    void addSimulated(const std::vector<sim::SimJob> &jobs,
                      const core::CampaignRunOutcome &run, KeySet &seen)
    {
        for (size_t i = 0; i < jobs.size(); ++i) {
            if (!run.completed[i])
                continue;
            const sim::KernelSimResult &r = run.results[i];
            auto key = std::make_tuple(
                sim::launchContentHash(*jobs[i].kernel),
                static_cast<uint64_t>(jobs[i].kernel->launchId),
                jobs[i].stopConfigKey);
            if (!seen.insert(key).second)
                continue;
            simCycles += static_cast<double>(r.cycles);
            simWarpInsts += static_cast<double>(r.warpInstructions);
            if (!r.shardBusyMs.empty()) {
                double mx = 0.0;
                for (double b : r.shardBusyMs) {
                    shardBusyMs += b;
                    mx = std::max(mx, b);
                }
                shardSpanMs +=
                    mx * static_cast<double>(r.shardBusyMs.size());
            }
        }
    }

    std::string json() const
    {
        uint64_t hits =
            engine.cacheHits + engine.storeHits + engine.simTierHits;
        double threads = engineThreads > 0 ? engineThreads : 1.0;
        return JsonLine()
            .str("type", "counters")
            .num("launches", static_cast<double>(launches))
            .num("distinct_keys", static_cast<double>(distinctKeys))
            .num("profiled_launches", static_cast<double>(profiledLaunches))
            .num("pks_groups", static_cast<double>(pksGroups))
            .num("classified", static_cast<double>(classified))
            .num("abstentions", static_cast<double>(abstentions))
            .num("fallback_mapped", static_cast<double>(fallbackMapped))
            .num("pka_sim_cycles", pkaSimCycles)
            .num("pks_sim_cycles", pksSimCycles)
            .num("engine_launches", static_cast<double>(engine.launches))
            .num("engine_hits", static_cast<double>(hits))
            .num("engine_misses", static_cast<double>(engine.cacheMisses))
            .num("engine_wall_s", engine.wallSeconds)
            .num("engine_busy_s", engine.cpuSeconds)
            .num("engine_busy_frac",
                 engine.wallSeconds > 0
                     ? engine.cpuSeconds / (engine.wallSeconds * threads)
                     : 0.0)
            .num("engine_threads", threads)
            .num("sharded_launches",
                 static_cast<double>(engine.shardedLaunches))
            .num("shard_busy_frac",
                 shardSpanMs > 0 ? shardBusyMs / shardSpanMs : 0.0)
            .num("sim_cycles", simCycles)
            .num("sim_warp_insts", simWarpInsts)
            .num("store_hits", static_cast<double>(store.hits))
            .num("store_misses", static_cast<double>(store.misses))
            .num("store_puts", static_cast<double>(store.puts))
            .num("store_bytes_read", static_cast<double>(store.bytesRead))
            .num("store_bytes_written",
                 static_cast<double>(store.bytesWritten))
            .num("store_io_retries", static_cast<double>(store.ioRetries))
            .num("store_put_failures",
                 static_cast<double>(store.putFailures))
            .done();
    }
};

Counters counters;

/** Distinct (name, grid, block, tensor dims) launch keys. */
uint64_t
distinctKeys(const workload::Workload &w)
{
    std::set<std::tuple<std::string, uint64_t, uint64_t, uint64_t, uint64_t,
                        uint64_t, uint64_t, std::vector<uint32_t>>>
        keys;
    for (const auto &k : w.launches)
        keys.emplace(k.program ? k.program->name : std::string(), k.grid.x,
                     k.grid.y, k.grid.z, k.block.x, k.block.y, k.block.z,
                     k.tensorDims);
    return keys.size();
}

/** Count launches and keys; the span keeps this benchmark-side work
 *  out of the layer totals. */
void
count(const workload::Workload &w)
{
    Scope s("trace.count_keys");
    counters.launches += w.launches.size();
    counters.distinctKeys += distinctKeys(w);
}

workload::Workload
build(const std::string &app, double scale, bool under_profiler)
{
    workload::GenOptions g;
    g.mlperfScale = scale;
    g.underProfiler = under_profiler;
    std::optional<workload::Workload> w;
    {
        Scope s("workload.build");
        w = workload::buildWorkload(app, g);
    }
    if (!w)
        common::fatal("unknown workload '" + app + "'");
    return std::move(*w);
}

/** Drop a workload under a span: freeing a stream is workload cost. */
void
release(workload::Workload &w)
{
    Scope s("workload.free");
    w = workload::Workload{};
}

/** Store + engine the way `pka`'s main() sets them up for one command. */
struct Campaign
{
    std::unique_ptr<store::KernelResultStore> store;
    std::unique_ptr<sim::SimEngine> engine;
    core::CampaignCheckpoint checkpoint;

    explicit Campaign(const std::string &cache_dir)
    {
        sim::EngineOptions eo;
        if (!cache_dir.empty()) {
            Scope s("store.open");
            store = std::make_unique<store::KernelResultStore>(cache_dir);
            eo.store = store.get();
            checkpoint.dir = cache_dir;
        }
        Scope s("sim.engine.start");
        engine = std::make_unique<sim::SimEngine>(eo);
        counters.engineThreads = engine->threads();
    }

    ~Campaign()
    {
        if (store)
            counters.addStore(store->stats());
    }

    Campaign(const Campaign &) = delete;
    Campaign &operator=(const Campaign &) = delete;

    const core::CampaignCheckpoint *cp() const
    {
        return checkpoint.dir.empty() ? nullptr : &checkpoint;
    }
};

/** Journal for one fan-out, keyed exactly as the library keys it. */
std::unique_ptr<store::CampaignJournal>
openJournal(const core::CampaignCheckpoint *cp, const std::string &stage,
            uint64_t key, size_t launches)
{
    if (!cp)
        return nullptr;
    return std::make_unique<store::CampaignJournal>(
        core::journalPath(cp->dir, stage, key), key, launches, cp->resume);
}

core::CampaignRunOutcome
fanOut(const Campaign &c, const sim::GpuSimulator &simulator,
       const std::vector<sim::SimJob> &jobs,
       const core::CampaignPolicy &policy, store::CampaignJournal *journal,
       size_t chunk, const std::string &span, KeySet &seen)
{
    sim::EngineStats stats;
    core::CampaignRunOutcome run;
    {
        Scope s(span);
        run = core::runJobsCheckpointedChecked(*c.engine, simulator, jobs,
                                               policy, &stats, journal,
                                               chunk);
    }
    if (!run.failures.empty())
        common::fatal("simulation failed: " +
                      run.failures.front().error.str());
    counters.addEngine(stats);
    if (stats.cacheMisses > 0)
        counters.addSimulated(jobs, run, seen);
    return run;
}

/** Projection of one selection: what simulateSelection reduces. */
struct Projection
{
    double projectedCycles = 0.0;
    double simulatedCycles = 0.0;
};

Projection
simulateSelection(const Campaign &c, const sim::GpuSimulator &simulator,
                  const workload::Workload &w,
                  const std::vector<core::KernelGroup> &groups,
                  const core::PkpOptions *pkp, KeySet &seen)
{
    std::vector<sim::SimJob> jobs;
    for (const auto &g : groups) {
        sim::SimJob job;
        job.kernel = &w.launches[g.representative];
        job.workloadSeed = w.seed;
        if (pkp) {
            core::PkpOptions cfg = *pkp;
            job.makeStop = [cfg] {
                return std::make_unique<core::IpcStabilityController>(cfg);
            };
            job.stopConfigKey = core::pkpStopConfigKey(cfg);
        }
        jobs.push_back(std::move(job));
    }
    const char *stage = pkp ? "pka" : "pks";
    std::unique_ptr<store::CampaignJournal> journal;
    if (c.cp()) {
        sim::Fnv f;
        f.u64(core::campaignKey(simulator, w, *c.engine, stage));
        f.u64(pkp ? core::pkpStopConfigKey(*pkp) : 0);
        for (const auto &g : groups) {
            f.u64(g.representative);
            f.f64(g.weight);
        }
        journal = openJournal(c.cp(), stage, f.h, jobs.size());
    }
    core::CampaignRunOutcome run =
        fanOut(c, simulator, jobs, core::CampaignPolicy{}, journal.get(),
               c.cp() ? c.cp()->chunkLaunches : 0,
               pkp ? "sim.pka" : "sim.pks", seen);

    Projection out;
    for (size_t i = 0; i < run.results.size(); ++i) {
        core::PkpProjection p = core::projectKernel(run.results[i]);
        out.projectedCycles +=
            static_cast<double>(p.projectedCycles) * groups[i].weight;
        out.simulatedCycles += static_cast<double>(run.results[i].cycles);
    }
    return out;
}

/** `pka analyze APP --mlperf-scale S [--cache-dir D]`, composed. */
std::string
analyze(const std::string &app, double scale, const std::string &cache_dir)
{
    workload::Workload traced = build(app, scale, false);
    workload::Workload profiled = build(app, scale, true);
    count(traced);

    silicon::GpuSpec spec = silicon::voltaV100();
    silicon::SiliconGpu gpu(spec);
    sim::GpuSimulator simulator(spec);
    Campaign c(cache_dir);
    if (traced.launches.size() != profiled.launches.size())
        common::fatal("analyze " + app + ": workload excluded");

    // selectKernelsChecked, call for call.
    core::PkaOptions opts;
    silicon::DetailedProfiler detailed(gpu);
    silicon::LightweightProfiler light(gpu);
    core::PksOptions pks_opts = opts.pks;
    pks_opts.validation = core::ValidationPolicy::kRepair;
    double full_cost = 0.0;
    {
        Scope s("silicon.cost");
        full_cost = detailed.costSeconds(profiled);
    }
    double wscale = profiled.scale > 0 ? profiled.scale : 1.0;
    std::vector<core::KernelGroup> groups;
    bool two_level = false;
    if (full_cost / wscale <= opts.detailedProfilingBudgetSec ||
        profiled.launches.size() <= opts.twoLevelDetailedKernels) {
        std::vector<silicon::DetailedProfile> profiles;
        {
            Scope s("silicon.detailed_profile");
            profiles = detailed.profile(profiled);
        }
        counters.profiledLaunches += profiles.size();
        common::Expected<core::PksResult> pks = [&] {
            Scope s("core.pks");
            return core::principalKernelSelectionChecked(
                std::move(profiles), pks_opts);
        }();
        if (!pks.ok())
            common::fatal(pks.error().str());
        groups = std::move(pks.value().groups);
    } else {
        two_level = true;
        core::TwoLevelOptions tl;
        tl.detailedKernels = opts.twoLevelDetailedKernels;
        tl.pks = pks_opts;
        tl.abstainThreshold = opts.abstainThreshold;
        std::vector<silicon::DetailedProfile> prefix;
        std::vector<silicon::LightProfile> all_light;
        {
            Scope s("silicon.detailed_profile");
            prefix = detailed.profile(profiled, tl.detailedKernels);
        }
        {
            Scope s("silicon.light_profile");
            all_light = light.profile(profiled);
        }
        counters.profiledLaunches += prefix.size() + all_light.size();
        common::Expected<core::TwoLevelResult> two = [&] {
            Scope s("core.two_level");
            return core::twoLevelSelectionChecked(
                std::move(prefix), std::move(all_light), tl);
        }();
        if (!two.ok())
            common::fatal(two.error().str());
        const core::TwoLevelResult &t = two.value();
        groups = t.groups;
        if (groups.size() > 1)
            counters.classified +=
                profiled.launches.size() - t.detailedCount;
        counters.abstentions += t.abstentions;
        counters.fallbackMapped += t.fallbackMapped;
        Scope s("silicon.cost");
        (void)(detailed.costSeconds(profiled, tl.detailedKernels) +
               light.costSeconds(profiled));
    }
    counters.pksGroups += groups.size();

    KeySet seen;
    Projection pks =
        simulateSelection(c, simulator, traced, groups, nullptr, seen);
    Projection pka =
        simulateSelection(c, simulator, traced, groups, &opts.pkp, seen);
    counters.pksSimCycles += pks.simulatedCycles;
    counters.pkaSimCycles += pka.simulatedCycles;

    silicon::AppExecution sil;
    {
        Scope s("silicon.run");
        sil = gpu.run(traced);
    }
    std::string line = JsonLine()
                           .str("type", "command")
                           .str("cmd", "analyze")
                           .str("app", app)
                           .num("launches",
                                static_cast<double>(traced.launches.size()))
                           .num("groups", static_cast<double>(groups.size()))
                           .num("two_level", two_level ? 1 : 0)
                           .num("silicon_cycles",
                                static_cast<double>(sil.totalCycles))
                           .num("pks_projected", pks.projectedCycles)
                           .num("pks_simulated", pks.simulatedCycles)
                           .num("pka_projected", pka.projectedCycles)
                           .num("pka_simulated", pka.simulatedCycles)
                           .done();
    release(traced);
    release(profiled);
    return line;
}

/** Full-simulation reduction, as fullSimulate does it. */
struct FullSim
{
    double cycles = 0.0;
    double insts = 0.0;
    double dram = 0.0;
    uint64_t cacheHits = 0;
    uint64_t storeHits = 0;
    uint64_t misses = 0;
};

FullSim
fullSimulate(const Campaign &c, const sim::GpuSimulator &simulator,
             const workload::Workload &w, const core::CampaignPolicy &policy,
             size_t chunk, const std::string &span)
{
    std::vector<sim::SimJob> jobs(w.launches.size());
    for (size_t i = 0; i < w.launches.size(); ++i) {
        jobs[i].kernel = &w.launches[i];
        jobs[i].workloadSeed = w.seed;
    }
    std::unique_ptr<store::CampaignJournal> journal;
    if (c.cp()) {
        uint64_t key =
            core::campaignKey(simulator, w, *c.engine, "fullsim");
        journal = openJournal(c.cp(), "fullsim", key, jobs.size());
    }
    sim::EngineStats before = counters.engine;
    KeySet seen;
    core::CampaignRunOutcome run = fanOut(c, simulator, jobs, policy,
                                          journal.get(), chunk, span, seen);
    FullSim out;
    double util_weight = 0.0;
    for (const sim::KernelSimResult &r : run.results) {
        out.cycles += static_cast<double>(r.cycles);
        out.insts += r.threadInstructions;
        out.dram += r.dramUtilPct * static_cast<double>(r.cycles);
        util_weight += static_cast<double>(r.cycles);
    }
    if (util_weight > 0)
        out.dram /= util_weight;
    out.cacheHits = counters.engine.cacheHits - before.cacheHits;
    out.storeHits = counters.engine.storeHits - before.storeHits;
    out.misses = counters.engine.cacheMisses - before.cacheMisses;
    return out;
}

std::string
fullSimJson(const std::string &cmd, const std::string &app,
            const workload::Workload &w, const FullSim &fs)
{
    return JsonLine()
        .str("type", "command")
        .str("cmd", cmd)
        .str("app", app)
        .num("launches", static_cast<double>(w.launches.size()))
        .num("cycles", fs.cycles)
        .num("insts", fs.insts)
        .num("ipc", fs.cycles > 0 ? fs.insts / fs.cycles : 0.0)
        .num("dram", fs.dram)
        .num("cache_hits", static_cast<double>(fs.cacheHits))
        .num("store_hits", static_cast<double>(fs.storeHits))
        .num("cache_misses", static_cast<double>(fs.misses))
        .done();
}

/** `pka simulate APP [--cache-dir D]`, composed. */
std::string
simulate(const std::string &app, double scale, const std::string &cache_dir)
{
    workload::Workload w = build(app, scale, false);
    count(w);
    sim::GpuSimulator simulator(silicon::voltaV100());
    Campaign c(cache_dir);
    FullSim fs = fullSimulate(c, simulator, w, core::CampaignPolicy{},
                              c.cp() ? c.cp()->chunkLaunches : 0,
                              "sim.full");
    std::string line = fullSimJson("simulate", app, w, fs);
    release(w);
    return line;
}

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string part;
    while (std::getline(ss, part, sep))
        out.push_back(part);
    return out;
}

std::vector<std::string>
readNames()
{
    std::vector<std::string> names;
    std::string line;
    while (std::getline(std::cin, line))
        if (!line.empty())
            names.push_back(line);
    return names;
}

int
finishTraced(const std::string &spans)
{
    std::printf("%s\n", counters.json().c_str());
    if (!tracer.write(spans)) {
        std::fprintf(stderr, "cannot write %s\n", spans.c_str());
        return 1;
    }
    return 0;
}

int
cmdBatch(int argc, char **argv)
{
    if (argc < 5)
        common::fatal("usage: pka_trace batch SPANS CACHE_ROOT CMD...");
    const std::string cache_root = argv[3];
    for (int i = 4; i < argc; ++i) {
        std::vector<std::string> cmd = split(argv[i], ':');
        bool cached = cmd.size() == 4 && cmd[3] == "cache";
        if (cmd.size() != 3 && !cached)
            common::fatal(std::string("bad command '") + argv[i] + "'");
        double scale = std::stod(cmd[2]);
        std::string dir =
            cached ? cache_root + "/" + std::to_string(i - 4) : "";
        tracer.setTrace(static_cast<uint64_t>(i - 4));
        std::string line;
        {
            Scope s("command");
            if (cmd[0] == "analyze")
                line = analyze(cmd[1], scale, dir);
            else if (cmd[0] == "simulate")
                line = simulate(cmd[1], scale, dir);
            else
                common::fatal("unknown command '" + cmd[0] + "'");
        }
        std::printf("%s\n", line.c_str());
    }
    return finishTraced(argv[2]);
}

/** The daemon's RUN handler (server.cc), composed per campaign. */
int
cmdServeCompose(int argc, char **argv)
{
    if (argc != 5)
        common::fatal(
            "usage: pka_trace serve-compose SPANS STORE_DIR JOURNAL_DIR");
    std::vector<std::string> names = readNames();
    tracer.setTrace(0);
    std::unique_ptr<Campaign> c;
    {
        Scope s("command");
        c = std::make_unique<Campaign>(argv[3]);
    }
    c->checkpoint.dir = argv[4];
    c->checkpoint.chunkLaunches = 64;
    sim::GpuSimulator simulator(silicon::voltaV100());
    for (size_t i = 0; i < names.size(); ++i) {
        tracer.setTrace(i + 1);
        std::string line;
        {
            Scope s("campaign");
            workload::Workload w = build(names[i], 0.02, false);
            count(w);
            FullSim fs = fullSimulate(*c, simulator, w,
                                      core::CampaignPolicy{}, 64,
                                      "sim.full");
            line = fullSimJson("campaign", names[i], w, fs);
            release(w);
        }
        std::printf("%s\n", line.c_str());
    }
    c.reset();
    return finishTraced(argv[2]);
}

/** Share of the guest's CPU time the hypervisor stole between two
 *  /proc/stat samples of (all ticks, stolen ticks). */
std::pair<double, double>
cpuTicks()
{
    std::ifstream is("/proc/stat");
    std::string cpu;
    is >> cpu;
    double total = 0.0, steal = 0.0, v = 0.0;
    for (int i = 0; i < 10 && is >> v; ++i) {
        total += v;
        if (i == 7)
            steal = v;
    }
    return {total, steal};
}

double
stealShare(std::pair<double, double> a, std::pair<double, double> b)
{
    return b.first > a.first ? (b.second - a.second) / (b.first - a.first)
                             : 0.0;
}

/** One RUN as the client saw it. */
struct CampaignRecord
{
    std::string app;
    size_t pass = 0;
    double send = 0.0;
    double firstEvent = -1.0;
    double result = 0.0;
    std::string verb;
    serve::Message reply;
    std::string error;
};

common::Expected<serve::Message>
stats(const std::string &addr)
{
    common::Expected<serve::Client> c = serve::Client::connect(addr);
    if (!c.ok())
        return c.error();
    return c.value().call(serve::Message{"STATS", {}});
}

std::string
statsJson(const std::string &when, const serve::Message &m)
{
    JsonLine j;
    j.str("type", "stats").str("when", when);
    for (const char *k : {"cache_hits", "store_hits", "cache_misses",
                          "peak", "rejected", "completed"}) {
        common::Expected<uint64_t> v = m.getUint(k, 0);
        j.num(k, v.ok() ? static_cast<double>(v.value()) : -1.0);
    }
    return j.done();
}

int
cmdServeLoad(int argc, char **argv)
{
    if (argc != 6)
        common::fatal("usage: pka_trace serve-load ADDR CLIENTS PASS_SIZE "
                      "SECONDS < names");
    const std::string addr = argv[2];
    const size_t clients = std::stoul(argv[3]);
    const size_t pass_size = std::stoul(argv[4]);
    const double seconds = std::stod(argv[5]);
    std::vector<std::string> names = readNames();
    if (clients == 0 || pass_size == 0 || names.empty())
        common::fatal("serve-load needs clients, a pass size and names");

    common::Expected<serve::Message> st = stats(addr);
    if (!st.ok())
        common::fatal("STATS: " + st.error().str());
    std::printf("%s\n", statsJson("before", st.value()).c_str());

    std::vector<serve::Client> conns;
    for (size_t k = 0; k < clients; ++k) {
        common::Expected<serve::Client> c = serve::Client::connect(addr);
        if (!c.ok())
            common::fatal("connect: " + c.error().str());
        common::Expected<serve::Message> h =
            c.value().hello("perfbench-" + std::to_string(k));
        if (!h.ok() || h.value().verb != "OK")
            common::fatal("HELLO refused");
        conns.push_back(std::move(c.value()));
    }

    std::vector<CampaignRecord> records(names.size());
    const double t0 = now();
    size_t begin = 0;
    for (size_t pass = 0; begin < names.size(); ++pass) {
        if (pass > 0 && now() - t0 >= seconds)
            break;
        size_t end = std::min(begin + pass_size, names.size());
        std::atomic<size_t> next{begin};
        std::pair<double, double> ticks = cpuTicks();
        double pass_start = now();
        std::vector<std::thread> team;
        for (size_t k = 0; k < clients; ++k)
            team.emplace_back([&, k] {
                for (size_t j = next++; j < end; j = next++) {
                    CampaignRecord &r = records[j];
                    r.app = names[j];
                    r.pass = pass;
                    serve::Message req{"RUN", {}};
                    req.add("id", "c" + std::to_string(j))
                        .add("workload", names[j])
                        .add("gpu", "volta")
                        .addDouble("scale", 0.02);
                    r.send = now();
                    common::Expected<serve::Message> m = conns[k].call(
                        req, [&r](const serve::Message &) {
                            if (r.firstEvent < 0)
                                r.firstEvent = now();
                        });
                    r.result = now();
                    if (!m.ok()) {
                        r.error = m.error().str();
                        continue;
                    }
                    r.verb = m.value().verb;
                    r.reply = m.value();
                    if (r.verb == "ERR")
                        r.error = serve::errorFromMessage(r.reply).str();
                }
            });
        for (std::thread &t : team)
            t.join();
        double pass_end = now();
        double steal = stealShare(ticks, cpuTicks());
        for (size_t j = begin; j < end; ++j) {
            const CampaignRecord &r = records[j];
            JsonLine line;
            line.str("type", "campaign")
                .num("pass", static_cast<double>(pass))
                .str("app", r.app)
                .str("verb", r.verb)
                .str("error", r.error)
                .num("send", r.send)
                .num("first_event", r.firstEvent)
                .num("result", r.result);
            for (const char *k : {"cycles", "insts", "ipc", "dram"})
                line.str(k, r.reply.get(k));
            for (const char *k : {"launches", "failed", "quorum",
                                  "cache_hits", "store_hits",
                                  "cache_misses"})
                line.str(k, r.reply.get(k));
            std::printf("%s\n", line.done().c_str());
        }
        std::printf("%s\n", JsonLine()
                                .str("type", "pass")
                                .num("pass", static_cast<double>(pass))
                                .num("campaigns",
                                     static_cast<double>(end - begin))
                                .num("wall", pass_end - pass_start)
                                .num("steal", steal)
                                .done()
                                .c_str());
        begin = end;
    }

    for (serve::Client &c : conns)
        (void)c.call(serve::Message{"BYE", {}});
    st = stats(addr);
    if (!st.ok())
        common::fatal("STATS: " + st.error().str());
    std::printf("%s\n", statsJson("after", st.value()).c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string mode = argc > 1 ? argv[1] : "";
    if (mode == "batch")
        return cmdBatch(argc, argv);
    if (mode == "serve-compose")
        return cmdServeCompose(argc, argv);
    if (mode == "serve-load")
        return cmdServeLoad(argc, argv);
    std::fprintf(stderr, "usage: pka_trace batch|serve-compose|serve-load "
                         "...\n");
    return 1;
}
