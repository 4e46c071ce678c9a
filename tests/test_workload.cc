/**
 * @file
 * Workload-model tests: IR arithmetic, builders, archetypes, suite
 * structure (the paper's launch-count shapes), determinism and the
 * profiler-sensitivity quirk.
 */

#include <gtest/gtest.h>

#include <set>
#include <unordered_map>

#include "sim/fnv.hh"
#include "sim/simulator.hh"
#include "workload/archetypes.hh"
#include "workload/builder.hh"
#include "workload/detail.hh"
#include "workload/suites.hh"

using namespace pka::workload;
using pka::common::Rng;

namespace
{

ProgramPtr
tinyProgram(uint32_t alu = 4, uint32_t loads = 1)
{
    return ProgramBuilder("tiny")
        .seg(InstrClass::GlobalLoad, loads)
        .seg(InstrClass::IntAlu, alu)
        .seg(InstrClass::GlobalStore, 1)
        .build();
}

/** Digest of a workload's identity and of every launch's content,
 *  launch id and tensor annotations. */
uint64_t
workloadDigest(const Workload &w)
{
    pka::sim::Fnv f;
    f.str(w.suite);
    f.str(w.name);
    f.u64(w.seed);
    f.f64(w.scale);
    f.u64(w.launches.size());
    for (const auto &k : w.launches) {
        f.u64(k.launchId);
        f.u64(pka::sim::launchContentHash(k));
        f.u64(k.tensorDims.size());
        for (uint32_t d : k.tensorDims)
            f.u64(d);
    }
    return f.h;
}

} // namespace

TEST(Dim3, Total)
{
    EXPECT_EQ((Dim3{4, 2, 3}).total(), 24u);
    EXPECT_EQ((Dim3{1, 1, 1}).total(), 1u);
}

TEST(Program, InstrsPerIteration)
{
    auto p = tinyProgram(4, 2);
    EXPECT_EQ(p->instrsPerIteration(), 7u);
    EXPECT_EQ(p->classInstrsPerIteration(InstrClass::IntAlu), 4u);
    EXPECT_EQ(p->classInstrsPerIteration(InstrClass::GlobalLoad), 2u);
    EXPECT_EQ(p->classInstrsPerIteration(InstrClass::Sfu), 0u);
}

TEST(Program, InstrClassNames)
{
    for (size_t c = 0; c < kNumInstrClasses; ++c) {
        const char *n = instrClassName(static_cast<InstrClass>(c));
        EXPECT_NE(n, nullptr);
        EXPECT_GT(std::string(n).size(), 0u);
    }
}

TEST(Program, GlobalMemClassification)
{
    EXPECT_TRUE(isGlobalMemClass(InstrClass::GlobalLoad));
    EXPECT_TRUE(isGlobalMemClass(InstrClass::GlobalAtomic));
    EXPECT_TRUE(isGlobalMemClass(InstrClass::LocalStore));
    EXPECT_FALSE(isGlobalMemClass(InstrClass::SharedLoad));
    EXPECT_FALSE(isGlobalMemClass(InstrClass::IntAlu));
}

TEST(KernelDescriptor, CountArithmetic)
{
    KernelDescriptor k;
    k.program = tinyProgram();
    k.grid = {10, 1, 1};
    k.block = {96, 1, 1};
    k.iterations = 5;
    EXPECT_EQ(k.numCtas(), 10u);
    EXPECT_EQ(k.threadsPerCta(), 96u);
    EXPECT_EQ(k.warpsPerCta(), 3u);
    EXPECT_EQ(k.totalThreads(), 960u);
    EXPECT_EQ(k.totalThreadInstructions(), 960u * 5 * 6);
    EXPECT_EQ(k.totalWarpInstructions(), 30u * 5 * 6);
}

TEST(KernelDescriptor, WarpRoundUp)
{
    KernelDescriptor k;
    k.program = tinyProgram();
    k.grid = {1, 1, 1};
    k.block = {33, 1, 1};
    EXPECT_EQ(k.warpsPerCta(), 2u);
}

TEST(ProgramBuilder, RejectsEmptyBody)
{
    ProgramBuilder b("empty");
    EXPECT_DEATH(b.build(), "empty");
}

TEST(ProgramBuilder, DropsZeroCountSegments)
{
    auto p = ProgramBuilder("z")
                 .seg(InstrClass::IntAlu, 0)
                 .seg(InstrClass::FpAlu, 3)
                 .build();
    EXPECT_EQ(p->body.size(), 1u);
}

TEST(ProgramBuilder, ValidatesMemParameters)
{
    ProgramBuilder b("m");
    EXPECT_DEATH(b.mem(0.5, 0.5, 0.5), "sectors");
    EXPECT_DEATH(b.mem(40.0, 0.5, 0.5), "sectors");
}

TEST(ProgramBuilder, ValidatesDivergence)
{
    ProgramBuilder b("d");
    EXPECT_DEATH(b.divergence(0.0), "divergence");
    EXPECT_DEATH(b.divergence(1.5), "divergence");
}

TEST(WorkloadBuilder, AssignsChronologicalIds)
{
    WorkloadBuilder b("s", "n", 1);
    auto p = tinyProgram();
    for (int i = 0; i < 5; ++i)
        b.launch(p, {1, 1, 1}, {32, 1, 1});
    Workload w = b.build();
    for (uint32_t i = 0; i < 5; ++i)
        EXPECT_EQ(w.launches[i].launchId, i);
}

TEST(WorkloadBuilder, RejectsOversizedBlock)
{
    WorkloadBuilder b("s", "n", 1);
    EXPECT_DEATH(b.launch(tinyProgram(), {1, 1, 1}, {2048, 1, 1}),
                 "1024");
}

TEST(WorkloadBuilder, RejectsEmptyGrid)
{
    WorkloadBuilder b("s", "n", 1);
    EXPECT_DEATH(b.launch(tinyProgram(), {0, 1, 1}, {32, 1, 1}),
                 "non-empty");
}

TEST(WorkloadBuilder, RejectsEmptyWorkload)
{
    WorkloadBuilder b("s", "n", 1);
    EXPECT_DEATH(b.build(), "no launches");
}

TEST(Workload, DistinctPrograms)
{
    WorkloadBuilder b("s", "n", 1);
    auto p1 = tinyProgram(), p2 = tinyProgram();
    b.launch(p1, {1, 1, 1}, {32, 1, 1});
    b.launch(p1, {1, 1, 1}, {32, 1, 1});
    b.launch(p2, {1, 1, 1}, {32, 1, 1});
    EXPECT_EQ(b.build().distinctPrograms(), 2u);
}

TEST(Archetypes, AllBuildValidPrograms)
{
    Rng rng(42);
    std::vector<ProgramPtr> ps = {
        pka::workload::archetypes::compute("c", rng),
        pka::workload::archetypes::gemmTile("g", rng, false),
        pka::workload::archetypes::gemmTile("gt", rng, true),
        pka::workload::archetypes::convTile("cv", rng, false),
        pka::workload::archetypes::elementwise("e", rng),
        pka::workload::archetypes::reduction("r", rng),
        pka::workload::archetypes::stencil("st", rng),
        pka::workload::archetypes::graphTraversal("gr", rng),
        pka::workload::archetypes::sparse("sp", rng),
        pka::workload::archetypes::atomicHistogram("h", rng),
        pka::workload::archetypes::rnnCell("rn", rng, false),
        pka::workload::archetypes::dataMovement("dm", rng),
    };
    for (const auto &p : ps) {
        EXPECT_FALSE(p->body.empty()) << p->name;
        EXPECT_GE(p->sectorsPerAccess, 1.0) << p->name;
        EXPECT_LE(p->sectorsPerAccess, 32.0) << p->name;
        EXPECT_GT(p->divergenceEff, 0.0) << p->name;
        EXPECT_LE(p->divergenceEff, 1.0) << p->name;
        EXPECT_GT(p->instrsPerIteration(), 0u) << p->name;
    }
}

TEST(Archetypes, TensorVariantUsesTensorCores)
{
    Rng rng(1);
    auto tc = pka::workload::archetypes::gemmTile("t", rng, true);
    auto cc = pka::workload::archetypes::gemmTile("c", rng, false);
    EXPECT_GT(tc->classInstrsPerIteration(InstrClass::Tensor), 0u);
    EXPECT_EQ(cc->classInstrsPerIteration(InstrClass::Tensor), 0u);
}

TEST(Suites, RegistryHas147)
{
    EXPECT_EQ(allWorkloads().size(), 147u);
}

TEST(Suites, SuiteSizesMatchPaper)
{
    std::unordered_map<std::string, int> counts;
    for (const auto &w : allWorkloads())
        ++counts[w.suite];
    EXPECT_EQ(counts["rodinia"], 28);
    EXPECT_EQ(counts["parboil"], 8);
    EXPECT_EQ(counts["polybench"], 15);
    EXPECT_EQ(counts["cutlass"], 20);
    EXPECT_EQ(counts["deepbench"], 69);
    EXPECT_EQ(counts["mlperf"], 7);
}

TEST(Suites, UniqueNames)
{
    std::set<std::string> names;
    for (const auto &w : allWorkloads())
        EXPECT_TRUE(names.insert(w.name).second) << w.name;
}

TEST(Suites, DeterministicAcrossBuilds)
{
    auto a = allWorkloads();
    auto b = allWorkloads();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].name, b[i].name);
        EXPECT_EQ(a[i].seed, b[i].seed);
        ASSERT_EQ(a[i].launches.size(), b[i].launches.size()) << a[i].name;
        EXPECT_EQ(a[i].totalWarpInstructions(),
                  b[i].totalWarpInstructions())
            << a[i].name;
    }
}

TEST(Suites, PaperLaunchStructures)
{
    auto get = [](const std::string &n) {
        auto w = buildWorkload(n);
        EXPECT_TRUE(w.has_value()) << n;
        return *w;
    };
    // gaussian on a 208x208 matrix: 2 kernels x 207 rounds.
    EXPECT_EQ(get("gauss_208").launches.size(), 414u);
    // bfs65536: 20 near-uniform launches (Table 3: one group of 20).
    EXPECT_EQ(get("bfs65536").launches.size(), 20u);
    // Parboil histo: 4 kernels x 20 iterations.
    EXPECT_EQ(get("histo").launches.size(), 80u);
    // Parboil cutcp: launch counts 2/3/6 across 3 kernels.
    EXPECT_EQ(get("cutcp").launches.size(), 11u);
    // fdtd2d: 3 kernels x 500 steps.
    EXPECT_EQ(get("fdtd2d").launches.size(), 1500u);
    // gramschmidt: 3 kernels x 2137 column steps = 6411.
    EXPECT_EQ(get("gramschmidt").launches.size(), 6411u);
    // CUTLASS: 7 repetitions of one tuned kernel.
    EXPECT_EQ(get("sgemm_2560x128x2560").launches.size(), 7u);
    EXPECT_EQ(get("sgemm_2560x128x2560").distinctPrograms(), 1u);
}

TEST(Suites, MlperfScalesWithOption)
{
    GenOptions small;
    small.mlperfScale = 0.005;
    GenOptions large;
    large.mlperfScale = 0.02;
    auto ws = buildWorkload("ssd_training", small);
    auto wl = buildWorkload("ssd_training", large);
    ASSERT_TRUE(ws && wl);
    EXPECT_LT(ws->launches.size(), wl->launches.size());
    EXPECT_DOUBLE_EQ(ws->scale, 0.005);
}

TEST(Suites, MlperfCarriesTensorDims)
{
    auto w = buildWorkload("bert_inference", GenOptions{.mlperfScale = 0.002});
    ASSERT_TRUE(w);
    size_t with_dims = 0;
    for (const auto &k : w->launches)
        with_dims += !k.tensorDims.empty();
    EXPECT_EQ(with_dims, w->launches.size());
}

TEST(Suites, ClassicWorkloadsHaveNoTensorDims)
{
    auto w = buildWorkload("histo");
    ASSERT_TRUE(w);
    for (const auto &k : w->launches)
        EXPECT_TRUE(k.tensorDims.empty());
}

TEST(Suites, ProfilerSensitivity)
{
    EXPECT_TRUE(isProfilerSensitive("myocyte"));
    EXPECT_TRUE(isProfilerSensitive("conv_train_in3"));
    EXPECT_FALSE(isProfilerSensitive("conv_train_tc_in3"));
    EXPECT_FALSE(isProfilerSensitive("gauss_208"));
}

TEST(Suites, ProfiledVariantChangesSensitiveCounts)
{
    GenOptions plain, prof;
    prof.underProfiler = true;
    auto t = buildWorkload("myocyte", plain);
    auto p = buildWorkload("myocyte", prof);
    ASSERT_TRUE(t && p);
    EXPECT_NE(t->launches.size(), p->launches.size());

    auto t2 = buildWorkload("gauss_208", plain);
    auto p2 = buildWorkload("gauss_208", prof);
    EXPECT_EQ(t2->launches.size(), p2->launches.size());
}

TEST(Suites, UnknownNameReturnsNullopt)
{
    EXPECT_FALSE(buildWorkload("not_a_workload").has_value());
}

TEST(Suites, ResnetUsesFigure4KernelNames)
{
    auto w = buildWorkload("resnet50_64b", GenOptions{.mlperfScale = 0.002});
    ASSERT_TRUE(w);
    std::set<std::string> names;
    for (const auto &k : w->launches)
        names.insert(k.program->name);
    for (const char *expect :
         {"sgemm", "winograd_big", "genWinograd", "implicit_con",
          "tiny_relu_1", "bn_fw_inf", "MaxPool2D", "somax_fw",
          "SimpleBinary", "RowwiseBinary", "splitKreduce", "gemv2N"})
        EXPECT_TRUE(names.count(expect)) << expect;
}

TEST(Registry, LazyBuildEqualsAllWorkloadsEntry)
{
    // Every name, built on its own, must equal its entry in the full
    // suite-order materialisation, launch by launch; the combined digest
    // pins the whole registry to the generators' historical output.
    pka::sim::Fnv all;
    for (const auto &w : allWorkloads()) {
        auto one = buildWorkload(w.name);
        ASSERT_TRUE(one.has_value()) << w.name;
        EXPECT_EQ(workloadDigest(*one), workloadDigest(w)) << w.name;
        all.u64(workloadDigest(w));
    }
    EXPECT_EQ(all.h, 0xfd1d7163051cc6bbULL) << std::hex << all.h;
}

TEST(Registry, MlperfLazyBuildsPinnedAtScale)
{
    struct Pin
    {
        const char *name;
        uint64_t at002;
        uint64_t at03;
    };
    const Pin pins[] = {
        {"bert_inference", 0x986c9c7fc0a3f0abULL, 0x0f52c6132b899cc8ULL},
        {"ssd_training", 0x00ee8828fc8dd2d6ULL, 0x15b1b9daaefcb2f0ULL},
        {"resnet50_64b", 0xc5aa7c2cf0f516beULL, 0x2809622caed2e493ULL},
        {"resnet50_128b", 0xdf3a281aef83fb20ULL, 0xcecefb00681740c3ULL},
        {"resnet50_256b", 0x37edce6b2d44ca22ULL, 0xbb01c350a0f475b0ULL},
        {"gnmt_training", 0x54697b0c5a8edcc8ULL, 0x5f95a54ea85683c7ULL},
        {"unet3d_inference", 0x7262527fe562dcb7ULL, 0xc88ddba8e82a3dadULL},
    };
    for (const Pin &p : pins) {
        auto small = buildWorkload(p.name, GenOptions{.mlperfScale = 0.02});
        ASSERT_TRUE(small.has_value()) << p.name;
        EXPECT_EQ(workloadDigest(*small), p.at002)
            << p.name << std::hex << " 0x" << workloadDigest(*small);
        small.reset();
        auto large = buildWorkload(p.name, GenOptions{.mlperfScale = 0.3});
        ASSERT_TRUE(large.has_value()) << p.name;
        EXPECT_EQ(workloadDigest(*large), p.at03)
            << p.name << std::hex << " 0x" << workloadDigest(*large);
    }
}

TEST(Registry, UnderProfilerBuildEqualsTracedUnlessSensitive)
{
    // The CLI builds one stream for both roles whenever the workload is
    // not profiler-sensitive; that is only sound if the two builds agree.
    GenOptions prof;
    prof.underProfiler = true;
    size_t sensitive = 0;
    for (const auto &w : allWorkloads()) {
        auto p = buildWorkload(w.name, prof);
        ASSERT_TRUE(p.has_value()) << w.name;
        if (isProfilerSensitive(w.name)) {
            ++sensitive;
            EXPECT_NE(p->launches.size(), w.launches.size()) << w.name;
            continue;
        }
        EXPECT_EQ(workloadDigest(*p), workloadDigest(w)) << w.name;
    }
    EXPECT_EQ(sensitive, 6u); // myocyte + conv_train_in0..4
}

TEST(Detail, StableHashIsStable)
{
    EXPECT_EQ(detail::stableHash("abc"), detail::stableHash("abc"));
    EXPECT_NE(detail::stableHash("abc"), detail::stableHash("abd"));
    // Regression-pin the FNV-1a value so it never drifts across builds.
    EXPECT_EQ(detail::stableHash(""), 1469598103934665603ULL);
}

/** Every workload must be launchable: positive sizes, valid programs. */
class AllWorkloadsValid : public ::testing::TestWithParam<int>
{
};

TEST_P(AllWorkloadsValid, StructurallySound)
{
    static auto all = allWorkloads();
    const Workload &w = all[GetParam()];
    EXPECT_FALSE(w.launches.empty());
    for (const auto &k : w.launches) {
        ASSERT_NE(k.program, nullptr);
        EXPECT_GT(k.numCtas(), 0u);
        EXPECT_GT(k.threadsPerCta(), 0u);
        EXPECT_LE(k.threadsPerCta(), 1024u);
        EXPECT_GE(k.iterations, 1u);
        EXPECT_GE(k.ctaWorkCv, 0.0);
    }
}

INSTANTIATE_TEST_SUITE_P(Registry, AllWorkloadsValid,
                         ::testing::Range(0, 147));
