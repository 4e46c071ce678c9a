#include "core/two_level.hh"

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>
#include <memory>
#include <unordered_map>

#include "common/logging.hh"
#include "core/features.hh"
#include "ml/gaussian_nb.hh"
#include "ml/mlp_classifier.hh"
#include "ml/pca.hh"
#include "ml/scaler.hh"
#include "ml/sgd_classifier.hh"

namespace pka::core
{

using silicon::DetailedProfile;
using silicon::LightProfile;

TwoLevelResult
twoLevelSelection(const std::vector<DetailedProfile> &detailed,
                  const std::vector<LightProfile> &light,
                  const TwoLevelOptions &options)
{
    PKA_ASSERT(!detailed.empty(), "two-level needs a detailed prefix");
    PKA_ASSERT(light.size() >= detailed.size(),
               "light profiles must cover the whole stream");

    TwoLevelResult res;
    res.detailedCount = detailed.size();
    res.prefixSelection = principalKernelSelection(detailed, options.pks);
    res.groups = res.prefixSelection.groups;
    const uint32_t num_groups =
        static_cast<uint32_t>(res.groups.size());

    // Index detailed-prefix labels by position (labels are per profile,
    // but the PksResult's label values index clusters pre-compaction; map
    // through group membership instead).
    std::vector<uint32_t> prefix_labels(detailed.size(), 0);
    {
        std::vector<int32_t> by_launch;
        for (uint32_t g = 0; g < num_groups; ++g)
            for (uint32_t m : res.groups[g].members) {
                if (m >= by_launch.size())
                    by_launch.resize(m + 1, -1);
                by_launch[m] = static_cast<int32_t>(g);
            }
        for (size_t i = 0; i < detailed.size(); ++i) {
            int32_t g = detailed[i].launchId < by_launch.size()
                            ? by_launch[detailed[i].launchId]
                            : -1;
            PKA_ASSERT(g >= 0, "detailed profile missing from groups");
            prefix_labels[i] = static_cast<uint32_t>(g);
        }
    }

    // Profiles are matched to the stream by launch id, so a screened
    // (gappy) prefix is legal: uncovered launches are classified below.
    res.labels.assign(light.size(), 0);
    std::vector<uint8_t> covered(light.size(), 0);
    for (size_t i = 0; i < detailed.size(); ++i) {
        uint32_t id = detailed[i].launchId;
        PKA_ASSERT(id < light.size(),
                   "detailed launch id outside the light stream");
        res.labels[id] = prefix_labels[i];
        covered[id] = 1;
    }
    size_t uncovered = 0;
    for (uint8_t c : covered)
        uncovered += c ? 0 : 1;

    if (uncovered == 0 || num_groups == 1) {
        // Nothing to classify, or a single group absorbs everything.
        for (size_t i = 0; i < light.size(); ++i) {
            if (covered[i])
                continue;
            res.labels[i] = 0;
            res.groups[0].members.push_back(light[i].launchId);
            res.groups[0].weight += 1.0;
        }
        return res;
    }

    // Train the ensemble on the prefix's light features.
    ml::Matrix train_raw(detailed.size(), kLightFeatureCount);
    for (size_t i = 0; i < detailed.size(); ++i) {
        auto v = lightFeatureArray(light[detailed[i].launchId]);
        for (size_t c = 0; c < kLightFeatureCount; ++c)
            train_raw.at(i, c) = v[c];
    }
    ml::StandardScaler scaler;
    ml::Matrix train = scaler.fitTransform(train_raw);

    std::array<std::unique_ptr<ml::Classifier>, 3> models = {
        std::make_unique<ml::SgdClassifier>(),
        std::make_unique<ml::GaussianNb>(),
        std::make_unique<ml::MlpClassifier>(),
    };
    for (auto &m : models)
        m->fit(train, prefix_labels, num_groups);

    // Abstention fallback: nearest group centroid in a PCA space over
    // the training prefix. Fit lazily — the gate is off by default and
    // most streams never abstain.
    bool fallback_ready = false;
    ml::Pca fallback_pca;
    size_t fallback_ncomp = 0;
    ml::Matrix fallback_centroids;
    std::vector<double> fallback_counts;
    auto ensureFallback = [&]() {
        if (fallback_ready)
            return;
        fallback_ready = true;
        fallback_pca.fit(train);
        fallback_ncomp =
            fallback_pca.componentsForVariance(options.pks.pcaVariance);
        ml::Matrix P = fallback_pca.transform(train, fallback_ncomp);
        fallback_centroids = ml::Matrix(num_groups, fallback_ncomp);
        fallback_counts.assign(num_groups, 0.0);
        for (size_t i = 0; i < detailed.size(); ++i) {
            uint32_t g = prefix_labels[i];
            fallback_counts[g] += 1.0;
            for (size_t c = 0; c < fallback_ncomp; ++c)
                fallback_centroids.at(g, c) += P.at(i, c);
        }
        for (uint32_t g = 0; g < num_groups; ++g)
            if (fallback_counts[g] > 0)
                for (size_t c = 0; c < fallback_ncomp; ++c)
                    fallback_centroids.at(g, c) /= fallback_counts[g];
    };

    // The light feature vector is a pure function of (name, dims, tensor
    // dims), so the ensemble's decision is too: classify each distinct
    // vector once and look the rest up. Counters still accumulate once per
    // launch, in launch order, so every sum matches classifying each
    // launch afresh bit for bit.
    struct Outcome
    {
        std::array<uint32_t, 3> votes;
        uint32_t label;
        double confidence;
        bool abstained;
    };
    auto classify = [&](const std::array<double, kLightFeatureCount> &raw) {
        ml::Matrix x(1, kLightFeatureCount);
        for (size_t c = 0; c < kLightFeatureCount; ++c)
            x.at(0, c) = raw[c];
        x = scaler.transform(x);
        Outcome o;
        std::array<std::vector<double>, 3> probas;
        for (size_t mi = 0; mi < models.size(); ++mi) {
            o.votes[mi] = models[mi]->predict(x.row(0));
            probas[mi] = models[mi]->predictProba(x.row(0));
        }
        o.label = ml::majorityVote(o.votes);
        o.confidence = (probas[0][o.label] + probas[1][o.label] +
                        probas[2][o.label]) /
                       3.0;
        o.abstained = options.abstainThreshold > 0.0 &&
                      o.confidence < options.abstainThreshold;
        if (o.abstained) {
            ensureFallback();
            ml::Matrix p = fallback_pca.transform(x, fallback_ncomp);
            uint32_t best_g = 0;
            double best_d2 = std::numeric_limits<double>::max();
            for (uint32_t g = 0; g < num_groups; ++g) {
                if (!(fallback_counts[g] > 0))
                    continue;
                double d2 = ml::squaredDistance(
                    p.row(0), fallback_centroids.row(g));
                if (d2 < best_d2) { // strict <: ties keep the lowest id
                    best_d2 = d2;
                    best_g = g;
                }
            }
            o.label = best_g;
        }
        return o;
    };
    using FeatureBits = std::array<uint64_t, kLightFeatureCount>;
    struct FeatureBitsHash
    {
        size_t operator()(const FeatureBits &k) const
        {
            uint64_t h = 1469598103934665603ULL;
            for (uint64_t v : k)
                h = (h ^ v) * 1099511628211ULL;
            return static_cast<size_t>(h ^ (h >> 29));
        }
    };
    std::unordered_map<FeatureBits, Outcome, FeatureBitsHash> outcomes;

    size_t unanimous = 0;
    size_t classified = 0;
    double confidence_sum = 0.0;
    std::array<size_t, 3> disagreements{};
    for (size_t i = 0; i < light.size(); ++i) {
        if (covered[i])
            continue;
        const auto raw = lightFeatureArray(light[i]);
        FeatureBits key;
        std::memcpy(key.data(), raw.data(), sizeof key);
        auto it = outcomes.find(key);
        if (it == outcomes.end())
            it = outcomes.emplace(key, classify(raw)).first;
        const Outcome &o = it->second;

        if (o.votes[0] == o.votes[1] && o.votes[1] == o.votes[2])
            ++unanimous;
        ++classified;
        confidence_sum += o.confidence;
        if (o.abstained) {
            ++res.abstentions;
            ++res.fallbackMapped;
        }
        for (size_t mi = 0; mi < o.votes.size(); ++mi)
            if (o.votes[mi] != o.label)
                ++disagreements[mi];

        res.labels[i] = o.label;
        res.groups[o.label].members.push_back(light[i].launchId);
        res.groups[o.label].weight += 1.0;
    }
    const double denom =
        classified > 0 ? static_cast<double>(classified) : 1.0;
    res.ensembleUnanimity =
        classified > 0 ? static_cast<double>(unanimous) / denom : 1.0;
    res.meanEnsembleConfidence =
        classified > 0 ? confidence_sum / denom : 1.0;
    for (size_t mi = 0; mi < disagreements.size(); ++mi)
        res.perModelDisagreement[mi] =
            static_cast<double>(disagreements[mi]) / denom;
    return res;
}

common::Expected<TwoLevelResult>
twoLevelSelectionChecked(std::vector<DetailedProfile> detailed,
                         std::vector<LightProfile> light,
                         const TwoLevelOptions &options)
{
    auto bad = [](const char *msg) {
        common::TaskError e;
        e.kind = common::ErrorKind::kBadInput;
        e.message = msg;
        e.context = "twoLevelSelection";
        return e;
    };
    if (detailed.empty())
        return bad("two-level needs a detailed prefix");
    if (light.size() < detailed.size())
        return bad("light profiles must cover the whole stream");

    ProfileValidator validator(options.pks.validation);
    common::Expected<ValidationReport> drep =
        validator.screenDetailed(detailed);
    if (!drep.ok())
        return drep.error();
    if (detailed.empty())
        return bad("every detailed profile was excluded by validation");
    common::Expected<ValidationReport> lrep =
        validator.screenLight(light);
    if (!lrep.ok())
        return lrep.error();
    for (const auto &p : detailed)
        if (p.launchId >= light.size())
            return bad("detailed launch id outside the light stream");

    TwoLevelResult res = twoLevelSelection(detailed, light, options);
    res.prefixSelection.validation = drep.value();
    res.lightValidation = lrep.value();
    return res;
}

} // namespace pka::core
