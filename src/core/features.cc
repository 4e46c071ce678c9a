#include "core/features.hh"

#include <cmath>
#include <cstdint>

namespace pka::core
{

using silicon::DetailedProfile;
using silicon::KernelMetrics;
using silicon::LightProfile;

ml::Matrix
detailedFeatures(const std::vector<DetailedProfile> &ps)
{
    ml::Matrix X(ps.size(), KernelMetrics::kCount);
    for (size_t r = 0; r < ps.size(); ++r) {
        auto a = ps[r].metrics.toArray();
        for (size_t c = 0; c < KernelMetrics::kCount; ++c) {
            // divergence_eff (index 10) is already bounded; counts are
            // log-compressed so magnitude differences do not drown
            // behavioural differences.
            X.at(r, c) = c == 10 ? a[c] : std::log1p(a[c]);
        }
    }
    return X;
}

namespace
{

/** FNV-1a, reduced to 4 pseudo-continuous embedding dims in [0, 1). */
void
nameEmbedding(const std::string &name, double out[4])
{
    uint64_t h = 1469598103934665603ULL;
    for (char ch : name) {
        h ^= static_cast<unsigned char>(ch);
        h *= 1099511628211ULL;
    }
    for (int i = 0; i < 4; ++i) {
        out[i] = static_cast<double>((h >> (i * 16)) & 0xFFFF) / 65536.0;
    }
}

} // namespace

std::array<double, kLightFeatureCount>
lightFeatureArray(const LightProfile &p)
{
    double emb[4];
    nameEmbedding(p.kernelName, emb);

    double tensor_product = 1.0;
    for (uint32_t d : p.tensorDims)
        tensor_product *= static_cast<double>(d);

    return {
        emb[0],
        emb[1],
        emb[2],
        emb[3],
        std::log1p(static_cast<double>(p.grid.total())),
        std::log1p(static_cast<double>(p.block.total())),
        static_cast<double>(p.grid.y > 1 || p.grid.z > 1 ? 1 : 0),
        std::log1p(static_cast<double>(p.tensorDims.size())),
        std::log1p(p.tensorDims.empty() ? 0.0 : tensor_product),
        p.tensorDims.empty()
            ? 0.0
            : std::log1p(static_cast<double>(p.tensorDims.front())),
    };
}

std::vector<double>
lightFeatureVector(const LightProfile &p)
{
    auto a = lightFeatureArray(p);
    return {a.begin(), a.end()};
}

ml::Matrix
lightFeatures(const std::vector<LightProfile> &ps)
{
    ml::Matrix X(ps.size(), kLightFeatureCount);
    for (size_t r = 0; r < ps.size(); ++r) {
        auto v = lightFeatureArray(ps[r]);
        for (size_t c = 0; c < kLightFeatureCount; ++c)
            X.at(r, c) = v[c];
    }
    return X;
}

} // namespace pka::core
