/**
 * @file
 * Feature engineering for Principal Kernel Selection and the two-level
 * classification stage: detailed (Table-2 counter) features and
 * lightweight (name/dims/tensor-annotation) features.
 */

#ifndef PKA_CORE_FEATURES_HH
#define PKA_CORE_FEATURES_HH

#include <array>
#include <vector>

#include "ml/matrix.hh"
#include "silicon/profiler.hh"

namespace pka::core
{

/**
 * Detailed feature matrix from Nsight-Compute-style profiles: count-like
 * counters are log1p-transformed (kernel magnitudes span many decades) and
 * the result is meant to be standardized before PCA.
 */
ml::Matrix detailedFeatures(const std::vector<silicon::DetailedProfile> &ps);

/** Number of lightweight features per kernel. */
constexpr size_t kLightFeatureCount = 10;

/**
 * Lightweight feature vector: hashed kernel-name embedding (4 dims),
 * log grid/block sizes, grid shape, and a PyProf tensor-dims summary.
 * Available for every launch, including the detailed-profiled prefix.
 */
std::vector<double> lightFeatureVector(const silicon::LightProfile &p);

/** lightFeatureVector as a fixed-size array, without an allocation. It
 *  is a pure function of the name, grid/block and tensor dims. */
std::array<double, kLightFeatureCount>
lightFeatureArray(const silicon::LightProfile &p);

/** Lightweight feature matrix over a profile list. */
ml::Matrix lightFeatures(const std::vector<silicon::LightProfile> &ps);

} // namespace pka::core

#endif // PKA_CORE_FEATURES_HH
