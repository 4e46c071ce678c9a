/**
 * @file
 * Internal helpers shared by the suite generators. Not part of the public
 * API.
 */

#ifndef PKA_WORKLOAD_DETAIL_HH
#define PKA_WORKLOAD_DETAIL_HH

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "common/rng.hh"
#include "workload/suites.hh"

namespace pka::workload::detail
{

/** FNV-1a: a stable (cross-run, cross-platform) string hash for seeding. */
inline uint64_t
stableHash(std::string_view s)
{
    uint64_t h = 1469598103934665603ULL;
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
    }
    return h;
}

/** Per-workload deterministic generator. */
inline pka::common::Rng
workloadRng(std::string_view suite, std::string_view name)
{
    return pka::common::Rng::forKey(stableHash(suite), stableHash(name));
}

/** Parameter types of a registry generator, for terse table rows. */
using NameArg = const std::string &;
using OptsArg = const GenOptions &;

/** Adapt a generator that takes no arguments to the registry signature. */
template <Workload (*Fn)()>
Workload
fixed(NameArg, OptsArg)
{
    return Fn();
}

/** Per-suite registry tables, concatenated by workloadRegistry(). */
std::span<const WorkloadEntry> rodiniaEntries();
std::span<const WorkloadEntry> parboilEntries();
std::span<const WorkloadEntry> polybenchEntries();
std::span<const WorkloadEntry> cutlassEntries();
std::span<const WorkloadEntry> deepbenchEntries();
std::span<const WorkloadEntry> mlperfEntries();

} // namespace pka::workload::detail

#endif // PKA_WORKLOAD_DETAIL_HH
