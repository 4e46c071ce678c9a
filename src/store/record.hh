/**
 * @file
 * Binary codec for one persisted kernel-simulation result. A record is a
 * fixed-size byte string:
 *
 *   magic 'PKR1' | format version | full KernelSimKey echo |
 *   KernelSimResult payload | CRC-32 of everything before it
 *
 * The key echo is the collision/schema-drift guard: records are *named*
 * by the 64-bit key hash, but a lookup only counts as a hit when every
 * echoed key field matches the requested key exactly, so a hash collision
 * or a stale record from an older key schema can never manufacture a
 * false hit. Decoding never trusts the input — wrong magic, version,
 * size or CRC all classify as kCorrupt, which callers treat as "record
 * absent".
 *
 * Traced results (non-empty KernelSimResult::trace) are not encodable:
 * the engine already excludes traced runs from caching, and the codec
 * asserts that invariant rather than silently dropping the payload.
 */

#ifndef PKA_STORE_RECORD_HH
#define PKA_STORE_RECORD_HH

#include <cstdint>
#include <string>

#include "sim/engine.hh"
#include "sim/simulator.hh"

namespace pka::store
{

/** File extension of a published record. */
inline constexpr const char *kRecordExt = ".pkr";

/** Exact on-disk size of a v1 record in bytes. */
constexpr size_t kRecordSize =
    4 + 4 +                  // magic + version
    7 * 8 + 3 * 4 +          // key echo: 7 u64 + 2 u32 + scheduler
    8 * 8 + 2 * 4 + 2 * 8 +  // payload: 8 u64 + 2 flag u32 + 2 f64
    4;                       // CRC-32

/** Serialize a key/result pair into record bytes. */
std::string encodeRecord(const sim::KernelSimKey &key,
                         const sim::KernelSimResult &result);

/** Outcome of decoding a candidate record. */
enum class DecodeStatus
{
    kOk,          ///< record valid and key echo matches `want`
    kCorrupt,     ///< bad magic/version/size or CRC mismatch
    kKeyMismatch, ///< record valid but written for a different key
};

/**
 * Validate `data` and, when it matches `want`, fill `*out` with the
 * stored result (trace empty by construction).
 */
DecodeStatus decodeRecord(const void *data, size_t size,
                          const sim::KernelSimKey &want,
                          sim::KernelSimResult *out);

/**
 * Validate `data` without a wanted key — the scrubbing path (`pka
 * fsck`), which must verify records it has no lookup key for. Fills
 * `*key` with the stored key echo and `*out` with the payload; never
 * returns kKeyMismatch (the caller compares the echoed key's hash
 * against the record's filename itself).
 */
DecodeStatus decodeRecordAny(const void *data, size_t size,
                             sim::KernelSimKey *key,
                             sim::KernelSimResult *out);

} // namespace pka::store

#endif // PKA_STORE_RECORD_HH
