/**
 * @file
 * Offline store scrubbing — the `pka fsck` core. A cache directory that
 * has served months of campaigns accumulates damage the online paths
 * only route around: bit-rotted records (skipped per lookup, re-paid
 * forever), torn journal tails, staging files from killed writers,
 * records renamed or restored under the wrong name. fsck walks the
 * whole tree once, CRC-verifies every record and signature entry
 * against its own key echo *and* its filename, and (in repair mode)
 * quarantines what cannot be trusted, renames what can be recovered,
 * truncates torn journal tails back to their last good line and sweeps
 * staging debris — so the next campaign starts from a store that is
 * verifiably sound instead of probabilistically so.
 *
 * Scrubbing is strictly offline: run it against a cache directory no
 * daemon or campaign currently has open. Nothing here takes the store's
 * locks because there is no store object — fsck operates on the bytes.
 */

#ifndef PKA_STORE_FSCK_HH
#define PKA_STORE_FSCK_HH

#include <cstdint>
#include <string>

namespace pka::store
{

/** What fsck is allowed to do to the tree. */
struct FsckOptions
{
    /** Fix what can be fixed: quarantine corrupt files (moved under
     *  `<root>/quarantine/`, never deleted), rename misnamed-but-valid
     *  records, truncate torn journal tails, remove orphaned staging
     *  files. False = report-only scan, the tree is not touched. */
    bool repair = false;

    /** When nonzero, compact the record tree to this many bytes by
     *  oldest-first eviction (implies mutation even without repair —
     *  only set it when the caller asked for compaction). */
    uint64_t budgetBytes = 0;
};

/** Everything one fsck pass found (and, in repair mode, did). */
struct FsckReport
{
    // Exact-record tier (<root>/objects/**/*.pkr)
    uint64_t recordsScanned = 0;
    uint64_t recordsValid = 0;
    uint64_t recordsCorrupt = 0;  ///< wrong size / magic / version / CRC
    uint64_t recordsMisnamed = 0; ///< valid record, filename != key hash
    uint64_t recordsRenamed = 0;  ///< misnamed records moved into place
    uint64_t recordBytes = 0;     ///< bytes of valid records after repair

    // Similarity tier (<root>/sig/**/*.pks)
    uint64_t sigScanned = 0;
    uint64_t sigValid = 0;
    uint64_t sigCorrupt = 0;
    uint64_t sigMisnamed = 0;
    uint64_t sigRenamed = 0;

    /** Intact v1 (pre-audit) entries read as unaudited; counted, never
     *  flagged — the online index migrates them on the next audit. */
    uint64_t sigLegacy = 0;

    /** Entries whose declared version disagrees with their length (or
     *  claims a future version) while the CRC still holds — a torn or
     *  mixed-version write. Rejected like corruption (quarantined in
     *  repair mode), but counted separately: version skew points at a
     *  writer bug, not bit rot. */
    uint64_t sigVersionSkew = 0;

    /** Corrupt/unrecoverable files moved under <root>/quarantine/. */
    uint64_t quarantinedFiles = 0;

    // Staging debris (<root>/**/*.tmp outside quarantine/)
    uint64_t tmpOrphans = 0; ///< found (and removed, in repair mode)

    // Journals (<root>/**/*.pkj)
    uint64_t journalsScanned = 0;
    uint64_t journalsTorn = 0;      ///< unreadable tail found
    uint64_t journalsTruncated = 0; ///< tails cut back to the good prefix
    uint64_t journalsBad = 0;       ///< header unreadable (quarantined)

    // Compaction (FsckOptions::budgetBytes)
    uint64_t evictedRecords = 0;
    uint64_t evictedBytes = 0;

    /** True when the scan found nothing wrong (ignoring compaction). */
    bool clean() const
    {
        return recordsCorrupt == 0 && recordsMisnamed == 0 &&
               sigCorrupt == 0 && sigMisnamed == 0 &&
               sigVersionSkew == 0 && tmpOrphans == 0 &&
               journalsTorn == 0 && journalsBad == 0;
    }
};

/**
 * Scrub the cache directory rooted at `root` (the same directory
 * KernelResultStore opens). Never throws on damage — damage is the
 * point — but an unreadable root yields an all-zero report.
 */
FsckReport fsckStore(const std::string &root, const FsckOptions &opts);

} // namespace pka::store

#endif // PKA_STORE_FSCK_HH
