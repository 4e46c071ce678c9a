/**
 * @file
 * The one durable-file primitive under both persistent result tiers (the
 * exact record store and the similarity tier's signature index). A
 * DurableDir is a directory of files named by the 64-bit hash of the key
 * each one stores, sharded 256 ways on the hash's first byte:
 *
 *   <root>/<hh>/<hash16><ext>            — a published file
 *   <root>/<hh>/<hash16>.<pid>.<n>.tmp   — a writer's staging file
 *
 * publish() stages the bytes next to their destination and renames them
 * into place, so a concurrent reader sees either the old file or the
 * complete new one, never a torn write. The rename never leaves its
 * directory: on ext4 a cross-directory rename takes a filesystem-wide
 * lock that serializes every parallel publisher. Racing writers of one
 * key write identical bytes (results are deterministic), so
 * last-rename-wins is safe.
 *
 * A transient write failure is retried kIoAttempts times with
 * exponential backoff from a fresh staging file. A permanent one (disk
 * full, quota, read-only or permission-denied filesystem, a path
 * component replaced by a file — real or injected through the
 * "store.write" fault site's `enospc` kind) is never retried: the
 * directory degrades once, warns once, and drops every later publish.
 *
 * Staging debris a killed writer left in a shard is swept on this
 * process's first publish into that shard, so opening a directory stays
 * O(1) in its file count; a full walk() sweeps every shard on the way.
 * Debris in a shard nothing publishes to stays until `pka fsck --repair`.
 * The sweep spares this process's own staging files; a writer in another
 * live process that shares the directory can lose one attempt to it,
 * which its retry absorbs.
 *
 * Reads stay with the tiers: the exact store retries a failed read while
 * the signature index skips the entry, and each owns its codec.
 */

#ifndef PKA_STORE_DURABLE_DIR_HH
#define PKA_STORE_DURABLE_DIR_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>

namespace pka::store
{

/** 16-hex-digit lowercase rendering of a 64-bit hash. */
std::string hex16(uint64_t v);

/** Exponential backoff before 0-based retry `r`: 1, 2, 4, ... ms. */
void ioBackoff(unsigned r);

/** Whole-file read; false when the file cannot be opened or read. */
bool readFile(const std::string &path, std::string *out);

/**
 * Move `path` into `quarantineDir` (created as needed), uniquified on a
 * name collision. Quarantine keeps the bytes for post-mortem — fsck
 * never deletes what it cannot verify. False when the move failed.
 */
bool quarantineFile(const std::string &quarantineDir,
                    const std::string &path);

/** Write-side counters of one durable directory. */
struct DurableDirStats
{
    uint64_t ioRetries = 0;       ///< transient write failures retried
    uint64_t failures = 0;        ///< publishes that persisted nothing
    uint64_t retryExhausted = 0;  ///< of those, failed every attempt
    uint64_t skippedDegraded = 0; ///< publishes dropped while degraded
    uint64_t orphansSwept = 0;    ///< staging debris removed
    uint64_t degraded = 0;        ///< 1 after a permanent write failure
};

/** What one fsck scrub of a durable directory found (and did). */
struct ScrubTally
{
    uint64_t scanned = 0;
    uint64_t valid = 0;      ///< intact and reachable (after repair)
    uint64_t validBytes = 0; ///< bytes of those files
    uint64_t misnamed = 0;   ///< intact, but not at its key's path
    uint64_t renamed = 0;    ///< misnamed files moved into place
    uint64_t quarantined = 0;
};

/** A hash-named, atomically published directory of files. */
class DurableDir
{
  public:
    /** Attempts per publish before a transient failure is final. */
    static constexpr unsigned kIoAttempts = 3;

    /** Backoff before retry r (0-based) in milliseconds: 1, 2, 4, ... */
    static constexpr unsigned kIoBackoffBaseMs = 1;

    /**
     * Open (creating it as needed) the directory `root` whose published
     * files carry extension `ext` (".pkr"). `what` names the tier in
     * warnings and errors. Throws common::TaskException(kStoreIo) when
     * the root cannot be created.
     */
    DurableDir(std::string root, std::string ext, std::string what);

    /** The directory root. */
    const std::string &root() const { return root_; }

    /** Path of the published file of `hash`. */
    std::string path(uint64_t hash) const;

    /**
     * Atomically publish `bytes` as the file of `hash` (see the file
     * comment for retries and degradation). Never throws except for an
     * injected `throw` fault. True when the bytes reached their path.
     */
    bool publish(uint64_t hash, const std::string &bytes) const;

    /** True once a permanent write failure disabled publishing. */
    bool degraded() const
    {
        return degraded_.load(std::memory_order_relaxed);
    }

    /** Counters snapshot. */
    DurableDirStats stats() const;

    /**
     * Visit every published file in directory order with the hash its
     * name carries, sweeping staging debris on the way (counted in
     * orphansSwept) so no later publish sweeps a shard again.
     */
    void walk(const std::function<void(const std::string &path,
                                       uint64_t nameHash)> &visit) const;

    /**
     * fsck's scrub of the directory at `root`: pass every file with
     * extension `ext`, in path order, to `keyHashOf` (unreadable files
     * as empty bytes), which returns the key hash of intact bytes or
     * nullopt after counting and reporting why they cannot be trusted.
     * With `repair`, rejected files are quarantined and intact ones not
     * at their key's path are renamed into place. Creates nothing when
     * not repairing; a missing root scrubs as empty.
     */
    static ScrubTally
    scrub(const std::string &root, const std::string &ext, bool repair,
          const std::string &quarantineDir,
          const std::function<std::optional<uint64_t>(
              const std::string &path, const std::string &bytes)>
              &keyHashOf);

  private:
    /** One attempt from a fresh staging file: 0, or the errno that
     *  failed it (EIO when the failure carries none). */
    int tryPublish(uint64_t hash, const std::string &bytes,
                   const std::string &dest) const;

    /** Remove the staging debris of one shard, once per process. */
    void sweepShardOnce(uint64_t hash, const std::string &shardDir) const;

    /** Count (and warn about) debris removed under `where`. */
    void noteSwept(uint64_t swept, const std::string &where) const;

    /** Flip into degraded mode (idempotent, warns once). */
    void markDegraded(const std::string &why) const;

    std::string root_;
    std::string ext_;
    std::string what_;

    mutable std::array<std::atomic<bool>, 256> shardSwept_{};
    mutable std::atomic<bool> degraded_{false};
    mutable std::atomic<uint64_t> ioRetries_{0};
    mutable std::atomic<uint64_t> failures_{0};
    mutable std::atomic<uint64_t> retryExhausted_{0};
    mutable std::atomic<uint64_t> skippedDegraded_{0};
    mutable std::atomic<uint64_t> orphansSwept_{0};
};

} // namespace pka::store

#endif // PKA_STORE_DURABLE_DIR_HH
