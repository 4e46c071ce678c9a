/**
 * @file
 * The persistent content-addressed kernel-result store. One store maps a
 * KernelSimKey to a KernelSimResult through fixed-size binary records on
 * disk:
 *
 *   <root>/objects/<hh>/<hash16>.pkr   — hh = first hex byte of the key
 *                                        hash (256-way directory shard)
 *
 * The objects tree is a DurableDir (durable_dir.hh), which owns the
 * layout, the atomic publish, retries, degradation and the debris
 * sweep; this class keeps the record codec, the reads and the disk
 * budget. Reads re-verify everything (size, CRC, full key echo — see
 * record.hh): a corrupt or mismatched record is a warned-once miss,
 * never fatal.
 *
 * Thread-safe: lookups and insertions may run concurrently from every
 * engine pool worker. The store sits *under* SimEngine's in-memory cache
 * — the engine probes memory first, then disk, then simulates — so warm
 * re-runs of whole campaigns collapse to store reads.
 */

#ifndef PKA_STORE_FILE_STORE_HH
#define PKA_STORE_FILE_STORE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "sim/engine.hh"
#include "sim/simulator.hh"
#include "store/durable_dir.hh"
#include "store/stats.hh"

namespace pka::store
{

class SignatureIndex;

/** Outcome of one disk lookup. */
enum class Lookup
{
    kHit,     ///< valid record, key echo matched
    kMiss,    ///< no record on disk (or a collided record for another key)
    kCorrupt, ///< record present but failed validation (skipped)
};

/** Oldest-first (mtime) eviction of .pkr records under `root`/objects
 *  until their total size is <= `targetBytes`. Shared by the online
 *  disk budget and `pka fsck --store-budget-mb` compaction. Returns
 *  {files removed, bytes reclaimed}. */
std::pair<uint64_t, uint64_t>
evictOldestRecords(const std::string &root, uint64_t targetBytes);

/** Content-addressed on-disk result store rooted at one directory. */
class KernelResultStore
{
  public:
    /**
     * Open (creating directories as needed) a store rooted at `root`.
     * Opening is O(1) in the record count: staging debris a killed
     * writer left in a shard is swept by the first put into that shard
     * (counted in orphansSwept). Throws
     * common::TaskException(kStoreIo) when the root cannot be created —
     * the CLI layer converts that to a clean fatal(); library callers
     * (campaigns) may catch and degrade to an uncached run.
     *
     * With `similarity` the store also opens the similarity tier's
     * signature index under `<root>/sig/` (see sig_index.hh): the
     * engine then probes it on exact misses and serves projected
     * results. Off by default — an exact-only store never touches the
     * sig/ directory and stays byte-compatible with every prior run.
     */
    explicit KernelResultStore(std::string root, bool similarity = false);

    ~KernelResultStore(); // out-of-line: SignatureIndex is incomplete here

    KernelResultStore(const KernelResultStore &) = delete;
    KernelResultStore &operator=(const KernelResultStore &) = delete;

    /** The store's root directory. */
    const std::string &root() const { return root_; }

    /**
     * Look `key` up on disk. On kHit fills `*out`; kCorrupt means a
     * record existed but was rejected (already warned and counted). A
     * transient read failure (stream went bad mid-read, or an injected
     * store.read I/O fault) is retried DurableDir::kIoAttempts times with
     * exponential backoff, then degrades to kMiss — the engine simply
     * re-simulates, so an unreadable disk can slow a campaign but never
     * wedge or corrupt it.
     */
    Lookup get(const sim::KernelSimKey &key,
               sim::KernelSimResult *out) const;

    /**
     * Persist `result` under `key` through DurableDir::publish: atomic,
     * best-effort with bounded retries, never aborting the campaign. A
     * *permanent* failure degrades the store to compute-through
     * (degraded() becomes true, every further put is dropped and
     * counted) and the campaign simply keeps simulating.
     */
    void put(const sim::KernelSimKey &key,
             const sim::KernelSimResult &result) const;

    /** True once a permanent write failure disabled persistence; reads
     *  keep working, puts are dropped (compute-through mode). */
    bool degraded() const { return objects_.degraded(); }

    /**
     * Bound the cache directory to ~`bytes` of record data. Checked
     * after each put: when the (approximate) on-disk total exceeds the
     * budget, the oldest records are evicted down to 90% of it so
     * eviction runs in bursts, not on every write. 0 = unbounded.
     * Call before the campaign starts.
     */
    void setDiskBudgetBytes(uint64_t bytes);

    /**
     * Bound the similarity index's *resident* entry list (when the tier
     * is enabled) to ~`bytes` of memory, evicting oldest-first; the
     * on-disk .pks entries stay put and are picked up again on the next
     * open. No-op for exact-only stores. 0 = unbounded.
     */
    void setMemoryBudgetBytes(uint64_t bytes);

    /** Counters snapshot (hits/misses/corrupt/puts/bytes). */
    StoreStatsSnapshot stats() const;

    /** The similarity tier's signature index; nullptr when disabled. */
    const SignatureIndex *similarity() const { return sigIndex_.get(); }

    /** Number of record files currently on disk (walks the tree). */
    uint64_t recordCount() const;

    /** Total bytes of record files currently on disk. */
    uint64_t recordBytes() const;

  private:
    /** One read attempt; sets *transient when a retry could succeed. */
    Lookup tryGet(const std::string &path, const sim::KernelSimKey &key,
                  sim::KernelSimResult *out, bool *transient) const;

    /** Evict down to 90% of the disk budget when over it. */
    void maybeEvict() const;

    std::string root_;
    DurableDir objects_;
    mutable StoreStats stats_;
    uint64_t diskBudgetBytes_ = 0;
    mutable std::atomic<uint64_t> approxDiskBytes_{0};
    mutable std::mutex evictMu_;
    std::unique_ptr<SignatureIndex> sigIndex_;
};

} // namespace pka::store

#endif // PKA_STORE_FILE_STORE_HH
