/**
 * @file
 * Store-side accounting. The store keeps its own atomic counters
 * (thread-safe: the engine probes it from every pool worker) and hands
 * out plain snapshots for reporting — the CLI's --store-stats and the
 * bench JSON both print a StoreStatsSnapshot.
 */

#ifndef PKA_STORE_STATS_HH
#define PKA_STORE_STATS_HH

#include <atomic>
#include <cstdint>

namespace pka::store
{

/** Point-in-time copy of a store's counters. */
struct StoreStatsSnapshot
{
    uint64_t hits = 0;           ///< lookups answered from disk
    uint64_t misses = 0;         ///< lookups with no record on disk
    uint64_t corruptSkipped = 0; ///< records rejected (CRC/header/size)
    uint64_t keyMismatches = 0;  ///< hash collided, key echo differed
    uint64_t puts = 0;           ///< records written
    uint64_t putFailures = 0;    ///< writes that failed (warned, not fatal)
    uint64_t ioRetries = 0;      ///< transient I/O failures retried
    uint64_t retryExhausted = 0; ///< operations that failed every attempt
    uint64_t orphansSwept = 0;   ///< staging debris removed
    uint64_t bytesRead = 0;
    uint64_t bytesWritten = 0;

    /** 1 when the store hit a permanent write failure (ENOSPC, read-only
     *  filesystem) and degraded to compute-through: reads continue, all
     *  further writes are skipped instead of retried. */
    uint64_t degraded = 0;
    uint64_t putsSkippedDegraded = 0; ///< puts dropped while degraded
    uint64_t evictedRecords = 0; ///< records removed by the disk budget
    uint64_t evictedBytes = 0;   ///< bytes reclaimed by the disk budget

    /** Disk hit rate in percent (0 when nothing was looked up). */
    double hitRatePct() const
    {
        uint64_t total = hits + misses + corruptSkipped + keyMismatches;
        return total == 0 ? 0.0
                          : 100.0 * static_cast<double>(hits) /
                                static_cast<double>(total);
    }
};

/** Atomic counters shared by every thread probing one store. Publish
 *  failures, sweeps and degradation are counted by its DurableDir. */
struct StoreStats
{
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> corruptSkipped{0};
    std::atomic<uint64_t> keyMismatches{0};
    std::atomic<uint64_t> puts{0};
    std::atomic<uint64_t> ioRetries{0};
    std::atomic<uint64_t> retryExhausted{0};
    std::atomic<uint64_t> bytesRead{0};
    std::atomic<uint64_t> bytesWritten{0};
    std::atomic<uint64_t> evictedRecords{0};
    std::atomic<uint64_t> evictedBytes{0};

    StoreStatsSnapshot snapshot() const
    {
        StoreStatsSnapshot s;
        s.hits = hits.load(std::memory_order_relaxed);
        s.misses = misses.load(std::memory_order_relaxed);
        s.corruptSkipped = corruptSkipped.load(std::memory_order_relaxed);
        s.keyMismatches = keyMismatches.load(std::memory_order_relaxed);
        s.puts = puts.load(std::memory_order_relaxed);
        s.ioRetries = ioRetries.load(std::memory_order_relaxed);
        s.retryExhausted = retryExhausted.load(std::memory_order_relaxed);
        s.bytesRead = bytesRead.load(std::memory_order_relaxed);
        s.bytesWritten = bytesWritten.load(std::memory_order_relaxed);
        s.evictedRecords = evictedRecords.load(std::memory_order_relaxed);
        s.evictedBytes = evictedBytes.load(std::memory_order_relaxed);
        return s;
    }
};

} // namespace pka::store

#endif // PKA_STORE_STATS_HH
