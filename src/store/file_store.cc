#include "store/file_store.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <vector>

#include "common/error.hh"
#include "common/fault.hh"
#include "common/logging.hh"
#include "store/record.hh"
#include "store/sig_index.hh"

namespace fs = std::filesystem;

namespace pka::store
{

using pka::common::strfmt;
using pka::common::warnRateLimited;

namespace
{

/** {count, bytes} of the record files under the objects tree `dir`. */
std::pair<uint64_t, uint64_t>
recordUsage(const std::string &dir)
{
    uint64_t count = 0, bytes = 0;
    std::error_code ec;
    fs::recursive_directory_iterator it(dir, ec);
    if (ec)
        return {0, 0};
    for (const auto &entry : it)
        if (entry.is_regular_file(ec) &&
            entry.path().extension() == kRecordExt) {
            ++count;
            bytes += entry.file_size(ec);
        }
    return {count, bytes};
}

} // namespace

std::pair<uint64_t, uint64_t>
evictOldestRecords(const std::string &root, uint64_t targetBytes)
{
    struct Victim
    {
        fs::file_time_type mtime;
        uint64_t size;
        fs::path path;
    };
    std::vector<Victim> records;
    uint64_t total = 0;
    std::error_code ec;
    fs::recursive_directory_iterator it(fs::path(root) / "objects", ec);
    if (ec)
        return {0, 0};
    for (const auto &entry : it) {
        if (!entry.is_regular_file(ec) ||
            entry.path().extension() != kRecordExt)
            continue;
        uint64_t size = entry.file_size(ec);
        if (ec)
            continue;
        records.push_back({entry.last_write_time(ec), size, entry.path()});
        total += size;
    }
    if (total <= targetBytes)
        return {0, 0};
    // Oldest first; ties broken by path so eviction order is stable
    // across runs regardless of directory iteration order.
    std::sort(records.begin(), records.end(),
              [](const Victim &a, const Victim &b) {
                  if (a.mtime != b.mtime)
                      return a.mtime < b.mtime;
                  return a.path < b.path;
              });
    uint64_t files = 0, bytes = 0;
    for (const Victim &v : records) {
        if (total <= targetBytes)
            break;
        if (!fs::remove(v.path, ec))
            continue;
        total -= v.size;
        bytes += v.size;
        ++files;
    }
    return {files, bytes};
}

KernelResultStore::KernelResultStore(std::string root, bool similarity)
    : root_(std::move(root)),
      objects_((fs::path(root_) / "objects").string(), kRecordExt,
               "result store")
{
    if (similarity)
        sigIndex_ = std::make_unique<SignatureIndex>(
            (fs::path(root_) / "sig").string());
}

KernelResultStore::~KernelResultStore() = default;

StoreStatsSnapshot
KernelResultStore::stats() const
{
    StoreStatsSnapshot s = stats_.snapshot();
    DurableDirStats w = objects_.stats();
    s.ioRetries += w.ioRetries;
    s.retryExhausted += w.retryExhausted;
    s.putFailures = w.failures;
    s.orphansSwept = w.orphansSwept;
    s.degraded = w.degraded;
    s.putsSkippedDegraded = w.skippedDegraded;
    return s;
}

Lookup
KernelResultStore::tryGet(const std::string &path,
                          const sim::KernelSimKey &key,
                          sim::KernelSimResult *out, bool *transient) const
{
    *transient = false;
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        stats_.misses.fetch_add(1, std::memory_order_relaxed);
        return Lookup::kMiss;
    }
    // Over-read by one byte so a record with trailing junk fails the
    // size check instead of validating its prefix.
    std::string bytes(kRecordSize + 1, '\0');
    is.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    size_t got = static_cast<size_t>(is.gcount());
    if (is.bad()) {
        // The stream itself failed (not EOF): a retry may succeed.
        *transient = true;
        return Lookup::kMiss;
    }
    stats_.bytesRead.fetch_add(got, std::memory_order_relaxed);

    if (auto f = pka::common::faultAt("store.read",
                                      sim::kernelSimKeyHash(key))) {
        switch (*f) {
        case pka::common::FaultKind::kIoError:
        case pka::common::FaultKind::kDiskFull: // reads don't fill disks;
                                                // treat as a plain I/O fault
            *transient = true;
            return Lookup::kMiss;
        case pka::common::FaultKind::kCorrupt:
            bytes[0] = static_cast<char>(bytes[0] ^ 0xff);
            break;
        case pka::common::FaultKind::kShortWrite:
            got = got / 2;
            break;
        case pka::common::FaultKind::kHang:
            pka::common::FaultInjector::instance().hang(
                [] { return false; });
            break;
        case pka::common::FaultKind::kThrow:
            throw pka::common::TaskException(
                pka::common::ErrorKind::kStoreIo,
                strfmt("injected store read failure for '%s'",
                       path.c_str()));
        }
    }

    switch (decodeRecord(bytes.data(), got, key, out)) {
    case DecodeStatus::kOk:
        stats_.hits.fetch_add(1, std::memory_order_relaxed);
        return Lookup::kHit;
    case DecodeStatus::kKeyMismatch:
        // A 64-bit-hash collision (or a record keyed under an older
        // schema): not our result, so it is simply not a hit.
        stats_.keyMismatches.fetch_add(1, std::memory_order_relaxed);
        warnRateLimited(
            "store.keymismatch",
            strfmt("result store: key echo mismatch in '%s' (hash "
                   "collision or schema drift); treating as a miss",
                   path.c_str()));
        return Lookup::kMiss;
    case DecodeStatus::kCorrupt:
    default:
        stats_.corruptSkipped.fetch_add(1, std::memory_order_relaxed);
        warnRateLimited("store.corrupt",
                        strfmt("result store: skipping corrupt record "
                               "'%s' (%zu bytes)",
                               path.c_str(), got));
        return Lookup::kCorrupt;
    }
}

Lookup
KernelResultStore::get(const sim::KernelSimKey &key,
                       sim::KernelSimResult *out) const
{
    std::string path = objects_.path(sim::kernelSimKeyHash(key));
    for (unsigned attempt = 0;; ++attempt) {
        bool transient = false;
        Lookup r = tryGet(path, key, out, &transient);
        if (!transient)
            return r;
        if (attempt + 1 >= DurableDir::kIoAttempts) {
            stats_.retryExhausted.fetch_add(1, std::memory_order_relaxed);
            stats_.misses.fetch_add(1, std::memory_order_relaxed);
            warnRateLimited(
                "store.read",
                strfmt("result store: giving up reading '%s' after %u "
                       "attempts; re-simulating",
                       path.c_str(), DurableDir::kIoAttempts));
            return Lookup::kMiss;
        }
        stats_.ioRetries.fetch_add(1, std::memory_order_relaxed);
        ioBackoff(attempt);
    }
}

void
KernelResultStore::put(const sim::KernelSimKey &key,
                       const sim::KernelSimResult &result) const
{
    std::string bytes = encodeRecord(key, result);
    if (!objects_.publish(sim::kernelSimKeyHash(key), bytes))
        return;
    stats_.puts.fetch_add(1, std::memory_order_relaxed);
    stats_.bytesWritten.fetch_add(bytes.size(), std::memory_order_relaxed);
    approxDiskBytes_.fetch_add(bytes.size(), std::memory_order_relaxed);
    maybeEvict();
}

void
KernelResultStore::maybeEvict() const
{
    if (diskBudgetBytes_ == 0 ||
        approxDiskBytes_.load(std::memory_order_relaxed) <=
            diskBudgetBytes_)
        return;
    // One evictor at a time; concurrent writers just keep going and let
    // the winner re-scan the true on-disk total.
    std::unique_lock<std::mutex> lk(evictMu_, std::try_to_lock);
    if (!lk.owns_lock())
        return;
    auto [files, bytes] =
        evictOldestRecords(root_, diskBudgetBytes_ * 9 / 10);
    if (files) {
        stats_.evictedRecords.fetch_add(files, std::memory_order_relaxed);
        stats_.evictedBytes.fetch_add(bytes, std::memory_order_relaxed);
    }
    approxDiskBytes_.store(recordBytes(), std::memory_order_relaxed);
}

void
KernelResultStore::setDiskBudgetBytes(uint64_t bytes)
{
    diskBudgetBytes_ = bytes;
    approxDiskBytes_.store(recordBytes(), std::memory_order_relaxed);
    maybeEvict();
}

void
KernelResultStore::setMemoryBudgetBytes(uint64_t bytes)
{
    if (sigIndex_)
        sigIndex_->setResidentBudgetBytes(bytes);
}

uint64_t
KernelResultStore::recordCount() const
{
    return recordUsage(objects_.root()).first;
}

uint64_t
KernelResultStore::recordBytes() const
{
    return recordUsage(objects_.root()).second;
}

} // namespace pka::store
