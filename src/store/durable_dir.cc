#include "store/durable_dir.hh"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <thread>
#include <vector>

#include "common/error.hh"
#include "common/fault.hh"
#include "common/logging.hh"

namespace fs = std::filesystem;

namespace pka::store
{

using pka::common::strfmt;
using pka::common::warn;
using pka::common::warnRateLimited;

namespace
{

/** Staging names of one process's writes: unique across every
 *  DurableDir of the process, so two open handles on one root never
 *  share a staging file. */
std::atomic<uint64_t> gStagingCounter{0};

/** The errno equivalent of a failed std::error_code (EIO, a transient
 *  failure, when it maps to none). */
int
errnoOf(const std::error_code &ec)
{
    std::error_condition cond = ec.default_error_condition();
    if (cond.category() == std::generic_category() && cond.value() != 0)
        return cond.value();
    return EIO;
}

/** True when `err` means writes can never succeed until an operator
 *  intervenes: disk full, quota, read-only or permission-denied
 *  filesystem, a path component replaced by a file. */
bool
permanentWriteErrno(int err)
{
    return err == ENOSPC || err == EDQUOT || err == EROFS ||
           err == EACCES || err == EPERM || err == ENOTDIR;
}

/** The ".<pid>." infix of this process's staging names. */
std::string
ownStagingTag()
{
    return strfmt(".%ld.", static_cast<long>(::getpid()));
}

/** Remove `entry` when it is staging debris: a `.tmp` file not staged
 *  by this process (ours may be in flight on another thread). */
bool
removeIfOrphan(const fs::directory_entry &entry, const std::string &ownTag)
{
    std::error_code ec;
    if (!entry.is_regular_file(ec) || entry.path().extension() != ".tmp")
        return false;
    std::string name = entry.path().filename().string();
    if (name.size() > 16 && name.compare(16, ownTag.size(), ownTag) == 0)
        return false;
    return fs::remove(entry.path(), ec);
}

/** Files under `dir` with extension `ext`, sorted by path so scan order
 *  (and thus report and warning order) is deterministic. */
std::vector<fs::path>
filesWithExtension(const fs::path &dir, const std::string &ext)
{
    std::vector<fs::path> out;
    std::error_code ec;
    fs::recursive_directory_iterator it(dir, ec);
    if (ec)
        return out;
    for (const auto &entry : it)
        if (entry.is_regular_file(ec) && entry.path().extension() == ext)
            out.push_back(entry.path());
    std::sort(out.begin(), out.end());
    return out;
}

/** `<root>/<hh>/<hash16><ext>`. */
fs::path
layoutPath(const std::string &root, uint64_t hash, const std::string &ext)
{
    std::string h = hex16(hash);
    return fs::path(root) / h.substr(0, 2) / (h + ext);
}

} // namespace

std::string
hex16(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return std::string(buf);
}

void
ioBackoff(unsigned r)
{
    std::this_thread::sleep_for(
        std::chrono::milliseconds(DurableDir::kIoBackoffBaseMs << r));
}

bool
readFile(const std::string &path, std::string *out)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return false;
    std::error_code ec;
    uint64_t size = fs::file_size(path, ec);
    if (ec)
        return false;
    out->resize(size);
    is.read(out->data(), static_cast<std::streamsize>(size));
    return static_cast<uint64_t>(is.gcount()) == size && !is.bad();
}

bool
quarantineFile(const std::string &quarantineDir, const std::string &path)
{
    std::error_code ec;
    fs::path qdir(quarantineDir);
    fs::create_directories(qdir, ec);
    if (ec)
        return false;
    fs::path name = fs::path(path).filename();
    fs::path dest = qdir / name;
    for (unsigned n = 1; fs::exists(dest, ec); ++n)
        dest = qdir / (name.string() + strfmt(".%u", n));
    fs::rename(path, dest, ec);
    return !ec;
}

DurableDir::DurableDir(std::string root, std::string ext, std::string what)
    : root_(std::move(root)), ext_(std::move(ext)), what_(std::move(what))
{
    std::error_code ec;
    fs::create_directories(root_, ec);
    if (ec)
        throw pka::common::TaskException(
            pka::common::ErrorKind::kStoreIo,
            strfmt("cannot create %s at '%s': %s", what_.c_str(),
                   root_.c_str(), ec.message().c_str()));
}

std::string
DurableDir::path(uint64_t hash) const
{
    return layoutPath(root_, hash, ext_).string();
}

DurableDirStats
DurableDir::stats() const
{
    DurableDirStats s;
    s.ioRetries = ioRetries_.load(std::memory_order_relaxed);
    s.failures = failures_.load(std::memory_order_relaxed);
    s.retryExhausted = retryExhausted_.load(std::memory_order_relaxed);
    s.skippedDegraded = skippedDegraded_.load(std::memory_order_relaxed);
    s.orphansSwept = orphansSwept_.load(std::memory_order_relaxed);
    s.degraded = degraded() ? 1 : 0;
    return s;
}

void
DurableDir::noteSwept(uint64_t swept, const std::string &where) const
{
    if (swept == 0)
        return;
    orphansSwept_.fetch_add(swept, std::memory_order_relaxed);
    warnRateLimited(what_ + ".sweep",
                    strfmt("%s: swept %llu orphaned staging file(s) from "
                           "an interrupted run in '%s'",
                           what_.c_str(),
                           static_cast<unsigned long long>(swept),
                           where.c_str()));
}

void
DurableDir::sweepShardOnce(uint64_t hash, const std::string &shardDir) const
{
    if (shardSwept_[hash >> 56].exchange(true, std::memory_order_relaxed))
        return;
    const std::string own = ownStagingTag();
    uint64_t swept = 0;
    std::error_code ec;
    for (fs::directory_iterator it(shardDir, ec), end; !ec && it != end;
         it.increment(ec))
        swept += removeIfOrphan(*it, own) ? 1 : 0;
    noteSwept(swept, shardDir);
}

void
DurableDir::walk(const std::function<void(const std::string &path,
                                          uint64_t nameHash)> &visit) const
{
    const std::string own = ownStagingTag();
    uint64_t swept = 0;
    std::error_code ec;
    for (fs::recursive_directory_iterator it(root_, ec), end;
         !ec && it != end; it.increment(ec)) {
        if (removeIfOrphan(*it, own)) {
            ++swept;
            continue;
        }
        std::error_code fec;
        if (!it->is_regular_file(fec) || it->path().extension() != ext_)
            continue;
        std::string stem = it->path().stem().string();
        visit(it->path().string(),
              std::strtoull(stem.c_str(), nullptr, 16));
    }
    for (auto &s : shardSwept_)
        s.store(true, std::memory_order_relaxed);
    noteSwept(swept, root_);
}

int
DurableDir::tryPublish(uint64_t hash, const std::string &bytes,
                       const std::string &dest) const
{
    fs::path shard = fs::path(dest).parent_path();
    std::error_code ec;
    fs::create_directories(shard, ec);
    if (ec)
        return errnoOf(ec);
    sweepShardOnce(hash, shard.string());

    size_t write_len = bytes.size();
    const char *data = bytes.data();
    std::string corrupted;
    if (auto f = pka::common::faultAt("store.write", hash)) {
        switch (*f) {
        case pka::common::FaultKind::kIoError:
            return EIO;
        case pka::common::FaultKind::kDiskFull:
            return ENOSPC;
        case pka::common::FaultKind::kShortWrite:
            // A torn file reaching disk (a crash between write and
            // fsync): readers reject it by size/CRC and recompute.
            write_len /= 2;
            break;
        case pka::common::FaultKind::kCorrupt:
            corrupted = bytes;
            corrupted[0] = static_cast<char>(corrupted[0] ^ 0xff);
            data = corrupted.data();
            break;
        case pka::common::FaultKind::kHang:
            pka::common::FaultInjector::instance().hang(
                [] { return false; });
            break;
        case pka::common::FaultKind::kThrow:
            throw pka::common::TaskException(
                pka::common::ErrorKind::kStoreIo,
                strfmt("injected %s write failure for '%s'", what_.c_str(),
                       dest.c_str()));
        }
    }

    uint64_t n = gStagingCounter.fetch_add(1, std::memory_order_relaxed);
    fs::path tmp = shard / strfmt("%s%s%llu.tmp", hex16(hash).c_str(),
                                  ownStagingTag().c_str(),
                                  static_cast<unsigned long long>(n));
    int err = 0;
    {
        errno = 0;
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (os)
            os.write(data, static_cast<std::streamsize>(write_len));
        if (os)
            os.flush();
        // The stream hides the failing syscall, but glibc leaves its
        // errno in place, so ENOSPC/EROFS-style failures still classify
        // as permanent.
        if (!os)
            err = errno != 0 ? errno : EIO;
    }
    if (!err) {
        fs::rename(tmp, dest, ec);
        if (ec)
            err = errnoOf(ec);
    }
    if (err)
        fs::remove(tmp, ec);
    return err;
}

bool
DurableDir::publish(uint64_t hash, const std::string &bytes) const
{
    if (degraded()) {
        skippedDegraded_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    const std::string dest = path(hash);
    for (unsigned attempt = 0; attempt < kIoAttempts; ++attempt) {
        int err = tryPublish(hash, bytes, dest);
        if (err == 0)
            return true;
        if (permanentWriteErrno(err)) {
            failures_.fetch_add(1, std::memory_order_relaxed);
            markDegraded(strfmt("cannot write '%s': %s", dest.c_str(),
                                std::strerror(err)));
            return false;
        }
        if (attempt + 1 < kIoAttempts) {
            ioRetries_.fetch_add(1, std::memory_order_relaxed);
            ioBackoff(attempt);
        }
    }
    failures_.fetch_add(1, std::memory_order_relaxed);
    retryExhausted_.fetch_add(1, std::memory_order_relaxed);
    warnRateLimited(what_ + ".write",
                    strfmt("%s: cannot write '%s' after %u attempts; not "
                           "persisted",
                           what_.c_str(), dest.c_str(), kIoAttempts));
    return false;
}

void
DurableDir::markDegraded(const std::string &why) const
{
    if (degraded_.exchange(true, std::memory_order_relaxed))
        return; // already degraded; the first failure already warned
    warn(strfmt("%s '%s': %s; degrading: reads keep serving, nothing new "
                "is persisted",
                what_.c_str(), root_.c_str(), why.c_str()));
}

ScrubTally
DurableDir::scrub(const std::string &root, const std::string &ext,
                  bool repair, const std::string &quarantineDir,
                  const std::function<std::optional<uint64_t>(
                      const std::string &path, const std::string &bytes)>
                      &keyHashOf)
{
    ScrubTally t;
    for (const fs::path &p : filesWithExtension(root, ext)) {
        ++t.scanned;
        std::string bytes;
        if (!readFile(p.string(), &bytes))
            bytes.clear();
        std::optional<uint64_t> hash = keyHashOf(p.string(), bytes);
        if (!hash) {
            if (repair && quarantineFile(quarantineDir, p.string()))
                ++t.quarantined;
            continue;
        }
        fs::path dest = layoutPath(root, *hash, ext);
        if (p.lexically_normal() == dest.lexically_normal()) {
            ++t.valid;
            t.validBytes += bytes.size();
            continue;
        }
        // The bytes are sound but unreachable: lookups compute the path
        // from the key hash, so a misnamed file never hits.
        ++t.misnamed;
        warn(strfmt("fsck: '%s' is named for the wrong key (stored key "
                    "hashes to %s)",
                    p.string().c_str(), hex16(*hash).c_str()));
        if (!repair)
            continue;
        std::error_code ec;
        if (!fs::exists(dest, ec)) {
            fs::create_directories(dest.parent_path(), ec);
            fs::rename(p, dest, ec);
            if (!ec) {
                ++t.renamed;
                ++t.valid;
                t.validBytes += bytes.size();
                continue;
            }
        }
        // The right name already holds a file (keep it), or the move
        // failed: park the stray copy.
        if (quarantineFile(quarantineDir, p.string()))
            ++t.quarantined;
    }
    return t;
}

} // namespace pka::store
