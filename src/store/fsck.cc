#include "store/fsck.hh"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <string>
#include <system_error>
#include <vector>

#include "common/logging.hh"
#include "sim/engine.hh"
#include "store/durable_dir.hh"
#include "store/file_store.hh"
#include "store/journal.hh"
#include "store/record.hh"
#include "store/sig_index.hh"

namespace fs = std::filesystem;

namespace pka::store
{

using pka::common::strfmt;
using pka::common::warn;

namespace
{

/** One journal: validate the header, find the torn tail (if any) and,
 *  in repair mode, truncate back to the last fully readable line — the
 *  prefix CampaignJournal would trust on resume anyway. */
void
scrubJournal(const std::string &quarantineDir, const fs::path &p,
             const FsckOptions &opts, FsckReport *rep)
{
    ++rep->journalsScanned;
    std::string bytes;
    if (!readFile(p.string(), &bytes))
        bytes.clear(); // an unreadable journal has no readable header
    JournalContents j = parseJournal(bytes);

    if (!j.headerError.empty()) {
        // Not a journal (or its header was destroyed): nothing to
        // salvage, CampaignJournal would restart the campaign anyway.
        ++rep->journalsBad;
        warn(strfmt("fsck: journal '%s' has an unreadable header (%s)",
                    p.string().c_str(), j.headerError.c_str()));
        if (opts.repair && quarantineFile(quarantineDir, p.string()))
            ++rep->quarantinedFiles;
        return;
    }
    if (j.goodBytes == bytes.size())
        return;

    ++rep->journalsTorn;
    warn(strfmt("fsck: journal '%s' has a torn tail at byte %zu",
                p.string().c_str(), j.goodBytes));
    if (opts.repair) {
        std::error_code ec;
        fs::resize_file(p, j.goodBytes, ec);
        if (!ec)
            ++rep->journalsTruncated;
    }
}

} // namespace

FsckReport
fsckStore(const std::string &root, const FsckOptions &opts)
{
    FsckReport rep;
    fs::path r(root);
    const std::string qdir = (r / "quarantine").string();

    ScrubTally rec = DurableDir::scrub(
        (r / "objects").string(), kRecordExt, opts.repair, qdir,
        [&](const std::string &p,
            const std::string &bytes) -> std::optional<uint64_t> {
            sim::KernelSimKey key;
            sim::KernelSimResult result;
            if (decodeRecordAny(bytes.data(), bytes.size(), &key,
                                &result) == DecodeStatus::kOk)
                return sim::kernelSimKeyHash(key);
            ++rep.recordsCorrupt;
            warn(strfmt("fsck: corrupt record '%s' (%zu bytes)", p.c_str(),
                        bytes.size()));
            return std::nullopt;
        });
    rep.recordsScanned = rec.scanned;
    rep.recordsValid = rec.valid;
    rep.recordsMisnamed = rec.misnamed;
    rep.recordsRenamed = rec.renamed;
    rep.recordBytes = rec.validBytes;

    ScrubTally sig = DurableDir::scrub(
        (r / "sig").string(), kSigEntryExt, opts.repair, qdir,
        [&](const std::string &p,
            const std::string &bytes) -> std::optional<uint64_t> {
            SigEntry entry;
            uint32_t version = 0;
            SigDecodeStatus st = decodeSigEntryEx(
                bytes.data(), bytes.size(), &entry, &version);
            if (st == SigDecodeStatus::kOk) {
                if (version < 2)
                    ++rep.sigLegacy; // pre-audit: valid, reads unaudited
                return sim::kernelSimKeyHash(entry.key);
            }
            // Version skew is rejected like corruption — a torn or
            // mixed-version entry must never serve — but counted apart:
            // it points at a writer bug, not bit rot.
            bool skew = st == SigDecodeStatus::kVersionSkew;
            ++(skew ? rep.sigVersionSkew : rep.sigCorrupt);
            warn(strfmt("fsck: %s signature entry '%s' (%zu bytes)",
                        skew ? "version-skewed" : "corrupt", p.c_str(),
                        bytes.size()));
            return std::nullopt;
        });
    rep.sigScanned = sig.scanned;
    rep.sigValid = sig.valid;
    rep.sigMisnamed = sig.misnamed;
    rep.sigRenamed = sig.renamed;
    rep.quarantinedFiles = rec.quarantined + sig.quarantined;

    // One walk for what no tier owns: staging debris anywhere (in the
    // shards, or in the tmp/ areas of caches written by older builds)
    // and journals wherever a session put them. Never re-flag what an
    // earlier repair parked under quarantine/: those files are
    // post-mortem evidence, not damage to report again.
    std::vector<fs::path> files;
    std::error_code ec;
    for (fs::recursive_directory_iterator it(r, ec), end; !ec && it != end;
         it.increment(ec)) {
        if (it->path() == fs::path(qdir)) {
            it.disable_recursion_pending();
            continue;
        }
        fs::path ext = it->path().extension();
        std::error_code fec;
        if (it->is_regular_file(fec) && (ext == ".tmp" || ext == ".pkj"))
            files.push_back(it->path());
    }
    std::sort(files.begin(), files.end());
    for (const fs::path &p : files) {
        if (p.extension() == ".pkj") {
            scrubJournal(qdir, p, opts, &rep);
            continue;
        }
        ++rep.tmpOrphans;
        if (opts.repair)
            fs::remove(p, ec);
    }

    if (opts.budgetBytes != 0) {
        auto [files_evicted, bytes] =
            evictOldestRecords(root, opts.budgetBytes);
        rep.evictedRecords = files_evicted;
        rep.evictedBytes = bytes;
        if (rep.recordBytes >= bytes)
            rep.recordBytes -= bytes;
    }
    return rep;
}

} // namespace pka::store
