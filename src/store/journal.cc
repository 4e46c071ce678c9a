#include "store/journal.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>

#include "common/fault.hh"
#include "common/logging.hh"
#include "store/durable_dir.hh"

namespace pka::store
{

using pka::common::strfmt;
using pka::common::warn;

namespace
{

constexpr const char *kMagicLine = "# pka-journal v1";

} // namespace

JournalContents
parseJournal(const std::string &bytes)
{
    JournalContents j;
    size_t offset = 0, line_no = 0;
    for (; offset < bytes.size(); ++line_no) {
        size_t eol = bytes.find('\n', offset);
        if (eol == std::string::npos)
            break; // a final line without its newline is torn
        std::string line = bytes.substr(offset, eol - offset);
        unsigned long long n = 0;
        uint64_t h = 0;
        if (line_no == 0) {
            if (line != kMagicLine)
                j.headerError = "not a pka journal (missing magic header)";
        } else if (line_no == 1) {
            if (std::sscanf(line.c_str(), "campaign,%" SCNx64, &h) == 1)
                j.campaignKey = h;
            else
                j.headerError = "malformed campaign-key line";
        } else if (line_no == 2) {
            if (std::sscanf(line.c_str(), "launches,%llu", &n) == 1)
                j.launches = n;
            else
                j.headerError = "malformed launch-count line";
        } else if (std::sscanf(line.c_str(), "done,%llu", &n) == 1 &&
                   n < j.launches) {
            j.done.push_back(n);
        } else if (std::sscanf(line.c_str(), "quarantine,%" SCNx64, &h) ==
                   1) {
            if (std::find(j.quarantined.begin(), j.quarantined.end(), h) ==
                j.quarantined.end())
                j.quarantined.push_back(h);
        } else {
            break; // garbage ends the trusted prefix
        }
        if (!j.headerError.empty())
            return j;
        offset = eol + 1;
        j.goodBytes = offset;
    }
    if (line_no < 3)
        j.headerError = "truncated header";
    return j;
}

std::string
sessionDir(const std::string &cacheDir, const std::string &sessionKey)
{
    std::string safe;
    safe.reserve(sessionKey.size());
    for (char c : sessionKey) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                  c == '-';
        safe.push_back(ok ? c : '_');
    }
    if (safe.empty())
        safe = "_";
    return (std::filesystem::path(cacheDir) / "sessions" / safe).string();
}

CampaignJournal::CampaignJournal(std::string path, uint64_t campaign_key,
                                 size_t launches, bool resume)
    : path_(std::move(path)), done_(launches, 0)
{
    if (resume && loadExisting(campaign_key)) {
        resumedCount_ = doneCount_;
        appendFile_ = std::fopen(path_.c_str(), "a");
        if (!appendFile_)
            warn(strfmt("campaign journal: cannot reopen '%s' for "
                        "append; progress will not be checkpointed",
                        path_.c_str()));
        return;
    }
    startFresh(campaign_key);
}

CampaignJournal::~CampaignJournal()
{
    if (appendFile_)
        std::fclose(appendFile_);
}

bool
CampaignJournal::loadExisting(uint64_t campaign_key)
{
    std::string bytes;
    if (!readFile(path_, &bytes))
        return false; // nothing to resume — silently start fresh

    JournalContents j = parseJournal(bytes);
    std::string why = j.headerError;
    if (why.empty() && j.campaignKey != campaign_key)
        why = strfmt("campaign key %016" PRIx64
                     " does not match this run's %016" PRIx64,
                     j.campaignKey, campaign_key);
    if (why.empty() && j.launches != done_.size())
        why = "launch count does not match this campaign";
    if (!why.empty()) {
        warn(strfmt("campaign journal '%s': %s; restarting the campaign "
                    "from scratch",
                    path_.c_str(), why.c_str()));
        return false;
    }

    // A torn final line (the crash that interrupted the previous run) or
    // any other garbage ends the readable prefix — the entries before it
    // are still trusted. Cut the tail off before this run appends: a
    // line written after torn bytes would fuse with them ("done,done,7")
    // and end the trusted prefix for every later resume.
    if (j.goodBytes < bytes.size()) {
        warn(strfmt("campaign journal '%s': ignoring unreadable tail "
                    "starting at '%.32s'",
                    path_.c_str(), bytes.c_str() + j.goodBytes));
        std::error_code ec;
        std::filesystem::resize_file(path_, j.goodBytes, ec);
        if (ec) {
            warn(strfmt("campaign journal '%s': cannot truncate the "
                        "unreadable tail (%s); restarting the campaign "
                        "from scratch",
                        path_.c_str(), ec.message().c_str()));
            return false;
        }
    }

    for (uint64_t idx : j.done) {
        if (!done_[idx]) {
            done_[idx] = 1;
            ++doneCount_;
        }
    }
    quarantined_ = std::move(j.quarantined);
    return true;
}

void
CampaignJournal::startFresh(uint64_t campaign_key)
{
    std::fill(done_.begin(), done_.end(), 0);
    doneCount_ = 0;
    appendFile_ = std::fopen(path_.c_str(), "w");
    if (!appendFile_) {
        warn(strfmt("campaign journal: cannot create '%s'; progress "
                    "will not be checkpointed",
                    path_.c_str()));
        return;
    }
    std::fprintf(appendFile_, "%s\ncampaign,%016" PRIx64 "\n"
                              "launches,%zu\n",
                 kMagicLine, campaign_key, done_.size());
    std::fflush(appendFile_);
}

void
CampaignJournal::markDone(const std::vector<size_t> &indices)
{
    bool wrote = false;
    for (size_t idx : indices) {
        if (idx >= done_.size() || done_[idx])
            continue;
        done_[idx] = 1;
        ++doneCount_;
        if (appendFile_) {
            if (auto f = pka::common::faultAt("journal.append",
                                              static_cast<uint64_t>(idx))) {
                // A dropped or torn append only costs resume credit —
                // the launch re-runs (and re-hits the store) next time.
                if (*f == pka::common::FaultKind::kShortWrite)
                    std::fprintf(appendFile_, "done,");
                else if (*f == pka::common::FaultKind::kDiskFull)
                    degradeAppend("disk full (injected)");
                continue;
            }
            if (std::fprintf(appendFile_, "done,%zu\n", idx) < 0) {
                degradeAppend("append failed (disk full or I/O error)");
                continue;
            }
            wrote = true;
        }
    }
    if (wrote && appendFile_) {
        if (std::fflush(appendFile_) != 0 || std::ferror(appendFile_))
            degradeAppend("flush failed (disk full or I/O error)");
    }
}

void
CampaignJournal::markQuarantined(uint64_t contentHash)
{
    if (std::find(quarantined_.begin(), quarantined_.end(), contentHash) !=
        quarantined_.end())
        return;
    quarantined_.push_back(contentHash);
    if (!appendFile_)
        return;
    if (auto f = pka::common::faultAt("journal.append", contentHash)) {
        if (*f == pka::common::FaultKind::kDiskFull)
            degradeAppend("disk full (injected)");
        return;
    }
    if (std::fprintf(appendFile_, "quarantine,%016" PRIx64 "\n",
                     contentHash) < 0 ||
        std::fflush(appendFile_) != 0 || std::ferror(appendFile_)) {
        degradeAppend("append failed (disk full or I/O error)");
    }
}

void
CampaignJournal::degradeAppend(const char *why)
{
    if (!appendFile_)
        return;
    std::fclose(appendFile_);
    appendFile_ = nullptr;
    warn(strfmt("campaign journal '%s': %s; progress checkpointing "
                "disabled — the campaign continues but an interruption "
                "now restarts it from the store instead of the journal",
                path_.c_str(), why));
}

} // namespace pka::store
