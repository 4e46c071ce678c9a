/**
 * @file
 * Append-only campaign checkpoint journal. A long campaign (fullSimulate
 * over an MLPerf-scale stream, a PKS/PKA selection sweep) journals each
 * completed launch index; an interrupted run reopened with resume=true
 * learns exactly which launches already completed, and — because every
 * completed launch's result is in the content-addressed store and the
 * reduction always runs in launch order — restarts from the last
 * completed launch with bit-identical aggregates.
 *
 * File format (line-oriented text, flushed after every checkpoint):
 *
 *   # pka-journal v1
 *   campaign,<16-hex campaign key>
 *   launches,<count>
 *   done,<index>
 *   quarantine,<16-hex launch content hash>
 *   ...
 *
 * `quarantine` records persist the campaign's quarantine decisions (a
 * kernel that failed every simulation attempt), so a resumed campaign
 * skips the poisoned kernel immediately instead of re-burning its
 * retry budget. done/quarantine lines interleave in commit order.
 *
 * The campaign key hashes everything that determines the campaign's
 * results (device spec, launch stream content, engine seeding mode, stop
 * policy), so a journal can never resume a *different* campaign: on any
 * mismatch — or any malformed content, e.g. a line torn by the crash
 * that interrupted the run — the journal warns and starts fresh rather
 * than failing.
 */

#ifndef PKA_STORE_JOURNAL_HH
#define PKA_STORE_JOURNAL_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace pka::store
{

/**
 * Directory holding one serve session's journals and artifacts:
 * `<cacheDir>/sessions/<key>`, with the client-supplied key sanitized to
 * [A-Za-z0-9._-] (anything else becomes '_') so a hostile key can never
 * escape the cache directory. Created on first use by the caller.
 */
std::string sessionDir(const std::string &cacheDir,
                       const std::string &sessionKey);

/** The trusted content of one journal file. */
struct JournalContents
{
    /** Empty when the three header lines parse; otherwise why not. */
    std::string headerError;
    uint64_t campaignKey = 0;
    uint64_t launches = 0;
    std::vector<uint64_t> done;        ///< done indices (< launches)
    std::vector<uint64_t> quarantined; ///< distinct, in file order

    /** Bytes of whole, parseable lines. Anything past it is a torn tail
     *  (a crash mid-append) or garbage, and is never trusted. */
    size_t goodBytes = 0;
};

/** Parse journal bytes: the one reader behind resume and `pka fsck`. */
JournalContents parseJournal(const std::string &bytes);

/** Per-launch completion ledger for one campaign. */
class CampaignJournal
{
  public:
    /**
     * Open the journal at `path` for a campaign of `launches` launches
     * identified by `campaignKey`. With resume=true a matching existing
     * journal is loaded (completed() reports its entries), cut back to
     * its last whole line (a torn tail is dropped) and appended to;
     * otherwise, or on key/count mismatch or a corrupt header, the
     * journal restarts empty. Opening never fails fatally: an unwritable path
     * degrades to a warned no-op journal.
     */
    CampaignJournal(std::string path, uint64_t campaignKey,
                    size_t launches, bool resume);
    ~CampaignJournal();

    CampaignJournal(const CampaignJournal &) = delete;
    CampaignJournal &operator=(const CampaignJournal &) = delete;

    /** Completion bitmap, indexed by launch index. */
    const std::vector<uint8_t> &completed() const { return done_; }

    /** True when `index` was journaled as completed. */
    bool isDone(size_t index) const
    {
        return index < done_.size() && done_[index] != 0;
    }

    /** Number of launches journaled as completed. */
    size_t completedCount() const { return doneCount_; }

    /** Launches journaled as completed before this run (resume credit). */
    size_t resumedCount() const { return resumedCount_; }

    /**
     * Journal `indices` as completed and flush, so a crash immediately
     * after still finds them on resume. Already-done indices are
     * ignored.
     */
    void markDone(const std::vector<size_t> &indices);

    /**
     * Journal a quarantined kernel (by launch content hash) and flush.
     * Idempotent per hash.
     */
    void markQuarantined(uint64_t contentHash);

    /** Quarantined kernels loaded from a resumed journal plus those
     *  recorded this run, in commit order. */
    const std::vector<uint64_t> &quarantined() const
    {
        return quarantined_;
    }

    /** The journal file path. */
    const std::string &path() const { return path_; }

    /**
     * True while completions are actually being persisted. Becomes
     * false when the journal degraded to a no-op — either the file
     * never opened, or a write failed permanently (ENOSPC, read-only
     * filesystem, or an injected journal.append `enospc` fault): the
     * campaign keeps running, it just loses resume credit.
     */
    bool checkpointing() const { return appendFile_ != nullptr; }

  private:
    bool loadExisting(uint64_t campaign_key);
    void startFresh(uint64_t campaign_key);

    /** Stop persisting after a permanent write failure (warns once). */
    void degradeAppend(const char *why);

    std::string path_;
    std::vector<uint8_t> done_;
    std::vector<uint64_t> quarantined_;
    size_t doneCount_ = 0;
    size_t resumedCount_ = 0;
    std::FILE *appendFile_ = nullptr;
};

} // namespace pka::store

#endif // PKA_STORE_JOURNAL_HH
