/**
 * @file
 * The similarity tier's persistent signature index: maps quantized,
 * log-scaled Table-2 counter signatures to exact-cache records, so the
 * engine can answer an exact-cache miss with a *projected* result from
 * the nearest stored near-duplicate kernel instead of simulating.
 *
 * Signature definition. A kernel's signature is derived from the 12
 * noise-free Table-2 counters (silicon::deriveKernelMetrics), normalized
 * per-CTA so grid scale never defeats matching — two launches identical
 * except for grid size quantize to the *same* signature cell and match
 * at distance zero, which is exactly the cross-app redundancy the tier
 * exists to collapse:
 *
 *   dims 0..9   log1p(counter / numCtas)    per-CTA counts, log-scaled
 *   dim  10     divergenceEff               threads/instr, scale-free
 *   dim  11     0                           numCtas normalized out; kept
 *                                           so indices align with
 *                                           KernelMetrics::toArray()
 *
 * Each dimension is quantized to a fixed grid (kSigQuantStep); the
 * distance between two signatures is the Chebyshev (max-abs) distance
 * over dequantized dims. Because the count dims live in log space,
 * a distance d bounds every per-CTA counter's relative mismatch by
 * e^d - 1 — that bound is the error model the engine tags projected
 * results with.
 *
 * On disk the index is a DurableDir (durable_dir.hh), like the exact
 * store's objects tree:
 *
 *   <root>/<hh>/<hash16>.pks  — one fixed-size entry per indexed kernel,
 *                               named by the exact-cache key hash
 *
 * Entries are CRC-32-guarded and carry a full KernelSimKey echo; a
 * corrupt or truncated entry is warned about, counted, and skipped at
 * load — never served. Writes share the exact store's publish, fault
 * site, retries and degradation; the load's tree walk sweeps orphaned
 * staging files.
 */

#ifndef PKA_STORE_SIG_INDEX_HH
#define PKA_STORE_SIG_INDEX_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "silicon/profiler.hh"
#include "sim/engine.hh"
#include "store/durable_dir.hh"

namespace pka::store
{

/** File extension of a persisted index entry. */
inline constexpr const char *kSigEntryExt = ".pks";

/** Signature dimensionality (= the Table-2 counter count). */
constexpr size_t kSigDims = silicon::KernelMetrics::kCount;

/** Quantization grid step applied to every normalized dimension. */
constexpr double kSigQuantStep = 1.0 / 1024.0;

/** A quantized kernel signature: one grid index per dimension. */
struct KernelSignature
{
    std::array<int32_t, kSigDims> q{};

    bool operator==(const KernelSignature &) const = default;
};

/** Quantize one normalized feature value onto the signature grid. */
int32_t quantizeSigDim(double v);

/** Centre of a grid cell (the dequantized value distance works on). */
double dequantizeSigDim(int32_t q);

/** Build the signature of a launch from its noise-free counters. */
KernelSignature makeSignature(const silicon::KernelMetrics &m);

/** Chebyshev distance over dequantized dims (see file comment). */
double sigDistance(const KernelSignature &a, const KernelSignature &b);

/**
 * Estimated relative projection error for a neighbor at signature
 * distance `d`: the log-space Chebyshev bound e^d - 1.
 */
double sigErrorBound(double distance);

/**
 * Shadow-audit verdict of one index entry. Unaudited entries serve
 * normally (the heuristic bound is all we have); clean entries have
 * survived at least one ground-truth comparison; quarantined entries
 * violated their certified bound and are never probed again.
 */
enum class SigVerdict : uint32_t
{
    kUnaudited = 0,
    kClean = 1,
    kQuarantined = 2,
};

/** One persisted index entry: signature -> exact-cache record. */
struct SigEntry
{
    KernelSignature sig;

    /** Exact-cache key of the stored neighbor result. */
    sim::KernelSimKey key;

    /** Static expected thread instructions of the neighbor launch. */
    double expThreadInsts = 0.0;

    /** Static warp-instruction count of the neighbor launch. */
    uint64_t expWarpInsts = 0;

    /** Grid size of the neighbor launch. */
    uint64_t numCtas = 0;

    // --- shadow-audit stats (v2 fields; v1 entries read as unaudited) ---

    /** Ground-truth comparisons recorded against this entry. */
    uint32_t auditCount = 0;

    /** Audit outcome; kQuarantined entries are skipped by probe(). */
    SigVerdict verdict = SigVerdict::kUnaudited;

    /** EWMA of observed relative cycle error across audits. */
    double errEwma = 0.0;
};

/** Exact on-disk size of a v1 (PR 8-era) signature-index entry. */
constexpr size_t kSigEntrySizeV1 =
    4 + 4 +                 // magic + version
    7 * 8 + 3 * 4 +         // key echo: 7 u64 + 2 u32 + scheduler
    kSigDims * 4 +          // quantized signature
    8 + 8 + 8 +             // expThreadInsts + expWarpInsts + numCtas
    4;                      // CRC-32

/** Exact on-disk size of a v2 entry (v1 + persisted audit stats). */
constexpr size_t kSigEntrySize =
    kSigEntrySizeV1 +
    4 + 4 +                 // auditCount + verdict
    8;                      // errEwma

/** Why a sig-entry decode refused the bytes (fsck classification). */
enum class SigDecodeStatus
{
    kOk,          ///< decoded (v1 entries surface as unaudited)
    kCorrupt,     ///< bad size / CRC / magic / field (torn or damaged)
    kVersionSkew, ///< intact CRC but version does not match the layout
                  ///< (mixed-version record or a future format)
};

/** Serialize one index entry (always the current v2 layout). */
std::string encodeSigEntry(const SigEntry &e);

/** Validate bytes and fill `*out`; false = corrupt (skip, never serve). */
bool decodeSigEntry(const void *data, size_t size, SigEntry *out);

/**
 * decodeSigEntry with a typed refusal reason and the wire version read
 * (0 when the header itself is unreadable). A v1 entry decodes kOk with
 * zeroed audit fields — the migration contract.
 */
SigDecodeStatus decodeSigEntryEx(const void *data, size_t size,
                                 SigEntry *out, uint32_t *versionOut);

/** Counters of one signature index (atomic; snapshot for reporting). */
struct SigIndexStatsSnapshot
{
    uint64_t entries = 0;        ///< entries currently resident
    uint64_t loaded = 0;         ///< entries loaded from disk at open
    uint64_t corruptSkipped = 0; ///< entries rejected at load (CRC/size)
    uint64_t probes = 0;         ///< similarity lookups
    uint64_t probeHits = 0;      ///< lookups with a neighbor in bound
    uint64_t inserts = 0;        ///< entries added (and persisted)
    uint64_t insertFailures = 0; ///< persists that failed every attempt
    uint64_t ioRetries = 0;      ///< transient I/O failures retried
    uint64_t orphansSwept = 0;   ///< staging debris removed at open

    /** 1 after a permanent write failure (ENOSPC / read-only fs): the
     *  tier keeps serving resident entries but stops persisting. */
    uint64_t degraded = 0;
    uint64_t persistsSkippedDegraded = 0; ///< persists dropped, degraded
    uint64_t residentEvicted = 0; ///< entries trimmed by --memo-budget-mb

    // --- shadow-audit section ---
    uint64_t auditsRecorded = 0;   ///< ground-truth comparisons recorded
    uint64_t auditViolations = 0;  ///< observed error exceeded the bound
    uint64_t quarantined = 0;      ///< resident entries under quarantine
    uint64_t legacyLoaded = 0;     ///< v1 entries read as unaudited
    uint64_t governorTightened = 0; ///< neighborhood tolerance cuts
    uint64_t governorRelaxed = 0;   ///< cautious streak-driven relaxes

    /** Smallest neighborhood tolerance scale in effect (1.0 = no
     *  tightening anywhere). */
    double governorMinScale = 1.0;
};

/** Result of one similarity probe. */
struct SigProbe
{
    bool hit = false;    ///< a stored neighbor lies within the bound
    SigEntry entry;      ///< the nearest such neighbor
    double distance = 0; ///< its signature distance
};

/**
 * The persistent signature index. Thread-safe: inserts and probes may
 * run concurrently from every engine worker. Probing is a linear scan
 * over the resident entries — fleets hold thousands of *distinct*
 * kernel shapes, so a scan of small fixed-size structs is microseconds
 * against a simulation it potentially replaces entirely.
 */
class SignatureIndex
{
  public:
    /**
     * Open (creating directories as needed) an index rooted at `root`,
     * loading every valid entry and sweeping staging debris on the way;
     * corrupt entries are warned, counted and skipped. Throws
     * common::TaskException(kStoreIo) when the root cannot be created.
     */
    explicit SignatureIndex(std::string root);

    SignatureIndex(const SignatureIndex &) = delete;
    SignatureIndex &operator=(const SignatureIndex &) = delete;

    /** The index root directory. */
    const std::string &root() const { return dir_.root(); }

    /**
     * Find the nearest stored entry within `tolerance` signature
     * distance of `sig`. Deterministic for a fixed entry set: ties
     * break on the smaller key hash, so probe results never depend on
     * insertion order. Quarantined entries are never candidates, and
     * the tolerance is first scaled down by the adaptive governor of
     * the probe signature's neighborhood (see recordAudit).
     */
    SigProbe probe(const KernelSignature &sig, double tolerance) const;

    /**
     * Record one shadow-audit observation for the entry keyed by
     * `keyHash`: updates the entry's observed-error EWMA / audit count,
     * quarantines it on a bound violation (probe() stops serving it,
     * the quarantine persists across reopen), and drives the tolerance
     * governor of the entry's signature neighborhood — a violation
     * halves the neighborhood's effective probe tolerance immediately;
     * `kGovernorRelaxStreak` consecutive clean audits cautiously widen
     * it back toward 1x. No-op when the entry is no longer resident.
     */
    void recordAudit(uint64_t keyHash, double observedErr,
                     bool violation) const;

    /** Tolerance halvings stop at this fraction of the requested
     *  tolerance (a poisoned neighborhood still probes, narrowly). */
    static constexpr double kGovernorFloor = 0.125;

    /** Clean audits in a row before a neighborhood relaxes by 1.25x. */
    static constexpr unsigned kGovernorRelaxStreak = 8;

    /** EWMA weight of the newest audit observation. */
    static constexpr double kAuditEwmaAlpha = 0.25;

    /**
     * Add an entry (idempotent per exact-cache key) and persist it
     * atomically with bounded retries; a permanent write failure warns
     * and counts but keeps the entry resident — the tier degrades to
     * process-local, never fails a campaign.
     */
    void insert(const SigEntry &e) const;

    /** Number of resident entries. */
    size_t size() const;

    /** Counter snapshot. */
    SigIndexStatsSnapshot stats() const;

    /**
     * Bound the resident entry list to ~`bytes` of memory; when an
     * insert pushes past it the oldest resident entries are dropped
     * (their on-disk .pks files remain and reload on the next open).
     * 0 = unbounded. Evictions counted in residentEvicted.
     */
    void setResidentBudgetBytes(uint64_t bytes) const;

    /** Approximate resident memory per entry (entry + hash + slack). */
    static constexpr size_t kResidentEntryBytes =
        sizeof(SigEntry) + sizeof(uint64_t);

  private:
    /** Per-signature-cell adaptive tolerance state. */
    struct GovernorState
    {
        double scale = 1.0;       ///< multiplier on requested tolerance
        unsigned cleanStreak = 0; ///< consecutive clean audits
    };

    /** Coarse neighborhood key of a signature (grid cells pooled so one
     *  bad entry tightens its whole local similarity pocket). */
    static uint64_t neighborhoodKey(const KernelSignature &sig);

    /** Drop oldest resident entries while over budget (m_ held). */
    void trimResidentLocked() const;

    DurableDir dir_;
    mutable std::mutex m_;
    mutable std::vector<SigEntry> entries_;
    mutable std::vector<uint64_t> entryKeyHashes_; // parallel to entries_

    mutable std::atomic<uint64_t> loaded_{0};
    mutable std::atomic<uint64_t> corruptSkipped_{0};
    mutable std::atomic<uint64_t> probes_{0};
    mutable std::atomic<uint64_t> probeHits_{0};
    mutable std::atomic<uint64_t> inserts_{0};
    mutable std::atomic<uint64_t> residentEvicted_{0};
    mutable std::atomic<uint64_t> residentBudgetBytes_{0};

    mutable std::atomic<uint64_t> auditsRecorded_{0};
    mutable std::atomic<uint64_t> auditViolations_{0};
    mutable std::atomic<uint64_t> legacyLoaded_{0};
    mutable std::atomic<uint64_t> governorTightened_{0};
    mutable std::atomic<uint64_t> governorRelaxed_{0};
    mutable std::map<uint64_t, GovernorState> governors_; // m_ held
};

/**
 * Signature of one launch descriptor: noise-free Table-2 counters
 * (silicon::deriveKernelMetrics) normalized and quantized as per the
 * file comment.
 */
KernelSignature signatureOf(const pka::workload::KernelDescriptor &k);

} // namespace pka::store

#endif // PKA_STORE_SIG_INDEX_HH
