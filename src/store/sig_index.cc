#include "store/sig_index.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>

#include "common/error.hh"
#include "common/fault.hh"
#include "common/logging.hh"
#include "store/crc32.hh"

namespace pka::store
{

using pka::common::strfmt;
using pka::common::warnRateLimited;

int32_t
quantizeSigDim(double v)
{
    double cells = std::nearbyint(v / kSigQuantStep);
    cells = std::clamp(cells, -2147483648.0, 2147483647.0);
    return static_cast<int32_t>(cells);
}

double
dequantizeSigDim(int32_t q)
{
    return static_cast<double>(q) * kSigQuantStep;
}

KernelSignature
makeSignature(const silicon::KernelMetrics &m)
{
    const std::array<double, kSigDims> raw = m.toArray();
    const double ctas = m.numCtas > 0 ? m.numCtas : 1.0;

    KernelSignature s;
    // Dims 0..9 are the count-like counters (coalesced/thread-level
    // memory ops and total instructions): per-CTA then log-scaled, so
    // distance reads as relative per-CTA work mismatch.
    for (size_t i = 0; i < 10; ++i)
        s.q[i] = quantizeSigDim(std::log1p(raw[i] / ctas));
    // Divergence efficiency is already scale-free (threads per executed
    // instruction, in (0, 32]).
    s.q[10] = quantizeSigDim(raw[10]);
    // numCtas is the projection axis, not a matching axis: normalized
    // out so grid scale never defeats matching.
    s.q[11] = 0;
    return s;
}

double
sigDistance(const KernelSignature &a, const KernelSignature &b)
{
    double d = 0.0;
    for (size_t i = 0; i < kSigDims; ++i)
        d = std::max(d, std::abs(dequantizeSigDim(a.q[i]) -
                                 dequantizeSigDim(b.q[i])));
    return d;
}

double
sigErrorBound(double distance)
{
    return std::expm1(distance);
}

KernelSignature
signatureOf(const pka::workload::KernelDescriptor &k)
{
    return makeSignature(silicon::deriveKernelMetrics(k));
}

namespace
{

constexpr char kSigMagic[4] = {'P', 'K', 'S', '1'};
constexpr uint32_t kSigVersionLegacy = 1; ///< PR 8 layout, no audit stats
constexpr uint32_t kSigVersion = 2;       ///< adds persisted audit stats

/** Fixed-width append-only writer over a byte string. */
struct Writer
{
    std::string out;

    void bytes(const void *p, size_t n)
    {
        out.append(static_cast<const char *>(p), n);
    }
    void u32(uint32_t v) { bytes(&v, sizeof v); }
    void u64(uint64_t v) { bytes(&v, sizeof v); }
    void f64(double v) { bytes(&v, sizeof v); }
};

/** Bounds-checked reader; `ok` latches false on any over-read. */
struct Reader
{
    const unsigned char *p;
    size_t left;
    bool ok = true;

    void bytes(void *dst, size_t n)
    {
        if (n > left) {
            ok = false;
            std::memset(dst, 0, n);
            return;
        }
        std::memcpy(dst, p, n);
        p += n;
        left -= n;
    }
    uint32_t u32()
    {
        uint32_t v;
        bytes(&v, sizeof v);
        return v;
    }
    uint64_t u64()
    {
        uint64_t v;
        bytes(&v, sizeof v);
        return v;
    }
    double f64()
    {
        double v;
        bytes(&v, sizeof v);
        return v;
    }
};

} // namespace

std::string
encodeSigEntry(const SigEntry &e)
{
    Writer w;
    w.out.reserve(kSigEntrySize);
    w.bytes(kSigMagic, sizeof kSigMagic);
    w.u32(kSigVersion);
    w.u64(e.key.specHash);
    w.u64(e.key.contentHash);
    w.u64(e.key.workloadSeed);
    w.u64(e.key.seedSalt);
    w.u64(e.key.stopConfigKey);
    w.u64(e.key.maxThreadInstructions);
    w.u64(e.key.maxCycles);
    w.u32(e.key.ipcBucketCycles);
    w.u32(e.key.ipcWindowBuckets);
    w.u32(e.key.scheduler);
    for (int32_t q : e.sig.q)
        w.u32(static_cast<uint32_t>(q));
    w.f64(e.expThreadInsts);
    w.u64(e.expWarpInsts);
    w.u64(e.numCtas);
    w.u32(e.auditCount);
    w.u32(static_cast<uint32_t>(e.verdict));
    w.f64(e.errEwma);
    w.u32(crc32(w.out.data(), w.out.size()));
    PKA_ASSERT(w.out.size() == kSigEntrySize,
               "signature entry codec drifted from kSigEntrySize");
    return std::move(w.out);
}

SigDecodeStatus
decodeSigEntryEx(const void *data, size_t size, SigEntry *out,
                 uint32_t *versionOut)
{
    if (versionOut)
        *versionOut = 0;
    if (size != kSigEntrySizeV1 && size != kSigEntrySize)
        return SigDecodeStatus::kCorrupt;

    const auto *bytes = static_cast<const unsigned char *>(data);
    uint32_t stored_crc;
    std::memcpy(&stored_crc, bytes + size - 4, 4);
    if (crc32(bytes, size - 4) != stored_crc)
        return SigDecodeStatus::kCorrupt;

    Reader r{bytes, size - 4};
    char magic[4];
    r.bytes(magic, sizeof magic);
    if (std::memcmp(magic, kSigMagic, sizeof kSigMagic) != 0)
        return SigDecodeStatus::kCorrupt;
    uint32_t version = r.u32();
    if (versionOut)
        *versionOut = version;
    // The version must name exactly the layout the byte count implies:
    // a v2 record truncated to the v1 size fails CRC above, but a
    // record whose version field disagrees with its own length (or
    // claims a format newer than this build) is version skew — intact
    // bytes we must nevertheless refuse to serve.
    if ((version == kSigVersionLegacy && size != kSigEntrySizeV1) ||
        (version == kSigVersion && size != kSigEntrySize))
        return SigDecodeStatus::kVersionSkew;
    if (version != kSigVersionLegacy && version != kSigVersion)
        return SigDecodeStatus::kVersionSkew;

    SigEntry e;
    e.key.specHash = r.u64();
    e.key.contentHash = r.u64();
    e.key.workloadSeed = r.u64();
    e.key.seedSalt = r.u64();
    e.key.stopConfigKey = r.u64();
    e.key.maxThreadInstructions = r.u64();
    e.key.maxCycles = r.u64();
    e.key.ipcBucketCycles = r.u32();
    e.key.ipcWindowBuckets = r.u32();
    e.key.scheduler = static_cast<uint8_t>(r.u32());
    for (size_t i = 0; i < kSigDims; ++i)
        e.sig.q[i] = static_cast<int32_t>(r.u32());
    e.expThreadInsts = r.f64();
    e.expWarpInsts = r.u64();
    e.numCtas = r.u64();
    if (version >= kSigVersion) {
        e.auditCount = r.u32();
        uint32_t verdict = r.u32();
        e.errEwma = r.f64();
        if (verdict > static_cast<uint32_t>(SigVerdict::kQuarantined))
            return SigDecodeStatus::kCorrupt;
        if (!(std::isfinite(e.errEwma) && e.errEwma >= 0.0))
            return SigDecodeStatus::kCorrupt;
        e.verdict = static_cast<SigVerdict>(verdict);
    }
    if (!r.ok || r.left != 0)
        return SigDecodeStatus::kCorrupt;
    if (!(e.expThreadInsts > 0) || e.numCtas == 0)
        return SigDecodeStatus::kCorrupt; // zero basis: never servable
    *out = std::move(e);
    return SigDecodeStatus::kOk;
}

bool
decodeSigEntry(const void *data, size_t size, SigEntry *out)
{
    return decodeSigEntryEx(data, size, out, nullptr) ==
           SigDecodeStatus::kOk;
}

SignatureIndex::SignatureIndex(std::string root)
    : dir_(std::move(root), kSigEntryExt, "signature index")
{
    uint64_t corrupt = 0, legacy = 0;
    dir_.walk([&](const std::string &path, uint64_t nameHash) {
        std::ifstream is(path, std::ios::binary);
        // Over-read by one byte so trailing junk fails the size check.
        std::string bytes(kSigEntrySize + 1, '\0');
        is.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        size_t got = static_cast<size_t>(is.gcount());

        // Injected read faults key deterministically per entry by the
        // key hash its file is named for.
        if (auto flt = pka::common::faultAt("store.read", nameHash)) {
            if (*flt == pka::common::FaultKind::kCorrupt)
                bytes[0] = static_cast<char>(bytes[0] ^ 0xff);
            else if (*flt == pka::common::FaultKind::kShortWrite)
                got /= 2;
            // kIoError/kThrow/kHang degrade to a skipped entry at load:
            // the index is an accelerator, never a correctness
            // dependency, so a sick disk must not wedge the open.
            else
                got = 0;
        }

        SigEntry e;
        uint32_t version = 0;
        if (decodeSigEntryEx(bytes.data(), got, &e, &version) !=
            SigDecodeStatus::kOk) {
            ++corrupt;
            warnRateLimited(
                "sig.corrupt",
                strfmt("signature index: skipping corrupt entry '%s' "
                       "(%zu bytes)",
                       path.c_str(), got));
            return;
        }
        if (version < 2)
            ++legacy; // PR 8-era entry: serves as unaudited
        entries_.push_back(e);
        entryKeyHashes_.push_back(sim::kernelSimKeyHash(e.key));
    });
    loaded_.store(entries_.size(), std::memory_order_relaxed);
    if (corrupt)
        corruptSkipped_.fetch_add(corrupt, std::memory_order_relaxed);
    if (legacy)
        legacyLoaded_.fetch_add(legacy, std::memory_order_relaxed);
}

uint64_t
SignatureIndex::neighborhoodKey(const KernelSignature &sig)
{
    // Pool kGovernorCells grid cells per dimension (~6% relative
    // mismatch in log space at the 1/1024 step) into one neighborhood:
    // wide enough that a violating entry and the probes it would have
    // served land in the same bucket, narrow enough that an unrelated
    // kernel family keeps its own tolerance.
    constexpr int32_t kGovernorCells = 64;
    uint64_t h = 1469598103934665603ull; // FNV-1a
    for (int32_t q : sig.q) {
        int32_t cell = q >= 0 ? q / kGovernorCells
                              : -((-q + kGovernorCells - 1) / kGovernorCells);
        h ^= static_cast<uint32_t>(cell);
        h *= 1099511628211ull;
    }
    return h;
}

SigProbe
SignatureIndex::probe(const KernelSignature &sig, double tolerance) const
{
    probes_.fetch_add(1, std::memory_order_relaxed);
    SigProbe best;
    uint64_t best_hash = 0;
    {
        std::lock_guard<std::mutex> lk(m_);
        auto gov = governors_.find(neighborhoodKey(sig));
        if (gov != governors_.end())
            tolerance *= gov->second.scale;
        for (size_t i = 0; i < entries_.size(); ++i) {
            if (entries_[i].verdict == SigVerdict::kQuarantined)
                continue; // audited and found lying: never served again
            double d = sigDistance(sig, entries_[i].sig);
            if (d > tolerance)
                continue;
            if (!best.hit || d < best.distance ||
                (d == best.distance && entryKeyHashes_[i] < best_hash)) {
                best.hit = true;
                best.entry = entries_[i];
                best.distance = d;
                best_hash = entryKeyHashes_[i];
            }
        }
    }
    if (best.hit)
        probeHits_.fetch_add(1, std::memory_order_relaxed);
    return best;
}

void
SignatureIndex::recordAudit(uint64_t keyHash, double observedErr,
                            bool violation) const
{
    SigEntry updated;
    bool resident = false;
    bool newly_quarantined = false;
    {
        std::lock_guard<std::mutex> lk(m_);
        for (size_t i = 0; i < entryKeyHashes_.size(); ++i) {
            if (entryKeyHashes_[i] != keyHash)
                continue;
            SigEntry &e = entries_[i];
            e.errEwma = e.auditCount == 0
                            ? observedErr
                            : kAuditEwmaAlpha * observedErr +
                                  (1.0 - kAuditEwmaAlpha) * e.errEwma;
            ++e.auditCount;
            if (violation) {
                newly_quarantined = e.verdict != SigVerdict::kQuarantined;
                e.verdict = SigVerdict::kQuarantined;
            } else if (e.verdict == SigVerdict::kUnaudited) {
                e.verdict = SigVerdict::kClean;
            }
            updated = e;
            resident = true;

            // Adaptive tolerance governor of the entry's neighborhood.
            GovernorState &g = governors_[neighborhoodKey(e.sig)];
            if (violation) {
                g.cleanStreak = 0;
                if (g.scale > kGovernorFloor) {
                    g.scale = std::max(kGovernorFloor, g.scale * 0.5);
                    governorTightened_.fetch_add(
                        1, std::memory_order_relaxed);
                }
            } else if (++g.cleanStreak >= kGovernorRelaxStreak) {
                g.cleanStreak = 0;
                if (g.scale < 1.0) {
                    g.scale = std::min(1.0, g.scale * 1.25);
                    governorRelaxed_.fetch_add(1,
                                               std::memory_order_relaxed);
                }
            }
            break;
        }
    }
    if (!resident)
        return; // evicted (or never indexed here): nothing to heal
    auditsRecorded_.fetch_add(1, std::memory_order_relaxed);
    if (violation) {
        auditViolations_.fetch_add(1, std::memory_order_relaxed);
        if (newly_quarantined)
            warnRateLimited(
                "sig.quarantine",
                strfmt("signature index: quarantined entry %s after a "
                       "bound violation (observed %.4f relative error)",
                       hex16(keyHash).c_str(), observedErr));
    }
    dir_.publish(keyHash, encodeSigEntry(updated));
}

void
SignatureIndex::insert(const SigEntry &e) const
{
    const uint64_t key_hash = sim::kernelSimKeyHash(e.key);
    {
        std::lock_guard<std::mutex> lk(m_);
        for (uint64_t h : entryKeyHashes_)
            if (h == key_hash)
                return; // already indexed (racing workers, warm replay)
        entries_.push_back(e);
        entryKeyHashes_.push_back(key_hash);
        trimResidentLocked();
    }
    inserts_.fetch_add(1, std::memory_order_relaxed);
    // A failed or skipped publish keeps the entry resident: the tier
    // then serves process-locally, it never fails a campaign.
    dir_.publish(key_hash, encodeSigEntry(e));
}

void
SignatureIndex::trimResidentLocked() const
{
    uint64_t budget = residentBudgetBytes_.load(std::memory_order_relaxed);
    if (budget == 0)
        return;
    size_t max_entries =
        static_cast<size_t>(budget / kResidentEntryBytes);
    if (max_entries == 0)
        max_entries = 1; // a budget too small for one entry keeps one
    if (entries_.size() <= max_entries)
        return;
    size_t drop = entries_.size() - max_entries;
    // Oldest-first: resident order is load-then-insert order, so the
    // front of the vector is the longest-unrefreshed population.
    entries_.erase(entries_.begin(),
                   entries_.begin() + static_cast<ptrdiff_t>(drop));
    entryKeyHashes_.erase(entryKeyHashes_.begin(),
                          entryKeyHashes_.begin() +
                              static_cast<ptrdiff_t>(drop));
    residentEvicted_.fetch_add(drop, std::memory_order_relaxed);
}

void
SignatureIndex::setResidentBudgetBytes(uint64_t bytes) const
{
    residentBudgetBytes_.store(bytes, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lk(m_);
    trimResidentLocked();
}

size_t
SignatureIndex::size() const
{
    std::lock_guard<std::mutex> lk(m_);
    return entries_.size();
}

SigIndexStatsSnapshot
SignatureIndex::stats() const
{
    SigIndexStatsSnapshot s;
    s.entries = size();
    s.loaded = loaded_.load(std::memory_order_relaxed);
    s.corruptSkipped = corruptSkipped_.load(std::memory_order_relaxed);
    s.probes = probes_.load(std::memory_order_relaxed);
    s.probeHits = probeHits_.load(std::memory_order_relaxed);
    s.inserts = inserts_.load(std::memory_order_relaxed);
    DurableDirStats w = dir_.stats();
    s.insertFailures = w.failures;
    s.ioRetries = w.ioRetries;
    s.orphansSwept = w.orphansSwept;
    s.degraded = w.degraded;
    s.persistsSkippedDegraded = w.skippedDegraded;
    s.residentEvicted = residentEvicted_.load(std::memory_order_relaxed);
    s.auditsRecorded = auditsRecorded_.load(std::memory_order_relaxed);
    s.auditViolations = auditViolations_.load(std::memory_order_relaxed);
    s.legacyLoaded = legacyLoaded_.load(std::memory_order_relaxed);
    s.governorTightened =
        governorTightened_.load(std::memory_order_relaxed);
    s.governorRelaxed = governorRelaxed_.load(std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lk(m_);
        for (const SigEntry &e : entries_)
            if (e.verdict == SigVerdict::kQuarantined)
                ++s.quarantined;
        for (const auto &[key, g] : governors_)
            s.governorMinScale = std::min(s.governorMinScale, g.scale);
    }
    return s;
}

} // namespace pka::store
