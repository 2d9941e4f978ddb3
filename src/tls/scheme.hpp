/**
 * @file
 * The paper's taxonomy (Figure 2-a) as a configuration type, plus the
 * support-requirement model of Tables 1 and 2.
 */

#ifndef TLSIM_TLS_SCHEME_HPP
#define TLSIM_TLS_SCHEME_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace tlsim::tls {

/** Vertical axis: separation of task state in a processor's buffer. */
enum class Separation : std::uint8_t {
    SingleT,  ///< state of a single speculative task at a time
    MultiTSV, ///< multiple tasks, single version of any variable
    MultiTMV  ///< multiple tasks and multiple versions of a variable
};

/** Horizontal axis: merging of task state with main memory. */
enum class Merging : std::uint8_t {
    EagerAMM, ///< merge strictly at task commit
    LazyAMM,  ///< merge at or after commit (architectural main memory)
    FMM       ///< merge any time (future main memory + history buffer)
};

/**
 * Third axis: how a consumer task treats the *value* of a cross-task
 * read (post-2003 extension; Prophet-style pre-computation/validation).
 * `None` is the paper's baseline — every read waits for the producer's
 * buffered version. `PredictValidate` lets a would-stall cross-task
 * read consume a predicted value immediately, logs the prediction in a
 * per-task validation log, and validates the whole log when the task
 * acquires the commit token; a misprediction squashes the consumer
 * through the ordinary violation/recovery path.
 */
enum class Validation : std::uint8_t {
    None,           ///< paper baseline: reads stall on remote versions
    PredictValidate ///< predict on would-stall reads, validate at commit
};

const char *separationName(Separation s);
const char *mergingName(Merging m);
const char *validationName(Validation v);

/**
 * Hardware supports of Table 1 (bitmask values).
 */
enum Support : std::uint8_t {
    kCTID = 1 << 0, ///< Cache Task ID: task-ID field per cache line
    kCRL = 1 << 1,  ///< Cache Retrieval Logic: version selection in cache
    kMTID = 1 << 2, ///< Memory Task ID: task-ID tags + compare in memory
    kVCL = 1 << 3,  ///< Version Combining Logic for committed versions
    kULOG = 1 << 4, ///< hardware undo log (MHB storage + logic)
    kVPRED = 1 << 5 ///< value-prediction table + validation-log buffer
};

/** A set of supports. */
class SupportSet
{
  public:
    SupportSet() = default;
    explicit SupportSet(std::uint8_t bits) : bits_(bits) {}

    bool has(Support s) const { return bits_ & s; }
    SupportSet with(Support s) const { return SupportSet(bits_ | s); }
    std::uint8_t bits() const { return bits_; }

    /** Number of distinct supports. */
    unsigned count() const;

    /** e.g. "CTID+CRL+VCL"; "none" when empty. */
    std::string toString() const;

    bool operator==(const SupportSet &o) const { return bits_ == o.bits_; }

  private:
    std::uint8_t bits_ = 0;
};

/** Short description of one support (Table 1). */
const char *supportDescription(Support s);

/** All supports, for iteration (Table 1 rows, in bit order). */
const std::vector<Support> &allSupports();

/**
 * One point in the taxonomy: the complete configuration of a buffering
 * scheme.
 */
struct SchemeConfig {
    Separation separation = Separation::SingleT;
    Merging merging = Merging::EagerAMM;
    /** FMM only: maintain the MHB with plain instructions (FMM.Sw). */
    bool softwareLog = false;
    /** Value-validation policy (third axis; None = paper baseline). */
    Validation validation = Validation::None;

    bool predictsValues() const
    {
        return validation == Validation::PredictValidate;
    }

    bool isAmm() const { return merging != Merging::FMM; }
    bool multiTask() const { return separation != Separation::SingleT; }
    bool multiVersion() const
    {
        return separation == Separation::MultiTMV;
    }

    /** e.g. "MultiT&MV Lazy AMM", "MultiT&MV FMM.Sw". */
    std::string name() const;

    /** Hardware supports required (Table 2 / Section 3.3). */
    SupportSet requiredSupports() const;

    /**
     * The paper shades SingleT-FMM and MultiT&SV-FMM as uninteresting:
     * they need nearly all of MultiT&MV-FMM's hardware without its
     * benefits (Section 3.3.4).
     */
    bool isShadedCorner() const
    {
        return merging == Merging::FMM &&
               separation != Separation::MultiTMV;
    }

    /** The six (plus FMM.Sw) configurations evaluated in the paper. */
    static std::vector<SchemeConfig> evaluatedSchemes();

    static SchemeConfig
    make(Separation s, Merging m, bool sw_log = false,
         Validation v = Validation::None)
    {
        return SchemeConfig{s, m, sw_log, v};
    }

    /** This scheme with @p v as its validation policy. */
    SchemeConfig withValidation(Validation v) const
    {
        SchemeConfig out = *this;
        out.validation = v;
        return out;
    }
};

/**
 * Machine-dependent sizes the buffering-cost model needs. Kept as a
 * plain struct (not MachineParams) so the scheme layer stays free of
 * the mem layer; callers fill it from a MachineParams.
 */
struct BufferSizing {
    unsigned numProcs = 16;
    /** L2 lines per processor (CTID/CRL tag overhead scales with it). */
    std::size_t l2LinesPerProc = 8192;
    /** MTID table lines the cost model charges (machine-wide). */
    std::size_t mtidLines = 0;
    /** ULOG write-buffer entries per processor (the log itself lives
     *  in main memory; only the buffer is dedicated hardware). */
    std::size_t undoBufferEntries = 64;
    /** Task-ID tag width in bits (CTID/MTID tag cost per line). */
    unsigned taskIdBits = 12;
    /** VPRED: value-predictor table entries per processor. */
    std::size_t predictorEntries = 1024;
    /** VPRED: validation-log write-buffer entries per processor (the
     *  log itself spills to cacheable memory, like the MHB). */
    std::size_t validationBufferEntries = 64;
};

/**
 * Estimated dedicated-hardware cost, in KB machine-wide, of the
 * supports a scheme requires (extends Tables 1–2 from a checklist to a
 * cost axis). Per-line task-ID tags are charged at taskIdBits per L2
 * line (CTID) or MTID line; CRL and VCL are charged as per-processor
 * comparator/combining logic at a flat line-sized equivalent each;
 * ULOG charges its per-processor log write buffer (line + two task
 * IDs per entry), except under softwareLog where even the buffer
 * lives in plain memory and costs instructions instead of hardware.
 */
double bufferingCostKb(const SchemeConfig &scheme,
                       const BufferSizing &sizing);

/**
 * Figure 4: published scheme -> taxonomy position.
 */
struct PublishedScheme {
    const char *name;
    Separation separation;
    Merging merging;
    /** Eager/Lazy distinction does not apply (e.g. DDSM). */
    bool mergingNotApplicable;
    /** Coarse-recovery software schemes (LRPD, SUDS, ...). */
    bool coarseRecovery;
};

/** The atlas of published schemes the paper maps onto the taxonomy. */
const std::vector<PublishedScheme> &publishedSchemes();

} // namespace tlsim::tls

#endif // TLSIM_TLS_SCHEME_HPP
