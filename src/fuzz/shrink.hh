/**
 * @file
 * Automatic minimisation of a failing FuzzPoint.
 *
 * The shrinker walks the point's repro axes (sim/run_axes.hh)
 * greedily: one axis at a time it tries resetting the axis to its
 * default and keeps the reset whenever the point still fails an
 * oracle. After the axes settle it minimises the workload dimension —
 * halving the instruction count of synthetic workloads, or
 * binary-searching the shortest failing prefix of an inline trace —
 * and repeats until a fixpoint. The result is the
 * smallest repro in the partial order "fewer axes changed from
 * default, then shorter trace": typically one or two axes and a few
 * hundred instructions, small enough to read and check in as a corpus
 * file.
 *
 * The shrunk point is re-verified on every probe by the full oracle
 * battery, so a shrink can never "walk off" the bug onto a different,
 * coincidental failure without that failure itself being real.
 */

#ifndef BURSTSIM_FUZZ_SHRINK_HH
#define BURSTSIM_FUZZ_SHRINK_HH

#include "fuzz/oracle.hh"
#include "fuzz/point.hh"

namespace bsim::fuzz
{

/** Shrinking policy. */
struct ShrinkOptions
{
    /** Probe budget: oracle evaluations before giving up (the point
     *  shrunk so far is still returned). */
    unsigned maxEvaluations = 120;
    /** Synthetic runs are not shrunk below this many instructions. */
    std::uint64_t minInstructions = 500;
    /** Inline traces are not shrunk below this many lines. */
    std::size_t minTraceLines = 8;
    OracleOptions oracle;
};

/** A minimised failing point plus the verdict it still triggers. */
struct ShrinkOutcome
{
    FuzzPoint point;
    OracleVerdict verdict;
    unsigned evaluations = 0; //!< oracle probes spent
};

/**
 * Minimise @p failing, which must currently fail checkPoint() under
 * @p opt.oracle (if it does not, it is returned unchanged with an ok
 * verdict and the caller should treat the failure as flaky).
 */
ShrinkOutcome shrinkPoint(const FuzzPoint &failing,
                          const ShrinkOptions &opt = {});

} // namespace bsim::fuzz

#endif // BURSTSIM_FUZZ_SHRINK_HH
