/**
 * @file
 * One point of the differential fuzzer's search space.
 *
 * A FuzzPoint is an ExperimentConfig plus, for the inline-trace
 * workload, the trace itself. Its repro axes are the run-axis table
 * (sim/run_axes.hh): workload, scheduler mechanism, threshold, DRAM
 * geometry and page/mapping policy, device generation, timing variant,
 * and the extension switches. Points round-trip through a text "repro
 * file" of `key=token` lines in table order, so every failure the
 * fuzzer finds becomes a checked-in file anyone can replay with
 *     burstsim_fuzz --replay <file>
 * and the shrinker (shrink.hh) can walk the space axis by axis.
 *
 * Only the repro axes travel in the file: a point's other config
 * fields (engine, observability, hooks, file paths) stay at their
 * defaults, and the oracles set what they need per run.
 */

#ifndef BURSTSIM_FUZZ_POINT_HH
#define BURSTSIM_FUZZ_POINT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "sim/experiment.hh"

namespace bsim::fuzz
{

/** Sentinel workload name: the point carries its own trace lines. */
inline const char *const kInlineTraceWorkload = "@inline";

/**
 * One sampled / shrunk / replayed configuration point: an
 * ExperimentConfig plus the inline trace a config cannot carry. Its
 * repro axes are the sim::runAxes() entries marked `repro`.
 */
struct FuzzPoint : sim::ExperimentConfig
{
    FuzzPoint() { instructions = 6000; } //!< ignored for inline traces

    /** Trace-file lines (without newlines) when workload is
     *  kInlineTraceWorkload. */
    std::vector<std::string> trace;
};

/** The all-defaults point (the shrinker's target). */
FuzzPoint defaultPoint();

/** Deterministically sample one point from @p rng. */
FuzzPoint samplePoint(Rng &rng);

/**
 * Lower @p p onto an ExperimentConfig. Inline traces are materialised
 * under @p scratch_dir (content-addressed file name, so repeated runs
 * of the same point reuse one file); empty uses the system temp dir.
 */
sim::ExperimentConfig toConfig(const FuzzPoint &p,
                               const std::string &scratch_dir = "");

/**
 * Number of config axes of @p p that differ from defaultPoint().
 * `instructions` and the inline trace length do not count: they are
 * the "trace prefix" dimension, minimised separately by the shrinker.
 */
int axesChangedFromDefault(const FuzzPoint &p);

/** Compact one-line description, e.g. "mcf/Burst pp=predictive". */
std::string pointLabel(const FuzzPoint &p);

/** Render @p p as a repro file; @p note becomes a header comment. */
std::string serializePoint(const FuzzPoint &p,
                           const std::string &note = "");

/** Parse a repro file; throws SimError(Config) on malformed input. */
FuzzPoint parsePoint(const std::string &text);

} // namespace bsim::fuzz

#endif // BURSTSIM_FUZZ_POINT_HH
