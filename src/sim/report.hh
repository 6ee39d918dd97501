/**
 * @file
 * Result reporting: render a RunResult as JSON (machine readable) or as
 * a human-readable text summary. Shared by the CLI tool and available
 * to library users. Per-core sections appear only for CMP mixes and
 * the fairness section only when it was computed, so a single-core
 * report is the same whether or not the run could have been a mix.
 */

#ifndef BURSTSIM_SIM_REPORT_HH
#define BURSTSIM_SIM_REPORT_HH

#include <iosfwd>

#include "sim/experiment.hh"

namespace bsim::sim
{

/** Emit @p r as a JSON object (pretty-printed). */
void writeResultJson(std::ostream &os, const RunResult &r);

/** Emit a human-readable one-run summary. */
void writeResultText(std::ostream &os, const RunResult &r);

} // namespace bsim::sim

#endif // BURSTSIM_SIM_REPORT_HH
