/**
 * @file
 * The axes of a run: one declaration of every ExperimentConfig field
 * that a command line or a fuzz repro file can set.
 *
 * Each RunAxis names its repro-file key, its CLI flag when both
 * `burstsim` and `burstsim_campaign` take one, and one token codec that
 * prints the axis from a config and parses a token into it. The fuzz
 * repro format (fuzz/point.hh), the shrinker and both CLIs read this
 * table, so every token is spelled once and a bad token is always a
 * `config` SimError.
 *
 * canonicalConfig() (sweep.hh) stays hand-written — its journal
 * encoding is positional — and a test ties it to this table: every
 * axis except `horizon_memo` moves the config key.
 */

#ifndef BURSTSIM_SIM_RUN_AXES_HH
#define BURSTSIM_SIM_RUN_AXES_HH

#include <functional>
#include <string>
#include <vector>

#include "sim/experiment.hh"

namespace bsim
{
class ArgParser;
} // namespace bsim

namespace bsim::sim
{

/** One settable axis of a run. */
struct RunAxis
{
    /** Identity; also the repro-file key when `repro` is set. */
    const char *name = nullptr;
    /** Part of the fuzz repro format (in table order). */
    bool repro = true;
    /** Shared CLI flag without the leading "--", or nullptr. */
    const char *flag = nullptr;
    /** For a boolean axis's CLI switch, the token its presence applies
     *  (the non-default one); nullptr when the flag takes a value. */
    const char *switchSets = nullptr;
    /** CLI help; empty to show `expects` (the choice axes do). */
    const char *help = "";
    /** What a valid token looks like, for errors and help. */
    std::string expects;
    /** The axis's token in @p cfg. */
    std::function<std::string(const ExperimentConfig &)> print;
    /** Set the axis from a token; false (cfg untouched) on a bad one. */
    std::function<bool(ExperimentConfig &, const std::string &)> parse;
};

/** Every run axis, in repro-file key order. */
const std::vector<RunAxis> &runAxes();

/** The axis called @p name; nullptr when there is none. */
const RunAxis *findRunAxis(const std::string &name);

/** The axis called @p name; panics when there is none. */
const RunAxis &runAxis(const std::string &name);

/**
 * Set @p axis of @p cfg from @p token. A bad token throws
 * SimError(Config) "<where> expects <...>, got '<token>'".
 */
void setAxis(const RunAxis &axis, ExperimentConfig &cfg,
             const std::string &token, const std::string &where);

/** Declare every shared CLI flag; defaults print from ExperimentConfig{}. */
void addRunAxisOptions(ArgParser &args);

/** Apply every shared CLI flag given in @p args to @p cfg. */
void applyRunAxisOptions(const ArgParser &args, ExperimentConfig &cfg);

} // namespace bsim::sim

#endif // BURSTSIM_SIM_RUN_AXES_HH
