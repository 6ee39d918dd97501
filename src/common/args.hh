/**
 * @file
 * Tiny command-line argument parser for the burstsim tools.
 *
 * Supports --flag (boolean), --opt value and --opt=value forms, typed
 * accessors with defaults, automatic --help text, and strict unknown-
 * option rejection.
 */

#ifndef BURSTSIM_COMMON_ARGS_HH
#define BURSTSIM_COMMON_ARGS_HH

#include <climits>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace bsim
{

/** Declarative command-line parser. */
class ArgParser
{
  public:
    /** Create a parser for a program called @p program. */
    explicit ArgParser(std::string program, std::string description = "");

    /** Declare a boolean flag (present = true). */
    void addFlag(const std::string &name, const std::string &help);

    /** Declare a string option with a default. */
    void addOption(const std::string &name, const std::string &def,
                   const std::string &help);

    /**
     * Parse argv. Returns false (after printing a message) on --help or
     * on errors; callers should exit in both cases, with status 0 for
     * help and nonzero for errors (see helpRequested()).
     */
    bool parse(int argc, const char *const *argv, std::ostream &err);

    /** True if parse() returned false because of --help. */
    bool helpRequested() const { return helpRequested_; }

    /** Was @p name given on the command line? */
    bool given(const std::string &name) const;

    /** Boolean flag value. */
    bool flag(const std::string &name) const;

    /** String option value (default when absent). */
    const std::string &str(const std::string &name) const;

    /** Unsigned option value; throws SimError(ErrorCategory::Config)
     *  on non-numeric, negative or out-of-range input. */
    std::uint64_t u64(const std::string &name) const
    {
        return parseU64(name, str(name));
    }

    /** Option value the tools narrow to `unsigned`: u64() capped at
     *  UINT_MAX, less @p headroom for a caller that adds to it. */
    unsigned
    u32(const std::string &name, unsigned headroom = 0) const
    {
        return unsigned(parseU64(name, str(name), UINT_MAX - headroom));
    }

    /** Seconds-valued option; throws SimError(ErrorCategory::Config)
     *  unless it is a finite, non-negative number (nan and inf are
     *  errors). */
    double seconds(const std::string &name) const;

    /** The checked parse behind u64(): @p text as a decimal no larger
     *  than @p max; errors name option --@p name. */
    static std::uint64_t parseU64(const std::string &name,
                                  const std::string &text,
                                  std::uint64_t max = UINT64_MAX);

    /** Positional arguments (everything not starting with --). */
    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

    /** Render the --help text. */
    void printHelp(std::ostream &os) const;

  private:
    struct Spec
    {
        bool isFlag = false;
        std::string def;
        std::string help;
    };

    std::string program_;
    std::string description_;
    std::vector<std::string> order_; //!< declaration order for help
    std::map<std::string, Spec> specs_;
    std::map<std::string, std::string> values_;
    std::vector<std::string> positional_;
    bool helpRequested_ = false;
};

} // namespace bsim

#endif // BURSTSIM_COMMON_ARGS_HH
