/**
 * @file
 * Differential fuzzing front end.
 *
 * Three modes:
 *   burstsim_fuzz --seed 1 --runs 200          run a campaign
 *   burstsim_fuzz --replay repro.txt           re-check one repro file
 *   burstsim_fuzz --corpus tests/fuzz/corpus   re-check a directory
 *
 * Exit codes match the sweep CLI: 0 all oracles clean, 3 failures
 * found (minimised repro files are written to --repro-dir), 1 runtime
 * error, 2 bad arguments, 130 interrupted.
 */

#include <atomic>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/args.hh"
#include "common/error.hh"
#include "fuzz/fuzzer.hh"

using namespace bsim;

namespace
{

std::atomic<bool> g_interrupted{false};

extern "C" void
onSigint(int)
{
    g_interrupted.store(true);
}

std::string
readFileOrThrow(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        throwSimError(ErrorCategory::Resource, "cannot read '%s'",
                      path.c_str());
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

/** Replay one repro file; prints a PASS/FAIL line; true when clean. */
bool
replayFile(const std::string &path, const fuzz::OracleOptions &oracle)
{
    const fuzz::FuzzPoint p = fuzz::parsePoint(readFileOrThrow(path));
    const fuzz::OracleVerdict v = fuzz::checkPoint(p, oracle);
    if (v.ok) {
        std::cout << "PASS " << path << " (" << fuzz::pointLabel(p)
                  << ")\n";
        return true;
    }
    std::cout << "FAIL " << path << " [" << v.oracle << "] "
              << v.detail << '\n';
    return false;
}

int
runCli(int argc, char **argv)
{
    ArgParser args("burstsim_fuzz",
                   "Differential fuzzer for the burstsim engines, "
                   "schedulers and protocol auditor.");
    args.addOption("seed", "1", "campaign seed (determines all points)");
    args.addOption("runs", "100", "points to sample and check");
    args.addOption("time-budget", "0",
                   "wall-clock budget in seconds (0 = none)");
    args.addOption("corpus", "",
                   "replay every *.repro file in this directory");
    args.addOption("replay", "", "replay one repro file");
    args.addOption("repro-dir", "fuzz-repros",
                   "where campaign failures write minimised repros");
    args.addOption("scratch-dir", "",
                   "inline-trace scratch directory (default: temp)");
    args.addFlag("no-shrink", "report failures without minimising");

    if (!args.parse(argc, argv, std::cerr))
        return args.helpRequested() ? 0 : 2;

    fuzz::OracleOptions oracle;
    oracle.scratchDir = args.str("scratch-dir");

    if (!args.str("replay").empty())
        return replayFile(args.str("replay"), oracle) ? 0 : 3;

    if (!args.str("corpus").empty()) {
        namespace fs = std::filesystem;
        std::vector<std::string> files;
        for (const auto &e : fs::directory_iterator(args.str("corpus")))
            if (e.is_regular_file() &&
                e.path().extension() == ".repro")
                files.push_back(e.path().string());
        std::sort(files.begin(), files.end());
        if (files.empty()) {
            std::cerr << "burstsim_fuzz: no *.repro files in '"
                      << args.str("corpus") << "'\n";
            return 2;
        }
        std::size_t failed = 0;
        for (const std::string &f : files)
            failed += replayFile(f, oracle) ? 0 : 1;
        std::cout << files.size() - failed << '/' << files.size()
                  << " corpus entries clean\n";
        return failed ? 3 : 0;
    }

    fuzz::FuzzOptions opt;
    opt.seed = args.u64("seed");
    opt.runs = unsigned(args.u64("runs"));
    opt.timeBudgetSec = double(args.u64("time-budget"));
    opt.shrink = !args.flag("no-shrink");
    opt.oracle = oracle;
    opt.progress = &std::cout;

    std::signal(SIGINT, onSigint);
    const fuzz::FuzzReport rep = fuzz::runFuzz(opt);
    std::signal(SIGINT, SIG_DFL);
    if (g_interrupted.load()) {
        std::cerr << "burstsim_fuzz: interrupted\n";
        return 130;
    }

    std::cout << "fuzz: " << rep.executed << " points checked, "
              << rep.failures.size() << " failures"
              << (rep.outOfTime ? " (time budget reached)" : "") << '\n';

    if (rep.failures.empty())
        return 0;

    // Persist each minimised failure as a replayable repro file.
    namespace fs = std::filesystem;
    const fs::path dir = args.str("repro-dir");
    std::error_code ec;
    fs::create_directories(dir, ec);
    for (const fuzz::FuzzFailure &f : rep.failures) {
        std::ostringstream name;
        name << f.verdict.oracle << "-seed" << opt.seed << "-run"
             << f.runIndex << ".repro";
        const fs::path path = dir / name.str();
        std::ofstream os(path);
        os << fuzz::serializePoint(
            f.minimized, "[" + f.verdict.oracle + "] " + f.verdict.detail);
        if (!os)
            throwSimError(ErrorCategory::Resource,
                          "cannot write repro '%s'",
                          path.string().c_str());
        std::cout << "fuzz: wrote " << path.string() << '\n';
    }
    return 3;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return runCli(argc, argv);
    } catch (const SimError &e) {
        std::cerr << "burstsim_fuzz: " << e.describe() << '\n';
        return 1;
    }
}
