/**
 * @file
 * Corpus replay: every checked-in repro under tests/fuzz/corpus/ must
 * parse and pass the full oracle battery. Each file is a minimised
 * witness of a bug that was fixed — a failure here means a fixed bug
 * has come back. Every file must also round-trip through the repro
 * codec, so a format change that would rewrite a checked-in file fails.
 * The directory is baked in at compile time
 * (BURSTSIM_FUZZ_CORPUS_DIR) so ctest can run from anywhere.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz/oracle.hh"

using namespace bsim;
using namespace bsim::fuzz;

#ifndef BURSTSIM_FUZZ_CORPUS_DIR
#error "BURSTSIM_FUZZ_CORPUS_DIR must point at tests/fuzz/corpus"
#endif

namespace
{

std::vector<std::string>
corpusFiles()
{
    namespace fs = std::filesystem;
    std::vector<std::string> files;
    for (const auto &e : fs::directory_iterator(BURSTSIM_FUZZ_CORPUS_DIR))
        if (e.is_regular_file() && e.path().extension() == ".repro")
            files.push_back(e.path().string());
    std::sort(files.begin(), files.end());
    return files;
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

/** The non-blank, non-comment lines of a repro file. */
std::vector<std::string>
contentLines(const std::string &text)
{
    std::vector<std::string> out;
    std::istringstream is(text);
    for (std::string line; std::getline(is, line);)
        if (!line.empty() && line[0] != '#')
            out.push_back(line);
    return out;
}

} // namespace

TEST(Corpus, HasTheKnownRegressionEntries)
{
    const auto files = corpusFiles();
    ASSERT_GE(files.size(), 4u)
        << "corpus lost entries: " << BURSTSIM_FUZZ_CORPUS_DIR;
}

TEST(Corpus, EveryEntryParsesAndPassesAllOracles)
{
    for (const std::string &path : corpusFiles()) {
        SCOPED_TRACE(path);
        FuzzPoint p;
        ASSERT_NO_THROW(p = parsePoint(slurp(path)));
        const OracleVerdict v = checkPoint(p);
        EXPECT_TRUE(v.ok) << pointLabel(p) << ": [" << v.oracle << "] "
                          << v.detail;
    }
}

TEST(Corpus, EveryEntryRoundTripsThroughTheReproCodec)
{
    // serializePoint(parsePoint(text)) reproduces the file's key and
    // trace lines. Files written before the watermark_drain axis
    // existed lack its key and take the default.
    std::size_t without_watermark = 0;
    for (const std::string &path : corpusFiles()) {
        SCOPED_TRACE(path);
        const std::string text = slurp(path);
        std::vector<std::string> want = contentLines(text);
        if (text.find("\nwatermark_drain=") == std::string::npos) {
            without_watermark += 1;
            const auto coalesce = std::find_if(
                want.begin(), want.end(), [](const std::string &l) {
                    return l.rfind("coalesce_writes=", 0) == 0;
                });
            ASSERT_NE(coalesce, want.end());
            want.insert(coalesce + 1, "watermark_drain=0");
        }
        EXPECT_EQ(contentLines(serializePoint(parsePoint(text))), want);
    }
    EXPECT_EQ(without_watermark, 4u);
}
