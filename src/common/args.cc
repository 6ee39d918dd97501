#include "common/args.hh"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <ostream>

#include "common/error.hh"
#include "common/log.hh"

namespace bsim
{

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description))
{
}

void
ArgParser::addFlag(const std::string &name, const std::string &help)
{
    Spec s;
    s.isFlag = true;
    s.help = help;
    specs_[name] = std::move(s);
    order_.push_back(name);
}

void
ArgParser::addOption(const std::string &name, const std::string &def,
                     const std::string &help)
{
    Spec s;
    s.def = def;
    s.help = help;
    specs_[name] = std::move(s);
    order_.push_back(name);
}

bool
ArgParser::parse(int argc, const char *const *argv, std::ostream &err)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            printHelp(err);
            helpRequested_ = true;
            return false;
        }
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(arg);
            continue;
        }
        std::string name = arg.substr(2);
        std::string inline_value;
        bool has_inline = false;
        if (const auto eq = name.find('='); eq != std::string::npos) {
            inline_value = name.substr(eq + 1);
            name = name.substr(0, eq);
            has_inline = true;
        }
        const auto it = specs_.find(name);
        if (it == specs_.end()) {
            err << program_ << ": unknown option --" << name
                << " (try --help)\n";
            return false;
        }
        if (it->second.isFlag) {
            if (has_inline) {
                err << program_ << ": flag --" << name
                    << " takes no value\n";
                return false;
            }
            values_[name] = "1";
            continue;
        }
        if (has_inline) {
            values_[name] = inline_value;
        } else if (i + 1 < argc) {
            values_[name] = argv[++i];
        } else {
            err << program_ << ": option --" << name
                << " requires a value\n";
            return false;
        }
    }
    return true;
}

bool
ArgParser::given(const std::string &name) const
{
    return values_.count(name) != 0;
}

bool
ArgParser::flag(const std::string &name) const
{
    const auto it = specs_.find(name);
    if (it == specs_.end() || !it->second.isFlag)
        panic("args: '%s' is not a declared flag", name.c_str());
    return values_.count(name) != 0;
}

const std::string &
ArgParser::str(const std::string &name) const
{
    const auto it = specs_.find(name);
    if (it == specs_.end() || it->second.isFlag)
        panic("args: '%s' is not a declared option", name.c_str());
    const auto v = values_.find(name);
    return v != values_.end() ? v->second : it->second.def;
}

std::uint64_t
ArgParser::parseU64(const std::string &name, const std::string &text,
                    std::uint64_t max)
{
    // strtoull skips blanks and negates a leading '-' into a huge
    // value, so a sign is rejected before it can wrap.
    const std::size_t first = text.find_first_not_of(" \t");
    if (first != std::string::npos && text[first] == '-')
        throwSimError(ErrorCategory::Config,
                      "option --%s: '%s' is negative", name.c_str(),
                      text.c_str());
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0')
        throwSimError(ErrorCategory::Config,
                      "option --%s: '%s' is not a number", name.c_str(),
                      text.c_str());
    if (errno == ERANGE || v > max)
        throwSimError(ErrorCategory::Config,
                      "option --%s: '%s' is out of range (at most %llu)",
                      name.c_str(), text.c_str(),
                      (unsigned long long)max);
    return v;
}

double
ArgParser::seconds(const std::string &name) const
{
    const std::string &text = str(name);
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    // strtod also reads "nan" and "inf", and overflows to inf.
    if (end == text.c_str() || *end != '\0' || !std::isfinite(v) || v < 0)
        throwSimError(ErrorCategory::Config,
                      "option --%s: '%s' is not a finite, non-negative "
                      "number of seconds",
                      name.c_str(), text.c_str());
    return v;
}

void
ArgParser::printHelp(std::ostream &os) const
{
    os << "usage: " << program_ << " [options]\n";
    if (!description_.empty())
        os << description_ << "\n";
    os << "\noptions:\n";
    for (const auto &name : order_) {
        const Spec &s = specs_.at(name);
        std::string left = "  --" + name;
        if (!s.isFlag)
            left += " <value>";
        if (left.size() < 28)
            left.resize(28, ' ');
        os << left << s.help;
        if (!s.isFlag && !s.def.empty())
            os << " (default: " << s.def << ")";
        os << '\n';
    }
    os << "  --help                    show this message\n";
}

} // namespace bsim
