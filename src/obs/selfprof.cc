#include "obs/selfprof.hh"

#include <chrono>
#include <cstdio>
#include <ostream>

namespace bsim::obs::prof
{

namespace
{

/** Raw timestamp in timer ticks (rdtsc on x86-64, steady ns elsewhere). */
inline std::uint64_t
rawNow()
{
#if defined(__x86_64__) || defined(_M_X64)
    return __builtin_ia32_rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
#endif
}

/** Microseconds per raw tick, calibrated once per process. */
double
usPerTick()
{
#if defined(__x86_64__) || defined(_M_X64)
    static const double us_per_tick = [] {
        // Calibrate the TSC against steady_clock over a short window.
        // Invariant-TSC hardware makes one calibration good for the
        // whole process; a 2 ms window keeps the error well under 1%.
        const auto wall0 = std::chrono::steady_clock::now();
        const std::uint64_t tsc0 = rawNow();
        for (;;) {
            const auto wall1 = std::chrono::steady_clock::now();
            if (wall1 - wall0 >= std::chrono::milliseconds(2)) {
                const std::uint64_t tsc1 = rawNow();
                const double us =
                    std::chrono::duration<double, std::micro>(wall1 - wall0)
                        .count();
                const double ticks = static_cast<double>(tsc1 - tsc0);
                return ticks > 0 ? us / ticks : 1e-3;
            }
        }
    }();
    return us_per_tick;
#else
    return 1e-3; // raw ticks are steady_clock nanoseconds
#endif
}

/** Intrusive tree node over a per-thread pool (indices, not pointers,
 *  so the pool vector may reallocate while scopes are open). */
struct Node
{
    Phase phase = Phase::Run;
    int parent = -1;
    int firstChild = -1;
    int nextSibling = -1;
    std::uint64_t count = 0;
    std::uint64_t ticks = 0; //!< accumulated inclusive raw ticks
};

struct Tls
{
    std::vector<Node> pool;
    int current = -1; //!< innermost open scope, -1 = at root level
    /** Open-scope stack: (node index, entry timestamp). */
    std::vector<std::pair<int, std::uint64_t>> open;
    /** Root-level children in creation order. */
    std::vector<int> roots;
};

Tls &
tls()
{
    thread_local Tls t;
    return t;
}

/** Find or create the child of @p parent with phase @p p. */
int
childFor(Tls &t, int parent, Phase p)
{
    int head = parent < 0 ? -1 : t.pool[parent].firstChild;
    for (int i = head; i >= 0; i = t.pool[i].nextSibling)
        if (t.pool[i].phase == p)
            return i;
    if (parent < 0) {
        for (int i : t.roots)
            if (t.pool[i].phase == p)
                return i;
    }
    const int idx = static_cast<int>(t.pool.size());
    Node n;
    n.phase = p;
    n.parent = parent;
    if (parent >= 0) {
        n.nextSibling = t.pool[parent].firstChild;
        t.pool[parent].firstChild = idx;
    } else {
        t.roots.push_back(idx);
    }
    t.pool.push_back(n);
    return idx;
}

void
emit(const Tls &t, int idx, int depth, SelfProfile &out)
{
    const Node &n = t.pool[idx];
    ProfNode pn;
    pn.phase = n.phase;
    pn.depth = depth;
    pn.count = n.count;
    pn.totalUs = static_cast<double>(n.ticks) * usPerTick();
    double child_us = 0.0;
    // firstChild links are LIFO; collect then reverse for stable order.
    std::vector<int> kids;
    for (int c = n.firstChild; c >= 0; c = t.pool[c].nextSibling)
        kids.push_back(c);
    pn.selfUs = pn.totalUs;
    out.nodes.push_back(pn);
    const std::size_t slot = out.nodes.size() - 1;
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
        child_us += static_cast<double>(t.pool[*it].ticks) * usPerTick();
        emit(t, *it, depth + 1, out);
    }
    out.nodes[slot].selfUs = pn.totalUs - child_us;
    if (out.nodes[slot].selfUs < 0)
        out.nodes[slot].selfUs = 0;
    out.selfUsByPhase[static_cast<std::size_t>(n.phase)] +=
        out.nodes[slot].selfUs;
}

} // namespace

const char *
phaseName(Phase p)
{
    switch (p) {
      case Phase::Run: return "run";
      case Phase::CpuPhase: return "cpu";
      case Phase::FsbAdmit: return "fsb_admit";
      case Phase::CtrlTick: return "ctrl_tick";
      case Phase::SchedPick: return "sched_pick";
      case Phase::TimingCheck: return "timing_check";
      case Phase::StallScan: return "stall_scan";
      case Phase::RefreshEngine: return "refresh";
      case Phase::Horizon: return "horizon";
      case Phase::SchedHorizon: return "sched_horizon";
      case Phase::SkipSpan: return "skip_span";
      case Phase::ObsExport: return "obs_export";
    }
    return "?";
}

void
setEnabled(bool on)
{
    detail::tlsEnabled = on;
}

void
reset()
{
    Tls &t = tls();
    t.pool.clear();
    t.open.clear();
    t.roots.clear();
    t.current = -1;
}

void
Scope::enter(Phase p)
{
    Tls &t = tls();
    const int idx = childFor(t, t.current, p);
    t.pool[idx].count += 1;
    t.open.emplace_back(idx, rawNow());
    t.current = idx;
}

void
Scope::leave()
{
    Tls &t = tls();
    if (t.open.empty())
        return; // tree was reset under an open scope; drop silently
    const auto [idx, start] = t.open.back();
    t.open.pop_back();
    t.pool[idx].ticks += rawNow() - start;
    t.current = t.open.empty() ? -1 : t.open.back().first;
}

SelfProfile
collect()
{
    const Tls &t = tls();
    SelfProfile out;
    out.valid = enabled();
    if (!out.valid)
        return out;
    for (int r : t.roots) {
        emit(t, r, 0, out);
        out.totalUs += static_cast<double>(t.pool[r].ticks) * usPerTick();
    }
    return out;
}

void
SelfProfile::writeText(std::ostream &os) const
{
    os << "Self-profile (host wall time; nondeterministic)\n";
    if (!valid) {
        os << "  (profiling was off)\n";
        return;
    }
    char buf[160];
    for (const auto &n : nodes) {
        std::snprintf(buf, sizeof(buf), "  %*s%-14s %12.1f us  self %10.1f us  x%llu\n",
                      n.depth * 2, "", phaseName(n.phase), n.totalUs, n.selfUs,
                      static_cast<unsigned long long>(n.count));
        os << buf;
    }
    std::snprintf(buf, sizeof(buf), "  total %.1f us\n", totalUs);
    os << buf;
}

} // namespace bsim::obs::prof
