#include "fuzz/shrink.hh"

#include <string>

#include "sim/run_axes.hh"

namespace bsim::fuzz
{

namespace
{

/**
 * The repro axes the axis pass resets, in order. Order matters only for
 * taste: reset the exotic axes first so the surviving repro reads as
 * "default + the interesting bits". `instructions` is missing on
 * purpose: the trace-prefix pass halves it instead.
 */
constexpr const char *kResetOrder[] = {
    "rob", "issue_width",
    "dynamic_threshold", "sort_bursts", "critical_first", "rank_aware",
    "coalesce_writes", "watermark_drain",
    "channels", "ranks", "banks",
    "timing", "device", "address_map", "page_policy",
    "threshold", "seed", "mechanism", "workload",
};

} // namespace

ShrinkOutcome
shrinkPoint(const FuzzPoint &failing, const ShrinkOptions &opt)
{
    ShrinkOutcome out;
    out.point = failing;

    // A probe "succeeds" (the shrink step is kept) when the point
    // still fails *some* oracle: chasing the smallest failing input is
    // more valuable than pinning the original oracle, and the verdict
    // returned always matches the final minimised point.
    const auto stillFails = [&](const FuzzPoint &p,
                                OracleVerdict &v) -> bool {
        out.evaluations += 1;
        v = checkPoint(p, opt.oracle);
        return !v.ok;
    };

    OracleVerdict v;
    if (!stillFails(out.point, v)) {
        out.verdict = v; // flaky original: hand it back unshrunk
        return out;
    }
    out.verdict = v;

    const FuzzPoint defaults = defaultPoint();
    bool changed = true;
    while (changed && out.evaluations < opt.maxEvaluations) {
        changed = false;

        // Axis pass: try resetting each non-default axis.
        for (const char *name : kResetOrder) {
            if (out.evaluations >= opt.maxEvaluations)
                break;
            const sim::RunAxis &axis = sim::runAxis(name);
            const std::string def = axis.print(defaults);
            if (axis.print(out.point) == def)
                continue; // axis already default: no probe to make
            FuzzPoint probe = out.point;
            axis.parse(probe, def);
            if (probe.workload != kInlineTraceWorkload)
                probe.trace.clear(); // the trace travels with its workload
            if (stillFails(probe, v)) {
                out.point = probe;
                out.verdict = v;
                changed = true;
            }
        }

        // Trace-prefix pass: halve the workload dimension.
        if (out.point.workload == kInlineTraceWorkload) {
            while (out.point.trace.size() / 2 >= opt.minTraceLines &&
                   out.evaluations < opt.maxEvaluations) {
                FuzzPoint probe = out.point;
                probe.trace.resize(probe.trace.size() / 2);
                if (!stillFails(probe, v))
                    break;
                out.point = probe;
                out.verdict = v;
                changed = true;
            }
        } else {
            while (out.point.instructions / 2 >= opt.minInstructions &&
                   out.evaluations < opt.maxEvaluations) {
                FuzzPoint probe = out.point;
                probe.instructions /= 2;
                if (!stillFails(probe, v))
                    break;
                out.point = probe;
                out.verdict = v;
                changed = true;
            }
        }
    }
    return out;
}

} // namespace bsim::fuzz
