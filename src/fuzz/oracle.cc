#include "fuzz/oracle.hh"

#include <sstream>

#include "common/error.hh"
#include "obs/engine_introspect.hh"
#include "obs/observability.hh"
#include "sim/report.hh"
#include "trace/spec_profiles.hh"

namespace bsim::fuzz
{

namespace
{

/** First byte position where @p a and @p b differ, with context; @p la
 *  and @p lb name the two sides. */
std::string
firstDiff(const std::string &a, const std::string &b,
          const char *la = "step", const char *lb = "skip")
{
    std::size_t i = 0;
    const std::size_t n = std::min(a.size(), b.size());
    while (i < n && a[i] == b[i])
        i += 1;
    const std::size_t from = i > 30 ? i - 30 : 0;
    std::ostringstream os;
    os << "first diff at byte " << i << ": " << la << "=\""
       << a.substr(from, 60) << "\" " << lb << "=\"" << b.substr(from, 60)
       << '"';
    return os.str();
}

std::string
resultJson(const sim::RunResult &r)
{
    std::ostringstream os;
    sim::writeResultJson(os, r);
    return os.str();
}

std::string
stallJson(const sim::RunResult &r)
{
    std::ostringstream os;
    if (r.obs)
        r.obs->writeStallJson(os);
    return os.str();
}

/**
 * Run @p p on @p engine with the auditing pillars on. SimErrors are
 * translated into oracle verdicts: protocol errors are audit findings,
 * anything else (watchdog, drain cap, unexpected config rejection) is
 * a simulator defect the fuzzer must report, not swallow.
 */
bool
runOne(const FuzzPoint &p, const OracleOptions &opt,
       sim::EngineKind engine, sim::RunResult &out, OracleVerdict &v)
{
    sim::ExperimentConfig cfg = toConfig(p, opt.scratchDir);
    cfg.engine = engine;
    cfg.obs.audit = obs::AuditMode::Fatal;
    cfg.obs.stallAttribution = true;
    if (opt.configTweak)
        opt.configTweak(cfg);
    try {
        out = sim::runExperiment(cfg);
        return true;
    } catch (const SimError &e) {
        v.ok = false;
        switch (e.category()) {
          case ErrorCategory::Protocol:
            v.oracle = "audit_clean";
            break;
          case ErrorCategory::Internal:
            v.oracle = "no_hang";
            break;
          case ErrorCategory::Config:
            v.oracle = "valid_config";
            break;
          default:
            v.oracle = "run_error";
            break;
        }
        v.detail = std::string(sim::engineKindName(engine)) +
                   " engine: " + e.describe();
        return false;
    }
}

/** Stepped/skipped totals and per-reason wake attribution, as text. */
std::string
wakeLedger(const obs::EngineIntrospect &in)
{
    std::ostringstream os;
    os << "stepped=" << in.steppedCycles()
       << " skipped=" << in.skippedCycles();
    for (std::size_t r = 0; r < obs::kNumWakeReasons; ++r) {
        const auto reason = obs::WakeReason(r);
        os << ' ' << obs::wakeReasonName(reason) << '='
           << in.wakeCount(reason) << '/' << in.skippedBy(reason) << '/'
           << in.blockedCount(reason);
    }
    return os.str();
}

/**
 * Row-hit-heavy means the miss stream is dominated by sequential
 * same-row runs: exactly the workloads for which the paper's Figure 10
 * ordering (Burst at least matches BkInOrder) must hold. Pointer-chase
 * or latency-bound profiles are excluded — with MLP 1 there is nothing
 * to reorder and the comparison is noise — and so are CMP mixes, whose
 * interleaved streams are no single profile's miss stream.
 */
bool
rowHitHeavy(const FuzzPoint &p)
{
    if (p.workload == kInlineTraceWorkload ||
        sim::mixWorkloads(p.workload).size() > 1)
        return false;
    const trace::WorkloadProfile &prof =
        trace::profileByName(p.workload);
    return prof.seqFraction >= 0.5 && prof.chaseFraction == 0.0 &&
           prof.clusterBlocks >= 2;
}

} // namespace

OracleVerdict
checkPoint(const FuzzPoint &p, const OracleOptions &opt)
{
    OracleVerdict v;

    sim::RunResult step, skip;
    if (!runOne(p, opt, sim::EngineKind::Step, step, v))
        return v;
    if (!runOne(p, opt, sim::EngineKind::Skip, skip, v))
        return v;

    // Engine equivalence: every exported statistic, byte for byte.
    const std::string sj = resultJson(step), kj = resultJson(skip);
    if (sj != kj) {
        v.ok = false;
        v.oracle = "engine_equivalence";
        v.detail = "result JSON diverges; " + firstDiff(sj, kj);
        return v;
    }
    const std::string ss = stallJson(step), ks = stallJson(skip);
    if (ss != ks) {
        v.ok = false;
        v.oracle = "engine_equivalence";
        v.detail = "stall JSON diverges; " + firstDiff(ss, ks);
        return v;
    }

    // Miss identity: a Retry counts no lookup and an MSHR merge returns
    // before the L2 lookup, so every counted L2 miss allocated exactly
    // one fill. (Step and skip agree byte for byte by now.)
    if (skip.l2Misses != skip.memReads) {
        v.ok = false;
        v.oracle = "miss_identity";
        std::ostringstream os;
        os << "l2_misses " << skip.l2Misses << " != mem_reads "
           << skip.memReads;
        v.detail = os.str();
        return v;
    }

    // Telescoping identity: each channel's cause counts partition its
    // attributed cycles, and every channel was attributed for exactly
    // the run's memory cycles.
    if (const obs::StallAttribution *st =
            skip.obs ? skip.obs->stalls() : nullptr) {
        for (std::uint32_t ch = 0; ch < st->numChannels(); ++ch) {
            std::uint64_t sum = 0;
            for (std::size_t c = 0; c < dram::kNumStallCauses; ++c)
                sum += st->count(ch, dram::StallCause(c));
            if (sum != st->cycles(ch) ||
                st->cycles(ch) != skip.memCycles) {
                v.ok = false;
                v.oracle = "telescoping";
                std::ostringstream os;
                os << "channel " << ch << ": cause sum " << sum
                   << ", attributed cycles " << st->cycles(ch)
                   << ", mem cycles " << skip.memCycles;
                v.detail = os.str();
                return v;
            }
        }
    }

    // Wake-reason attribution identity: rerun the skip engine with
    // introspection on (a separate run — introspection output would
    // break the byte-equality compare above) and require its counters
    // to telescope: stepped + skipped cycles equal the run's memory
    // cycles, and every per-reason resume/blocked sum matches its
    // total. A miss means skipHorizon() attributed a wake to the wrong
    // place or the engine skipped cycles nobody accounted for.
    {
        OracleOptions iopt = opt;
        iopt.configTweak = [&opt](sim::ExperimentConfig &cfg) {
            cfg.obs.engineIntrospect = true;
            if (opt.configTweak)
                opt.configTweak(cfg);
        };
        sim::RunResult ri;
        if (!runOne(p, iopt, sim::EngineKind::Skip, ri, v))
            return v;
        const obs::EngineIntrospect *in =
            ri.obs ? ri.obs->introspect() : nullptr;
        if (!in || !in->identityHolds(ri.memCycles)) {
            v.ok = false;
            v.oracle = "selfprof_identity";
            std::ostringstream os;
            if (in)
                os << "stepped " << in->steppedCycles() << " + skipped "
                   << in->skippedCycles() << " vs mem cycles "
                   << ri.memCycles
                   << " (or a per-reason sum mismatch)";
            else
                os << "introspection pillar missing on the skip run";
            v.detail = os.str();
            return v;
        }
        // The introspected run must not perturb the simulation (its
        // JSON gains an engine_introspect section by design, so compare
        // the core statistics rather than bytes).
        if (ri.memCycles != skip.memCycles ||
            ri.execCpuCycles != skip.execCpuCycles) {
            v.ok = false;
            v.oracle = "selfprof_identity";
            std::ostringstream os;
            os << "introspection changed simulated stats: mem "
               << ri.memCycles << " vs " << skip.memCycles << ", cpu "
               << ri.execCpuCycles << " vs " << skip.execCpuCycles;
            v.detail = os.str();
            return v;
        }
    }

    // Memo transparency and pillar neutrality share one introspected
    // skip run with every cache on and stall attribution and the
    // critical-path tracer on. Memo transparency: the horizon memos and
    // per-bank bound caches must never change what the skip engine
    // computes, only how fast, so the same run with every cache force-
    // disabled must report identical skipped/stepped totals and
    // simulated stats. Pillar neutrality: observing a run must not
    // change which cycles the skip engine steps, so the same run with
    // both pillars off must report the same stepped/skipped totals and
    // per-reason wake attribution. The cache counters differ by design,
    // so both compare semantics, not bytes.
    {
        const auto introspected = [&](bool memo, bool pillars,
                                      sim::RunResult &out) {
            OracleOptions iopt = opt;
            iopt.configTweak = [&opt, memo,
                                pillars](sim::ExperimentConfig &cfg) {
                cfg.obs.engineIntrospect = true;
                cfg.horizonMemo = memo;
                cfg.obs.stallAttribution = pillars;
                cfg.obs.critPath = pillars;
                if (opt.configTweak)
                    opt.configTweak(cfg);
            };
            return runOne(p, iopt, sim::EngineKind::Skip, out, v);
        };
        sim::RunResult cached;
        if (!introspected(true, true, cached))
            return v;
        const obs::EngineIntrospect *ic =
            cached.obs ? cached.obs->introspect() : nullptr;
        if (!ic) {
            v.ok = false;
            v.oracle = "memo_transparency";
            v.detail = "introspection pillar missing on the cached run";
            return v;
        }

        sim::RunResult uncached;
        if (!introspected(false, true, uncached))
            return v;
        const obs::EngineIntrospect *iu =
            uncached.obs ? uncached.obs->introspect() : nullptr;
        if (!iu) {
            v.ok = false;
            v.oracle = "memo_transparency";
            v.detail = "introspection pillar missing on a memo run";
            return v;
        }
        if (ic->steppedCycles() != iu->steppedCycles() ||
            ic->skippedCycles() != iu->skippedCycles() ||
            cached.memCycles != uncached.memCycles ||
            cached.execCpuCycles != uncached.execCpuCycles) {
            v.ok = false;
            v.oracle = "memo_transparency";
            std::ostringstream os;
            os << "caches changed engine behaviour: stepped/skipped "
               << ic->steppedCycles() << "/" << ic->skippedCycles()
               << " cached vs " << iu->steppedCycles() << "/"
               << iu->skippedCycles() << " uncached, mem "
               << cached.memCycles << " vs " << uncached.memCycles
               << ", cpu " << cached.execCpuCycles << " vs "
               << uncached.execCpuCycles;
            v.detail = os.str();
            return v;
        }

        sim::RunResult bare;
        if (!introspected(true, false, bare))
            return v;
        const obs::EngineIntrospect *ib =
            bare.obs ? bare.obs->introspect() : nullptr;
        if (!ib) {
            v.ok = false;
            v.oracle = "pillar_neutrality";
            v.detail = "introspection pillar missing on the bare run";
            return v;
        }
        const std::string a = wakeLedger(*ib), b = wakeLedger(*ic);
        if (a != b) {
            v.ok = false;
            v.oracle = "pillar_neutrality";
            v.detail = "stall attribution + crit-path change the stepped "
                       "cycles; " +
                       firstDiff(a, b, "pillars_off", "pillars_on");
            return v;
        }
    }

    // Per-access blame identity: rerun both engines with the critical-
    // path tracer on (separate runs — the result JSON gains a
    // critical_path section by design) and require (a) the per-access
    // telescoping identity, (b) byte-identical access streams across
    // engines (FNV digest over the JSONL lines), and (c) unperturbed
    // simulated statistics.
    {
        OracleOptions copt = opt;
        copt.configTweak = [&opt](sim::ExperimentConfig &cfg) {
            cfg.obs.critPath = true;
            if (opt.configTweak)
                opt.configTweak(cfg);
        };
        sim::RunResult cs, ck;
        if (!runOne(p, copt, sim::EngineKind::Step, cs, v))
            return v;
        if (!runOne(p, copt, sim::EngineKind::Skip, ck, v))
            return v;
        const obs::CritPathTracer *ts = cs.obs ? cs.obs->critpath() : nullptr;
        const obs::CritPathTracer *tk = ck.obs ? ck.obs->critpath() : nullptr;
        if (!ts || !tk) {
            v.ok = false;
            v.oracle = "critpath_identity";
            v.detail = "critical-path pillar missing on a traced run";
            return v;
        }
        for (const obs::CritPathTracer *t : {ts, tk}) {
            if (!t->identityHolds()) {
                v.ok = false;
                v.oracle = "critpath_identity";
                std::ostringstream os;
                os << (t == ts ? "step" : "skip")
                   << " engine: blame totals do not telescope to "
                   << t->latencyTotal() << " latency cycles over "
                   << t->completedCount() << " accesses";
                v.detail = os.str();
                return v;
            }
        }
        if (ts->digest() != tk->digest() ||
            ts->completedCount() != tk->completedCount()) {
            v.ok = false;
            v.oracle = "critpath_identity";
            std::ostringstream os;
            os << "access streams diverge across engines: step digest "
               << ts->digest() << " (" << ts->completedCount()
               << " accesses) vs skip digest " << tk->digest() << " ("
               << tk->completedCount() << " accesses)";
            v.detail = os.str();
            return v;
        }
        if (ck.memCycles != skip.memCycles ||
            ck.execCpuCycles != skip.execCpuCycles) {
            v.ok = false;
            v.oracle = "critpath_identity";
            std::ostringstream os;
            os << "tracing changed simulated stats: mem " << ck.memCycles
               << " vs " << skip.memCycles << ", cpu "
               << ck.execCpuCycles << " vs " << skip.execCpuCycles;
            v.detail = os.str();
            return v;
        }
    }

    // Cross-scheduler sanity bound on row-hit-heavy streams.
    if (opt.crossScheduler && rowHitHeavy(p)) {
        FuzzPoint burst = p, base = p;
        burst.mechanism = ctrl::Mechanism::Burst;
        base.mechanism = ctrl::Mechanism::BkInOrder;
        sim::RunResult rb, r0;
        if (!runOne(burst, opt, sim::EngineKind::Skip, rb, v))
            return v;
        if (!runOne(base, opt, sim::EngineKind::Skip, r0, v))
            return v;
        if (double(rb.execCpuCycles) >
            double(r0.execCpuCycles) * opt.crossSchedTolerance) {
            v.ok = false;
            v.oracle = "cross_scheduler";
            std::ostringstream os;
            os << "Burst " << rb.execCpuCycles
               << " cycles vs BkInOrder " << r0.execCpuCycles
               << " (tolerance " << opt.crossSchedTolerance << "x)";
            v.detail = os.str();
            return v;
        }

        // Contention-aware families trade single-stream latency for
        // multi-core fairness, so they get a looser bound — but even
        // they must stay within shouting distance of in-order issue
        // on a row-hit-heavy stream.
        if (ctrl::isContentionMechanism(p.mechanism)) {
            sim::RunResult rc;
            if (!runOne(p, opt, sim::EngineKind::Skip, rc, v))
                return v;
            if (double(rc.execCpuCycles) >
                double(r0.execCpuCycles) * opt.contentionTolerance) {
                v.ok = false;
                v.oracle = "cross_scheduler";
                std::ostringstream os;
                os << ctrl::mechanismName(p.mechanism) << " "
                   << rc.execCpuCycles << " cycles vs BkInOrder "
                   << r0.execCpuCycles << " (tolerance "
                   << opt.contentionTolerance << "x)";
                v.detail = os.str();
                return v;
            }
        }
    }
    return v;
}

} // namespace bsim::fuzz
