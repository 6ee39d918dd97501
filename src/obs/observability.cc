#include "obs/observability.hh"

#include <string>

#include "common/error.hh"
#include "common/json.hh"

namespace bsim::obs
{

namespace
{

std::vector<std::string>
bankLabels(const dram::DramConfig &cfg)
{
    std::vector<std::string> labels;
    labels.reserve(std::size_t(cfg.channels) * cfg.ranksPerChannel *
                   cfg.banksPerRank);
    for (std::uint32_t ch = 0; ch < cfg.channels; ++ch)
        for (std::uint32_t r = 0; r < cfg.ranksPerChannel; ++r)
            for (std::uint32_t b = 0; b < cfg.banksPerRank; ++b)
                labels.push_back("ch" + std::to_string(ch) + "_r" +
                                 std::to_string(r) + "_b" +
                                 std::to_string(b));
    return labels;
}

/** @p pillar, or a config error: its @p output was asked for without it. */
template <typename T>
const T &
need(const std::unique_ptr<T> &pillar, const char *output)
{
    if (!pillar)
        throwSimError(ErrorCategory::Config,
                      "observability: %s output requested without its "
                      "pillar",
                      output);
    return *pillar;
}

} // namespace

Observability::Observability(const ObsConfig &cfg,
                             const dram::DramConfig &dram, double bus_mhz)
    : dram_(dram), busMHz_(bus_mhz),
      perCore_(cfg.metricsInterval && cfg.perCoreMetrics)
{
    if (cfg.latencyBreakdown)
        latency_ = std::make_unique<LatencyBreakdown>();
    if (cfg.metricsInterval)
        sampler_ = std::make_unique<MetricsSampler>(
            cfg.metricsInterval, bankLabels(dram_), cfg.selfProf);
    if (cfg.commandTrace)
        log_ = std::make_unique<dram::CommandLog>(cfg.traceCapacity);
    if (cfg.stallAttribution || cfg.critPathOn())
        // The tracer's victim charges ride on the stall scans and the
        // accountant's span split, so critical-path tracing implies the
        // accountant.
        stalls_ = std::make_unique<StallAttribution>(
            dram_.channels, dram_.ranksPerChannel * dram_.banksPerRank,
            bankLabels(dram_));
    if (cfg.critPathOn()) {
        critpath_ = std::make_unique<CritPathTracer>(cfg.accessTraceOut);
        if (cfg.critPathRetain)
            critpath_->setRetainCompleted(true);
    }
    if (cfg.audit != AuditMode::Off)
        auditor_ = std::make_unique<ProtocolAuditor>(cfg.audit, dram_);
    if (cfg.engineIntrospect)
        introspect_ = std::make_unique<EngineIntrospect>(dram_.channels);
}

void
Observability::admit(const ctrl::MemAccess &a)
{
    if (critpath_)
        critpath_->onAdmit(a);
    if (perCore_)
        sampler_->admit(a);
}

void
Observability::issue(std::uint32_t ch, Tick now, const ctrl::MemAccess &a,
                     bool column_access, Tick data_start, Tick data_end)
{
    if (stalls_) {
        if (column_access)
            stalls_->noteBurst(ch, data_start, data_end, a.id);
        stalls_->accountSpan(ch, now, 1, dram::StallCause::PrepIssue);
    }
    if (critpath_)
        critpath_->noteIssue(a);
    if (perCore_ && column_access)
        sampler_->columnIssued(a);
}

void
Observability::refreshSlot(std::uint32_t ch, Tick now)
{
    if (stalls_)
        stalls_->accountSpan(ch, now, 1, dram::StallCause::PrepIssue);
}

void
Observability::idleSpan(std::uint32_t ch, Tick from, Tick span,
                        dram::StallCause cause,
                        const ctrl::MemAccess *victim)
{
    const StallAttribution::SpanSplit split =
        stalls_->accountSpan(ch, from, span, cause);
    if (critpath_)
        critpath_->noteStallSpan(victim, cause, span, split);
}

void
Observability::complete(const ctrl::MemAccess &a)
{
    if (latency_)
        latency_->record(a);
    if (critpath_)
        critpath_->onComplete(a);
    if (perCore_)
        sampler_->complete(a);
}

Tick
Observability::nextEpochEnd(Tick now) const
{
    if (!sampler_)
        return kTickMax;
    const Tick interval = sampler_->interval();
    return now + (interval - 1 - now % interval);
}

void
Observability::epoch(MetricsSnapshot &s)
{
    if (stalls_) {
        const auto totals = stalls_->totals();
        s.stallCounts.assign(totals.begin(), totals.end());
    }
    if (introspect_) {
        s.haveEngine = true;
        s.steppedCycles = introspect_->steppedCycles();
        s.skippedCycles = introspect_->skippedCycles();
    }
    if (perCore_)
        sampler_->fillPerCore(s);
    sampler_->sample(s);
}

void
Observability::flush()
{
    if (critpath_)
        critpath_->flush();
}

void
Observability::writeIntrospectJson(std::ostream &os) const
{
    JsonWriter w(os);
    need(introspect_, "introspection").writeJson(w);
    os << "\n";
}

void
Observability::writeChromeTrace(std::ostream &os) const
{
    ChromeTraceOptions opts;
    opts.busClock.mhz = busMHz_;
    obs::writeChromeTrace(os, need(log_, "chrome trace"), dram_,
                          sampler_.get(), opts);
}

void
Observability::writeMetricsCsv(std::ostream &os) const
{
    need(sampler_, "metrics").writeCsv(os);
}

void
Observability::writeMetricsJson(std::ostream &os) const
{
    need(sampler_, "metrics").writeJson(os);
}

void
Observability::writeStallJson(std::ostream &os) const
{
    need(stalls_, "stall").writeJson(os);
}

void
Observability::writeStallText(std::ostream &os) const
{
    need(stalls_, "stall").writeText(os);
}

} // namespace bsim::obs
