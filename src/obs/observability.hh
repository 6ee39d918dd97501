/**
 * @file
 * Observability facade: owns whichever pillars a run enabled and knows
 * how to export them. The System wires it to the memory controller and
 * device; the experiment harness hands it to the RunResult so reports
 * and the CLI can write the outputs after the run.
 *
 * It is also the controller's one event sink. The controller reports
 * each event once — admit, issue, refresh slot, idle span, complete,
 * epoch — and the sink forwards it to the pillars that consume it.
 * The stall accountant is the only code that classifies a cycle; the
 * critical-path tracer charges its victims from what the accountant
 * booked for the span.
 */

#ifndef BURSTSIM_OBS_OBSERVABILITY_HH
#define BURSTSIM_OBS_OBSERVABILITY_HH

#include <iosfwd>
#include <memory>

#include "dram/command_log.hh"
#include "dram/config.hh"
#include "obs/chrome_trace.hh"
#include "obs/critpath.hh"
#include "obs/engine_introspect.hh"
#include "obs/latency_breakdown.hh"
#include "obs/metrics.hh"
#include "obs/obs_config.hh"
#include "obs/protocol_audit.hh"
#include "obs/stall_attribution.hh"

namespace bsim::obs
{

/** Owns the enabled observability pillars of one run. */
class Observability
{
  public:
    /**
     * Build the pillars @p cfg enables for a machine with the SDRAM
     * organization @p dram and a @p bus_mhz memory bus.
     */
    Observability(const ObsConfig &cfg, const dram::DramConfig &dram,
                  double bus_mhz);

    // ----- the controller's event stream -----

    /** @p a entered the controller's pool. */
    void admit(const ctrl::MemAccess &a);

    /**
     * Channel @p ch's scheduler used its command slot at @p now for
     * @p a; a column access booked the data burst
     * [@p data_start, @p data_end).
     */
    void issue(std::uint32_t ch, Tick now, const ctrl::MemAccess &a,
               bool column_access, Tick data_start, Tick data_end);

    /** The refresh engine used channel @p ch's command slot at @p now. */
    void refreshSlot(std::uint32_t ch, Tick now);

    /**
     * Channel @p ch's command slot sat idle over
     * [@p from, @p from + @p span) for @p cause, the result of a stall
     * scan that nominated @p victim (Scheduler::lastStallVictim()).
     * Only called with the stall pillar on, since the scan needs it.
     */
    void idleSpan(std::uint32_t ch, Tick from, Tick span,
                  dram::StallCause cause, const ctrl::MemAccess *victim);

    /** @p a completed (read data arrived, or a write was served). */
    void complete(const ctrl::MemAccess &a);

    /** Last tick of the metrics epoch holding @p now (@p now itself
     *  when it closes an epoch); kTickMax without a sampler. */
    Tick nextEpochEnd(Tick now) const;

    /**
     * Close the epoch ending at @p s.now: add the pillars' own columns
     * (stall totals, engine split, per-requester counters) to the
     * controller's snapshot @p s and commit it to the sampler.
     */
    void epoch(MetricsSnapshot &s);

    /** End of run: push buffered access records to disk. */
    void flush();

    // ----- pillars -----

    /** Latency pillar; nullptr when disabled. */
    LatencyBreakdown *latency() { return latency_.get(); }
    const LatencyBreakdown *latency() const { return latency_.get(); }

    /** Metrics pillar; nullptr when disabled. */
    MetricsSampler *sampler() { return sampler_.get(); }
    const MetricsSampler *sampler() const { return sampler_.get(); }

    /** Trace pillar; nullptr when disabled. */
    dram::CommandLog *commandLog() { return log_.get(); }
    const dram::CommandLog *commandLog() const { return log_.get(); }

    /** Stall-attribution pillar; nullptr when disabled. */
    StallAttribution *stalls() { return stalls_.get(); }
    const StallAttribution *stalls() const { return stalls_.get(); }

    /** Protocol auditor; nullptr when audit mode is Off. */
    ProtocolAuditor *auditor() { return auditor_.get(); }
    const ProtocolAuditor *auditor() const { return auditor_.get(); }

    /** Engine-introspection pillar; nullptr when disabled. */
    EngineIntrospect *introspect() { return introspect_.get(); }
    const EngineIntrospect *introspect() const { return introspect_.get(); }

    /** Critical-path tracing pillar; nullptr when disabled. */
    CritPathTracer *critpath() { return critpath_.get(); }
    const CritPathTracer *critpath() const { return critpath_.get(); }

    /** Export the wake-reason attribution (introspect pillar on). */
    void writeIntrospectJson(std::ostream &os) const;

    /** Export the command trace as Chrome trace JSON (trace pillar on). */
    void writeChromeTrace(std::ostream &os) const;

    /** Export the metrics time series (sampler pillar on). */
    void writeMetricsCsv(std::ostream &os) const;
    void writeMetricsJson(std::ostream &os) const;

    /** Export cycle accounting (stall-attribution pillar on). */
    void writeStallJson(std::ostream &os) const;
    void writeStallText(std::ostream &os) const;

  private:
    dram::DramConfig dram_;
    double busMHz_;
    bool perCore_; //!< the sampler keeps per-requester counters
    std::unique_ptr<LatencyBreakdown> latency_;
    std::unique_ptr<MetricsSampler> sampler_;
    std::unique_ptr<dram::CommandLog> log_;
    std::unique_ptr<StallAttribution> stalls_;
    std::unique_ptr<ProtocolAuditor> auditor_;
    std::unique_ptr<EngineIntrospect> introspect_;
    std::unique_ptr<CritPathTracer> critpath_;
};

} // namespace bsim::obs

#endif // BURSTSIM_OBS_OBSERVABILITY_HH
