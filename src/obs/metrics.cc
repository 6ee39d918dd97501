#include "obs/metrics.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <ostream>

#include "common/json.hh"
#include "common/error.hh"
#include "common/log.hh"
#include "common/stats.hh"
#include "ctrl/access.hh"
#include "dram/stall.hh"

namespace bsim::obs
{

namespace
{

double
wallNowUs()
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

MetricsSampler::MetricsSampler(Tick interval,
                               std::vector<std::string> bank_labels,
                               bool host_track)
    : interval_(interval), labels_(std::move(bank_labels)),
      hostTrack_(host_track)
{
    if (!interval_)
        throwSimError(ErrorCategory::Config, "metrics sampler: interval must be nonzero");
    if (hostTrack_)
        lastWallUs_ = wallNowUs();
}

void
MetricsSampler::touchCore(std::uint64_t tag)
{
    if (tag < coreReadQ_.size())
        return;
    coreReadQ_.resize(tag + 1, 0);
    coreWriteQ_.resize(tag + 1, 0);
    coreRowHits_.resize(tag + 1, 0);
    coreRowAccesses_.resize(tag + 1, 0);
}

std::uint32_t &
MetricsSampler::coreQueue(const ctrl::MemAccess &a)
{
    touchCore(a.tag);
    return (a.isRead() ? coreReadQ_ : coreWriteQ_)[a.tag];
}

void
MetricsSampler::columnIssued(const ctrl::MemAccess &a)
{
    touchCore(a.tag);
    coreRowAccesses_[a.tag] += 1;
    if (a.outcome == dram::RowOutcome::Hit)
        coreRowHits_[a.tag] += 1;
}

void
MetricsSampler::fillPerCore(MetricsSnapshot &s) const
{
    s.coreReadQ = coreReadQ_;
    s.coreWriteQ = coreWriteQ_;
    s.coreRowHits = coreRowHits_;
    s.coreRowAccesses = coreRowAccesses_;
}

void
MetricsSampler::sample(const MetricsSnapshot &s)
{
    const Tick end = s.now + 1;
    if (end <= lastEnd_)
        return; // boundary already emitted (e.g. flush after a full epoch)

    MetricsRow row;
    row.epoch = rows_.size();
    row.tickStart = lastEnd_;
    row.tickEnd = end;

    const double elapsed = double(end - lastEnd_);
    const double lanes = elapsed * double(s.channels);
    row.dataBusUtil =
        ratio(double(s.dataBusyCycles - prev_.dataBusyCycles), lanes);
    row.addrBusUtil =
        ratio(double(s.cmdBusyCycles - prev_.cmdBusyCycles), lanes);

    const std::uint64_t hits = s.rowHits - prev_.rowHits;
    const std::uint64_t classified = hits +
                                     (s.rowEmpties - prev_.rowEmpties) +
                                     (s.rowConflicts - prev_.rowConflicts);
    row.rowHitRate = ratio(double(hits), double(classified));
    row.epochReads = s.readsCompleted - prev_.readsCompleted;
    row.epochWrites = s.writesCompleted - prev_.writesCompleted;

    const double formed = s.burstsFormed - prev_.burstsFormed;
    const double joins = s.burstJoins - prev_.burstJoins;
    row.avgBurstLen = formed > 0.0 ? (formed + joins) / formed : 0.0;

    row.readsOutstanding = s.readsOutstanding;
    row.writesOutstanding = s.writesOutstanding;
    row.rpActive = s.rpActive;
    row.wpActive = s.wpActive;
    row.bankReadQ = s.bankReadQ;
    row.bankWriteQ = s.bankWriteQ;

    // Satellite tracks, emitted only when the controller supplies them.
    row.bankRowHitRate.reserve(s.bankRowHits.size());
    for (std::size_t i = 0; i < s.bankRowHits.size(); ++i) {
        const std::uint64_t prev_hits =
            i < prev_.bankRowHits.size() ? prev_.bankRowHits[i] : 0;
        const std::uint64_t prev_acc = i < prev_.bankRowAccesses.size()
                                           ? prev_.bankRowAccesses[i]
                                           : 0;
        row.bankRowHitRate.push_back(
            ratio(double(s.bankRowHits[i] - prev_hits),
                  double(s.bankRowAccesses[i] - prev_acc)));
    }
    row.stallCycles.reserve(s.stallCounts.size());
    for (std::size_t i = 0; i < s.stallCounts.size(); ++i) {
        const std::uint64_t prev_count =
            i < prev_.stallCounts.size() ? prev_.stallCounts[i] : 0;
        row.stallCycles.push_back(s.stallCounts[i] - prev_count);
    }

    row.coreReadQ = s.coreReadQ;
    row.coreWriteQ = s.coreWriteQ;
    // Per-requester row hit rate; the core vectors grow as new tags
    // appear, so earlier snapshots may be shorter than this one.
    row.coreRowHitRate.reserve(s.coreRowAccesses.size());
    for (std::size_t i = 0; i < s.coreRowAccesses.size(); ++i) {
        const std::uint64_t prev_hits =
            i < prev_.coreRowHits.size() ? prev_.coreRowHits[i] : 0;
        const std::uint64_t prev_acc =
            i < prev_.coreRowAccesses.size() ? prev_.coreRowAccesses[i] : 0;
        const std::uint64_t acc = s.coreRowAccesses[i] - prev_acc;
        // An idle core (no classified access this epoch) has no hit
        // rate; keep a NaN sentinel internally and let the writers map
        // it to 0 (CSV) / null (JSON) instead of a misleading 0.0 —
        // or, worse, a literal `nan` cell.
        row.coreRowHitRate.push_back(
            acc == 0 ? std::numeric_limits<double>::quiet_NaN()
                     : ratio(double(s.coreRowHits[i] - prev_hits),
                             double(acc)));
    }

    if (s.haveEngine) {
        row.haveEngine = true;
        row.steppedCycles = s.steppedCycles - prev_.steppedCycles;
        row.skippedCycles = s.skippedCycles - prev_.skippedCycles;
    }
    if (hostTrack_) {
        const double now_us = wallNowUs();
        row.hostWallUs = now_us - lastWallUs_;
        lastWallUs_ = now_us;
    }

    rows_.push_back(std::move(row));
    prev_ = s;
    lastEnd_ = end;
}

void
MetricsSampler::writeCsv(std::ostream &os) const
{
    // Satellite columns appear only when the run produced the data, so
    // plain runs keep the historical column set.
    const bool have_rhr =
        !rows_.empty() && !rows_.front().bankRowHitRate.empty();
    const bool have_stalls =
        !rows_.empty() && !rows_.front().stallCycles.empty();
    const bool have_engine = !rows_.empty() && rows_.front().haveEngine;
    const bool have_host = !rows_.empty() && rows_.front().hostWallUs >= 0;
    // Requester tags appear over time, so the per-core vectors are
    // ragged across rows; size the column set to the widest row.
    std::size_t n_cores = 0;
    for (const auto &r : rows_) {
        n_cores = std::max(n_cores, r.coreReadQ.size());
        n_cores = std::max(n_cores, r.coreRowHitRate.size());
    }

    os << "epoch,tick_start,tick_end,data_bus_util,addr_bus_util,"
          "row_hit_rate,epoch_reads,epoch_writes,avg_burst_len,"
          "reads_outstanding,writes_outstanding,rp_active,wp_active";
    for (const auto &l : labels_)
        os << ",rq_" << l;
    for (const auto &l : labels_)
        os << ",wq_" << l;
    if (have_rhr)
        for (const auto &l : labels_)
            os << ",rhr_" << l;
    if (have_stalls)
        for (std::size_t i = 0; i < dram::kNumStallCauses; ++i)
            os << ",stall_" << dram::stallCauseName(dram::StallCause(i));
    for (std::size_t c = 0; c < n_cores; ++c)
        os << ",rq_core" << c;
    for (std::size_t c = 0; c < n_cores; ++c)
        os << ",wq_core" << c;
    for (std::size_t c = 0; c < n_cores; ++c)
        os << ",rhr_core" << c;
    if (have_engine)
        os << ",stepped_cycles,skipped_cycles";
    if (have_host)
        os << ",host_wall_us";
    os << '\n';

    for (const auto &r : rows_) {
        os << r.epoch << ',' << r.tickStart << ',' << r.tickEnd << ','
           << r.dataBusUtil << ',' << r.addrBusUtil << ',' << r.rowHitRate
           << ',' << r.epochReads << ',' << r.epochWrites << ','
           << r.avgBurstLen << ',' << r.readsOutstanding << ','
           << r.writesOutstanding << ',' << int(r.rpActive) << ','
           << int(r.wpActive);
        for (std::size_t i = 0; i < labels_.size(); ++i)
            os << ',' << (i < r.bankReadQ.size() ? r.bankReadQ[i] : 0);
        for (std::size_t i = 0; i < labels_.size(); ++i)
            os << ',' << (i < r.bankWriteQ.size() ? r.bankWriteQ[i] : 0);
        if (have_rhr)
            for (std::size_t i = 0; i < labels_.size(); ++i)
                os << ','
                   << (i < r.bankRowHitRate.size() ? r.bankRowHitRate[i]
                                                   : 0.0);
        if (have_stalls)
            for (std::size_t i = 0; i < dram::kNumStallCauses; ++i)
                os << ','
                   << (i < r.stallCycles.size() ? r.stallCycles[i] : 0);
        for (std::size_t c = 0; c < n_cores; ++c)
            os << ',' << (c < r.coreReadQ.size() ? r.coreReadQ[c] : 0);
        for (std::size_t c = 0; c < n_cores; ++c)
            os << ',' << (c < r.coreWriteQ.size() ? r.coreWriteQ[c] : 0);
        for (std::size_t c = 0; c < n_cores; ++c) {
            const double v =
                c < r.coreRowHitRate.size() ? r.coreRowHitRate[c] : 0.0;
            os << ',' << (std::isfinite(v) ? v : 0.0);
        }
        if (have_engine)
            os << ',' << r.steppedCycles << ',' << r.skippedCycles;
        if (have_host)
            os << ',' << (r.hostWallUs >= 0 ? r.hostWallUs : 0.0);
        os << '\n';
    }
}

void
MetricsSampler::writeJson(std::ostream &os) const
{
    JsonWriter w(os);
    w.beginObject();
    w.key("interval").value(std::uint64_t(interval_));
    w.key("bank_labels").beginArray();
    for (const auto &l : labels_)
        w.value(l);
    w.endArray();
    w.key("rows").beginArray();
    for (const auto &r : rows_) {
        w.beginObject();
        w.key("epoch").value(r.epoch);
        w.key("tick_start").value(std::uint64_t(r.tickStart));
        w.key("tick_end").value(std::uint64_t(r.tickEnd));
        w.key("data_bus_util").value(r.dataBusUtil);
        w.key("addr_bus_util").value(r.addrBusUtil);
        w.key("row_hit_rate").value(r.rowHitRate);
        w.key("epoch_reads").value(r.epochReads);
        w.key("epoch_writes").value(r.epochWrites);
        w.key("avg_burst_len").value(r.avgBurstLen);
        w.key("reads_outstanding").value(std::uint64_t(r.readsOutstanding));
        w.key("writes_outstanding")
            .value(std::uint64_t(r.writesOutstanding));
        w.key("rp_active").value(r.rpActive);
        w.key("wp_active").value(r.wpActive);
        w.key("bank_read_q").beginArray();
        for (auto v : r.bankReadQ)
            w.value(std::uint64_t(v));
        w.endArray();
        w.key("bank_write_q").beginArray();
        for (auto v : r.bankWriteQ)
            w.value(std::uint64_t(v));
        w.endArray();
        if (!r.bankRowHitRate.empty()) {
            w.key("bank_row_hit_rate").beginArray();
            for (double v : r.bankRowHitRate)
                w.value(v);
            w.endArray();
        }
        if (!r.stallCycles.empty()) {
            w.key("stall_cycles").beginObject();
            for (std::size_t i = 0; i < r.stallCycles.size(); ++i)
                if (r.stallCycles[i])
                    w.key(dram::stallCauseName(dram::StallCause(i)))
                        .value(r.stallCycles[i]);
            w.endObject();
        }
        if (!r.coreReadQ.empty() || !r.coreWriteQ.empty()) {
            w.key("core_read_q").beginArray();
            for (auto v : r.coreReadQ)
                w.value(std::uint64_t(v));
            w.endArray();
            w.key("core_write_q").beginArray();
            for (auto v : r.coreWriteQ)
                w.value(std::uint64_t(v));
            w.endArray();
        }
        if (!r.coreRowHitRate.empty()) {
            w.key("core_row_hit_rate").beginArray();
            for (double v : r.coreRowHitRate) {
                if (std::isfinite(v))
                    w.value(v);
                else
                    w.null(); // idle core: no rate this epoch
            }
            w.endArray();
        }
        if (r.haveEngine) {
            w.key("stepped_cycles").value(r.steppedCycles);
            w.key("skipped_cycles").value(r.skippedCycles);
        }
        if (r.hostWallUs >= 0)
            w.key("host_wall_us").value(r.hostWallUs);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << '\n';
}

} // namespace bsim::obs
