#include "obs/engine_introspect.hh"

#include <cstdio>
#include <ostream>

#include "common/json.hh"

namespace bsim::obs
{

namespace
{

std::size_t
spanBucketOf(Tick span)
{
    std::size_t b = 0;
    while (b + 1 < kNumSpanBuckets && (span >> (b + 1)) != 0)
        b += 1;
    return b;
}

} // namespace

const char *
wakeReasonName(WakeReason r)
{
    switch (r) {
      case WakeReason::CoreActive: return "core_active";
      case WakeReason::CoreWake: return "core_wake";
      case WakeReason::Response: return "response";
      case WakeReason::FsbAdmit: return "fsb_admit";
      case WakeReason::PendingData: return "pending_data";
      case WakeReason::Refresh: return "refresh";
      case WakeReason::SchedArbFill: return "sched_arb_fill";
      case WakeReason::SchedPreempt: return "sched_preempt";
      case WakeReason::SchedDrainFlip: return "sched_drain_flip";
      case WakeReason::SchedPiggyback: return "sched_piggyback";
      case WakeReason::SchedWriteDrain: return "sched_write_drain";
      case WakeReason::SchedBound: return "sched_bound";
      case WakeReason::SchedConservative: return "sched_conservative";
      case WakeReason::MetricsEpoch: return "metrics_epoch";
      case WakeReason::Unbounded: return "unbounded";
    }
    return "?";
}

EngineIntrospect::EngineIntrospect(std::uint32_t channels)
    : channels_(channels), wakesByChannel_(channels, 0)
{
}

void
EngineIntrospect::noteSkip(const WakeSource &src, Tick span)
{
    const auto r = static_cast<std::size_t>(src.reason);
    wakes_[r] += 1;
    skippedBy_[r] += span;
    skippedTotal_ += span;
    spansTotal_ += 1;
    spanHist_[spanBucketOf(span)] += 1;
    if (src.channel >= 0 &&
        static_cast<std::uint32_t>(src.channel) < channels_)
        wakesByChannel_[static_cast<std::size_t>(src.channel)] += 1;
}

void
EngineIntrospect::noteBlocked(const WakeSource &src)
{
    blocked_[static_cast<std::size_t>(src.reason)] += 1;
    blockedTotal_ += 1;
}

const char *
EngineIntrospect::spanBucketLabel(std::size_t i)
{
    static const char *labels[kNumSpanBuckets] = {
        "1",        "2-3",       "4-7",        "8-15",      "16-31",
        "32-63",    "64-127",    "128-255",    "256-511",   "512-1023",
        "1K-2K",    "2K-4K",     "4K-8K",      "8K-16K",    "16K-32K",
        "32K-64K",  "64K-128K",  "128K-256K",  "256K-512K", "512K-1M",
        ">=1M",
    };
    return i < kNumSpanBuckets ? labels[i] : "?";
}

bool
EngineIntrospect::identityHolds(std::uint64_t mem_cycles) const
{
    if (stepped_ + skippedTotal_ != mem_cycles)
        return false;
    std::uint64_t skipped_sum = 0, wake_sum = 0, blocked_sum = 0,
                  hist_sum = 0;
    for (std::size_t r = 0; r < kNumWakeReasons; ++r) {
        skipped_sum += skippedBy_[r];
        wake_sum += wakes_[r];
        blocked_sum += blocked_[r];
    }
    for (std::size_t b = 0; b < kNumSpanBuckets; ++b)
        hist_sum += spanHist_[b];
    return skipped_sum == skippedTotal_ && wake_sum == spansTotal_ &&
           hist_sum == spansTotal_ && blocked_sum == blockedTotal_ &&
           blockedTotal_ <= stepped_;
}

void
EngineIntrospect::writeJson(JsonWriter &w) const
{
    w.beginObject();
    w.key("stepped_cycles").value(stepped_);
    w.key("skipped_cycles").value(skippedTotal_);
    w.key("skip_spans").value(spansTotal_);
    w.key("blocked_decisions").value(blockedTotal_);
    w.key("wake_reasons").beginArray();
    for (std::size_t r = 0; r < kNumWakeReasons; ++r) {
        if (wakes_[r] == 0 && blocked_[r] == 0)
            continue;
        w.beginObject();
        w.key("reason").value(wakeReasonName(static_cast<WakeReason>(r)));
        w.key("wakes").value(wakes_[r]);
        w.key("skipped_cycles").value(skippedBy_[r]);
        w.key("blocked").value(blocked_[r]);
        w.endObject();
    }
    w.endArray();
    w.key("span_histogram").beginArray();
    for (std::size_t b = 0; b < kNumSpanBuckets; ++b) {
        if (spanHist_[b] == 0)
            continue;
        w.beginObject();
        w.key("span").value(spanBucketLabel(b));
        w.key("count").value(spanHist_[b]);
        w.endObject();
    }
    w.endArray();
    w.key("wakes_by_channel").beginArray();
    for (std::uint64_t c : wakesByChannel_)
        w.value(c);
    w.endArray();
    w.key("sched_memo").beginObject();
    w.key("hits").value(memoHits_);
    w.key("misses").value(memoMisses_);
    w.key("invalidations").value(memoInvalidations_);
    w.endObject();
    w.key("front_horizon").beginObject();
    w.key("hits").value(frontHits_);
    w.key("misses").value(frontMisses_);
    w.endObject();
    w.endObject();
}

void
EngineIntrospect::writeText(std::ostream &os,
                            std::uint64_t mem_cycles) const
{
    char buf[160];
    const double denom = mem_cycles ? static_cast<double>(mem_cycles) : 1.0;
    std::snprintf(buf, sizeof(buf),
                  "Engine introspection: %llu stepped + %llu skipped = "
                  "%llu mem cycles (%.1f%% skipped in %llu spans)\n",
                  static_cast<unsigned long long>(stepped_),
                  static_cast<unsigned long long>(skippedTotal_),
                  static_cast<unsigned long long>(stepped_ + skippedTotal_),
                  100.0 * static_cast<double>(skippedTotal_) / denom,
                  static_cast<unsigned long long>(spansTotal_));
    os << buf;
    os << "  wake reason         wakes     skipped-cycles   blocked\n";
    for (std::size_t r = 0; r < kNumWakeReasons; ++r) {
        if (wakes_[r] == 0 && blocked_[r] == 0)
            continue;
        std::snprintf(buf, sizeof(buf), "  %-18s %8llu %16llu %9llu\n",
                      wakeReasonName(static_cast<WakeReason>(r)),
                      static_cast<unsigned long long>(wakes_[r]),
                      static_cast<unsigned long long>(skippedBy_[r]),
                      static_cast<unsigned long long>(blocked_[r]));
        os << buf;
    }
    std::snprintf(buf, sizeof(buf),
                  "  sched memo: %llu hits / %llu misses / %llu "
                  "invalidations; front horizon: %llu hits / %llu misses\n",
                  static_cast<unsigned long long>(memoHits_),
                  static_cast<unsigned long long>(memoMisses_),
                  static_cast<unsigned long long>(memoInvalidations_),
                  static_cast<unsigned long long>(frontHits_),
                  static_cast<unsigned long long>(frontMisses_));
    os << buf;
    os << "  span histogram:";
    for (std::size_t b = 0; b < kNumSpanBuckets; ++b) {
        if (spanHist_[b] == 0)
            continue;
        std::snprintf(buf, sizeof(buf), " %s:%llu", spanBucketLabel(b),
                      static_cast<unsigned long long>(spanHist_[b]));
        os << buf;
    }
    os << "\n";
}

} // namespace bsim::obs
