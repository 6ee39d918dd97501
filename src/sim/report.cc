#include "sim/report.hh"

#include <ostream>

#include "common/json.hh"
#include "common/table.hh"
#include "obs/engine_introspect.hh"
#include "obs/observability.hh"
#include "obs/selfprof.hh"

namespace bsim::sim
{

namespace
{

void
writeLatencyBreakdownJson(JsonWriter &w, const obs::LatencyBreakdown &lat)
{
    w.key("latency_breakdown").beginObject();
    for (std::size_t i = 0; i < obs::kNumAccessClasses; ++i) {
        const auto c = obs::AccessClass(i);
        const obs::PhaseStats &ps = lat.of(c);
        w.key(obs::accessClassName(c)).beginObject();
        w.key("count").value(ps.count());
        w.key("queue_mean").value(ps.queueMean.mean());
        w.key("pick_mean").value(ps.pickMean.mean());
        w.key("prep_mean").value(ps.prepMean.mean());
        w.key("data_mean").value(ps.dataMean.mean());
        w.key("total_mean").value(ps.totalMean.mean());
        w.key("total_p50").value(ps.total.percentile(0.50));
        w.key("total_p95").value(ps.total.percentile(0.95));
        w.key("total_p99").value(ps.total.percentile(0.99));
        w.endObject();
    }
    w.key("forwarded").beginObject();
    w.key("count").value(lat.forwardedMean().count());
    w.key("total_mean").value(lat.forwardedMean().mean());
    w.endObject();
    w.endObject();
}

void
writeCycleAccountingJson(JsonWriter &w, const obs::StallAttribution &st)
{
    w.key("cycle_accounting").beginObject();
    const auto totals = st.totals();
    w.key("totals").beginObject();
    for (std::size_t i = 0; i < dram::kNumStallCauses; ++i)
        if (totals[i])
            w.key(dram::stallCauseName(dram::StallCause(i)))
                .value(totals[i]);
    w.endObject();
    w.key("channels").beginArray();
    for (std::uint32_t ch = 0; ch < st.numChannels(); ++ch) {
        w.beginObject();
        w.key("channel").value(std::uint64_t(ch));
        w.key("cycles").value(st.cycles(ch));
        w.key("causes").beginObject();
        for (std::size_t i = 0; i < dram::kNumStallCauses; ++i) {
            const std::uint64_t n = st.count(ch, dram::StallCause(i));
            if (n)
                w.key(dram::stallCauseName(dram::StallCause(i))).value(n);
        }
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

void
writeProtocolAuditJson(JsonWriter &w, const obs::ProtocolAuditor &a)
{
    w.key("protocol_audit").beginObject();
    w.key("mode").value(obs::auditModeName(a.mode()));
    w.key("commands_audited").value(a.commandsAudited());
    w.key("violations").value(a.violationCount());
    w.endObject();
}

void
writeControllerStats(JsonWriter &w, const ctrl::ControllerStats &st)
{
    w.key("reads").value(st.reads);
    w.key("writes").value(st.writes);
    w.key("forwarded_reads").value(st.forwardedReads);
    w.key("read_latency_mean").value(st.readLatency.mean());
    w.key("write_latency_mean").value(st.writeLatency.mean());
    w.key("row_hit_rate").value(st.rowHitRate());
    w.key("row_conflict_rate").value(st.rowConflictRate());
    w.key("row_empty_rate").value(st.rowEmptyRate());
    w.key("write_saturation_rate").value(st.writeSaturationRate());
    w.key("refreshes").value(st.refreshes);
    w.key("bytes_transferred").value(st.bytesTransferred);
    w.key("mem_ticks").value(st.ticks);
    w.key("outstanding_reads_mean").value(st.outstandingReads.mean());
    w.key("outstanding_writes_mean").value(st.outstandingWrites.mean());
}

void
writeFairnessJson(JsonWriter &w, const FairnessMetrics &f)
{
    w.key("fairness").beginObject();
    w.key("per_core_ipc_alone").beginArray();
    for (double v : f.perCoreIpcAlone)
        w.value(v);
    w.endArray();
    w.key("per_core_slowdown").beginArray();
    for (double v : f.perCoreSlowdown)
        w.value(v);
    w.endArray();
    w.key("max_slowdown").value(f.maxSlowdown);
    w.key("weighted_speedup").value(f.weightedSpeedup);
    w.key("harmonic_speedup").value(f.harmonicSpeedup);
    w.endObject();
}

/** Per-core table of a CMP mix (with the alone baselines when the
 *  fairness metrics were computed) and the fairness aggregates. */
void
writePerCoreText(std::ostream &os, const RunResult &r)
{
    const std::vector<std::string> workloads = mixWorkloads(r.workload);
    const FairnessMetrics *f = r.fairness ? &*r.fairness : nullptr;
    Table t;
    if (f)
        t.header({"core", "workload", "cpu cycles", "IPC", "IPC alone",
                  "slowdown"});
    else
        t.header({"core", "workload", "cpu cycles", "IPC"});
    for (std::size_t i = 0; i < r.perCoreCpuCycles.size(); ++i) {
        std::vector<std::string> row = {
            std::to_string(i), workloads.at(i),
            std::to_string(r.perCoreCpuCycles[i]),
            Table::num(r.perCoreIpc.at(i), 3)};
        if (f) {
            row.push_back(Table::num(f->perCoreIpcAlone.at(i), 3));
            row.push_back(Table::num(f->perCoreSlowdown.at(i), 3));
        }
        t.row(row);
    }
    t.print(os);
    if (f)
        os << "fairness: max slowdown " << Table::num(f->maxSlowdown, 3)
           << ", weighted speedup " << Table::num(f->weightedSpeedup, 3)
           << ", harmonic speedup " << Table::num(f->harmonicSpeedup, 3)
           << '\n';
}

} // namespace

void
writeResultJson(std::ostream &os, const RunResult &r)
{
    JsonWriter w(os);
    w.beginObject();
    const bool cmp = r.perCoreCpuCycles.size() > 1;
    w.key("workload").value(r.workload);
    if (cmp) {
        w.key("workloads").beginArray();
        for (const std::string &wl : mixWorkloads(r.workload))
            w.value(wl);
        w.endArray();
    }
    w.key("mechanism").value(ctrl::mechanismName(r.mechanism));
    w.key("instructions").value(r.instructions);
    w.key("exec_cpu_cycles").value(r.execCpuCycles);
    if (cmp) {
        w.key("per_core_cpu_cycles").beginArray();
        for (std::uint64_t c : r.perCoreCpuCycles)
            w.value(c);
        w.endArray();
        w.key("per_core_ipc").beginArray();
        for (double v : r.perCoreIpc)
            w.value(v);
        w.endArray();
    }
    w.key("mem_cycles").value(r.memCycles);
    w.key("ipc").value(r.ipc);
    w.key("addr_bus_utilization").value(r.addrBusUtil);
    w.key("data_bus_utilization").value(r.dataBusUtil);
    w.key("bandwidth_gbs").value(r.bandwidthGBs);
    w.key("l2_misses").value(r.l2Misses);
    w.key("mem_reads").value(r.memReads);
    w.key("mem_writes").value(r.memWrites);
    w.key("controller").beginObject();
    writeControllerStats(w, r.ctrl);
    w.endObject();
    w.key("scheduler").beginObject();
    for (const auto &[k, v] : r.sched)
        w.key(k).value(v);
    w.endObject();
    w.key("energy").beginObject();
    w.key("total_joules").value(r.energy.total());
    w.key("act_pre_joules").value(r.energy.actPre);
    w.key("read_joules").value(r.energy.readBurst);
    w.key("write_joules").value(r.energy.writeBurst);
    w.key("refresh_joules").value(r.energy.refresh);
    w.key("background_joules").value(r.energy.background);
    w.key("average_watts").value(r.avgPowerW);
    w.endObject();
    if (r.fairness)
        writeFairnessJson(w, *r.fairness);
    if (r.obs && r.obs->latency())
        writeLatencyBreakdownJson(w, *r.obs->latency());
    if (r.obs && r.obs->stalls())
        writeCycleAccountingJson(w, *r.obs->stalls());
    if (r.obs && r.obs->auditor())
        writeProtocolAuditJson(w, *r.obs->auditor());
    if (r.obs && r.obs->introspect()) {
        // Deterministic (simulated state only); the host self-profile
        // deliberately never appears here — see writeResultText.
        w.key("engine_introspect");
        r.obs->introspect()->writeJson(w);
    }
    if (r.obs && r.obs->critpath()) {
        w.key("critical_path");
        r.obs->critpath()->writeJson(w);
    }
    w.endObject();
    os << '\n';
}

void
writeResultText(std::ostream &os, const RunResult &r)
{
    os << "workload " << r.workload << ", mechanism "
       << ctrl::mechanismName(r.mechanism) << ", " << r.instructions
       << " instructions"
       << (r.perCoreCpuCycles.size() > 1 ? " per core\n" : "\n");
    Table t;
    t.header({"metric", "value"});
    t.row({"execution time (CPU cycles)",
           std::to_string(r.execCpuCycles)});
    t.row({"IPC", Table::num(r.ipc, 3)});
    t.row({"read latency (mem cycles)",
           Table::num(r.ctrl.readLatency.mean(), 1)});
    t.row({"write latency (mem cycles)",
           Table::num(r.ctrl.writeLatency.mean(), 1)});
    t.row({"row hit / conflict / empty",
           Table::pct(r.ctrl.rowHitRate()) + " / " +
               Table::pct(r.ctrl.rowConflictRate()) + " / " +
               Table::pct(r.ctrl.rowEmptyRate())});
    t.row({"addr / data bus utilization",
           Table::pct(r.addrBusUtil) + " / " + Table::pct(r.dataBusUtil)});
    t.row({"write queue saturation",
           Table::pct(r.ctrl.writeSaturationRate())});
    t.row({"effective bandwidth", Table::num(r.bandwidthGBs, 2) + " GB/s"});
    t.row({"memory reads / writes", std::to_string(r.ctrl.reads) + " / " +
                                        std::to_string(r.ctrl.writes)});
    t.row({"DRAM energy / avg power",
           Table::num(r.energy.total() * 1e3, 2) + " mJ / " +
               Table::num(r.avgPowerW, 2) + " W"});
    for (const auto &[k, v] : r.sched)
        t.row({"scheduler: " + k, Table::num(v, 0)});
    t.print(os);

    if (r.perCoreCpuCycles.size() > 1 || r.fairness) {
        os << '\n';
        writePerCoreText(os, r);
    }

    if (r.obs && r.obs->latency()) {
        const obs::LatencyBreakdown &lat = *r.obs->latency();
        os << "\nlatency breakdown (mem cycles, means per phase)\n";
        Table lt;
        lt.header({"class", "count", "queue", "pick", "prep", "data",
                   "total", "p95"});
        for (std::size_t i = 0; i < obs::kNumAccessClasses; ++i) {
            const auto c = obs::AccessClass(i);
            const obs::PhaseStats &ps = lat.of(c);
            lt.row({obs::accessClassName(c),
                    std::to_string(ps.count()),
                    Table::num(ps.queueMean.mean(), 1),
                    Table::num(ps.pickMean.mean(), 1),
                    Table::num(ps.prepMean.mean(), 1),
                    Table::num(ps.dataMean.mean(), 1),
                    Table::num(ps.totalMean.mean(), 1),
                    std::to_string(ps.total.percentile(0.95))});
        }
        lt.row({"forwarded",
                std::to_string(lat.forwardedMean().count()), "-", "-",
                "-", "-", Table::num(lat.forwardedMean().mean(), 1),
                std::to_string(lat.forwarded().percentile(0.95))});
        lt.print(os);
    }

    if (r.obs && r.obs->stalls()) {
        os << '\n';
        r.obs->stalls()->writeText(os);
    }

    if (r.obs && r.obs->auditor()) {
        const obs::ProtocolAuditor &a = *r.obs->auditor();
        os << "\nprotocol audit (" << obs::auditModeName(a.mode())
           << "): " << a.commandsAudited() << " commands, "
           << a.violationCount() << " violations\n";
    }

    if (r.obs && r.obs->introspect()) {
        os << '\n';
        r.obs->introspect()->writeText(os, r.memCycles);
    }

    if (r.obs && r.obs->critpath()) {
        os << '\n';
        r.obs->critpath()->writeText(os);
    }

    if (r.selfprof && r.selfprof->valid) {
        // Host wall time: text report only, never the result JSON, so
        // simulated outputs stay reproducible byte for byte.
        os << '\n';
        r.selfprof->writeText(os);
    }
}

} // namespace bsim::sim
