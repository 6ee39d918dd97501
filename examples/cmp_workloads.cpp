/**
 * @file
 * Chip-multiprocessor example (paper Section 6): run a mix of workloads
 * on 1-4 cores with private caches sharing one memory controller, and
 * watch how scheduling quality and per-core slowdowns change as the
 * memory system becomes the bottleneck.
 *
 *   ./cmp_workloads [instructions-per-core]
 */

#include <cstdint>
#include <cstdlib>
#include <iostream>

#include "common/table.hh"
#include "sim/experiment.hh"

int
main(int argc, char **argv)
{
    using namespace bsim;

    const std::uint64_t instr =
        argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 40'000;

    std::cout << "cmp_workloads: private caches, shared DDR2-800 memory "
                 "controller\n("
              << instr << " instructions per core)\n\n";

    // One profile per core, '+'-joined.
    for (const char *mix : {"swim", "swim+mcf", "swim+mcf+gcc+art"}) {
        Table t;
        t.header({mix, "exec cycles", "data bus", "GB/s", "WQ sat",
                  "per-core finish"});
        for (ctrl::Mechanism m :
             {ctrl::Mechanism::BkInOrder, ctrl::Mechanism::BurstTH}) {
            sim::ExperimentConfig cfg;
            cfg.workload = mix;
            cfg.mechanism = m;
            cfg.instructions = instr;
            const sim::RunResult r = sim::runExperiment(cfg);
            std::string percore;
            for (auto c : r.perCoreCpuCycles)
                percore += (percore.empty() ? "" : " / ") +
                           std::to_string(c / 1000) + "k";
            t.row({
                ctrl::mechanismName(m),
                std::to_string(r.execCpuCycles),
                Table::pct(r.dataBusUtil),
                Table::num(r.bandwidthGBs, 2),
                Table::pct(r.ctrl.writeSaturationRate()),
                percore,
            });
        }
        t.print(std::cout);
        std::cout << '\n';
    }

    std::cout << "More cores raise data-bus pressure; burst scheduling's "
                 "advantage shows in the\nbandwidth and saturation "
                 "columns even when both policies near the pin limit.\n";
    return 0;
}
