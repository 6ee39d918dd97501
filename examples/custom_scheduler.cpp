/**
 * @file
 * Extending burstsim with a custom access reordering mechanism.
 *
 * This example implements a "closed-row first" scheduler through the
 * public Scheduler interface: it prefers accesses whose banks are
 * precharged (cheap row empties) over everything else, a policy the
 * paper does not evaluate. It then races the custom policy against
 * BkInOrder and Burst_TH on the same access stream, driving the
 * controller directly — the lowest-level public API.
 *
 * The point of the example is the integration pattern:
 *   1. subclass bsim::ctrl::Scheduler,
 *   2. keep whatever queue structures your policy needs,
 *   3. issue at most one unblocked transaction per tick() through the
 *      timing engine (the engine rejects anything illegal, so a policy
 *      bug cannot violate device timing),
 *   4. drive it with MemoryController or standalone.
 */

#include <deque>
#include <functional>
#include <iostream>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "common/table.hh"
#include "ctrl/controller.hh"
#include "ctrl/scheduler.hh"
#include "ctrl/schedulers/factory.hh"
#include "dram/memory_system.hh"

using namespace bsim;

namespace
{

/** Prefer accesses that find their bank precharged (row empty). */
class ClosedRowFirstScheduler : public ctrl::Scheduler
{
  public:
    explicit ClosedRowFirstScheduler(const ctrl::SchedulerContext &ctx)
        : Scheduler(ctx), queues_(numBanks())
    {
    }

    void
    enqueue(ctrl::MemAccess *a) override
    {
        queues_[bankIndex(a->coords)].push_back(a);
        if (a->isWrite()) {
            writes_ += 1;
            noteWriteEnqueued(a);
        } else {
            reads_ += 1;
        }
    }

    Issued
    tick(Tick now) override
    {
        // Pass 1: any queue head whose bank is closed (row empty) or
        // open at the right row (hit). Pass 2: anything issuable.
        for (int pass = 0; pass < 2; ++pass) {
            for (auto &q : queues_) {
                if (q.empty())
                    continue;
                ctrl::MemAccess *a = q.front();
                const auto outcome = ctx_.mem->classify(a->coords);
                if (pass == 0 && outcome == dram::RowOutcome::Conflict)
                    continue;
                if (probeFor(a, now).readyAt > now)
                    continue;
                Issued out = issueFor(a, now);
                if (out.columnAccess) {
                    q.pop_front();
                    if (a->isWrite())
                        writes_ -= 1;
                    else
                        reads_ -= 1;
                }
                return out;
            }
        }
        return {};
    }

    std::size_t readCount() const override { return reads_; }
    std::size_t writeCount() const override { return writes_; }
    bool hasWork() const override { return reads_ + writes_ > 0; }

  private:
    std::vector<std::deque<ctrl::MemAccess *>> queues_;
    std::size_t reads_ = 0;
    std::size_t writes_ = 0;
};

/** Result of racing one scheduler. */
struct RaceResult
{
    Tick cycles = 0;
    int hits = 0, empties = 0, conflicts = 0;
};

/** Drive one scheduler over a fixed random access stream. */
RaceResult
race(dram::MemorySystem &mem, ctrl::Scheduler &sched, std::uint64_t seed,
     int accesses)
{
    Rng rng(seed);
    std::vector<std::unique_ptr<ctrl::MemAccess>> own;
    Tick now = 0;
    int submitted = 0;
    while (submitted < accesses || sched.hasWork()) {
        // A new access every few cycles, 30% writes, skewed row reuse.
        if (submitted < accesses && rng.chance(0.5)) {
            auto a = std::make_unique<ctrl::MemAccess>();
            a->id = std::uint64_t(submitted + 1);
            a->type = rng.chance(0.3) ? AccessType::Write
                                      : AccessType::Read;
            dram::Coords c;
            c.channel = 0;
            c.rank = std::uint32_t(rng.below(2));
            c.bank = std::uint32_t(rng.below(2));
            c.row = std::uint32_t(rng.below(4)); // few rows: reuse
            c.col = std::uint32_t(rng.below(32));
            a->coords = c;
            a->addr = mem.addressMap().encode(c);
            a->arrival = now;
            sched.enqueue(a.get());
            own.push_back(std::move(a));
            submitted += 1;
        }
        sched.tick(now);
        ++now;
    }
    RaceResult res;
    res.cycles = now;
    for (const auto &a : own) {
        if (!a->outcomeValid)
            continue;
        switch (a->outcome) {
          case dram::RowOutcome::Hit: res.hits += 1; break;
          case dram::RowOutcome::Empty: res.empties += 1; break;
          case dram::RowOutcome::Conflict: res.conflicts += 1; break;
        }
    }
    return res;
}

} // namespace

int
main()
{
    std::cout << "custom_scheduler: plugging a new policy into the "
                 "burstsim scheduler API\n\n";

    dram::DramConfig dcfg;
    dcfg.channels = 1;
    dcfg.ranksPerChannel = 2;
    dcfg.banksPerRank = 2;
    dcfg.rowsPerBank = 64;
    dcfg.blocksPerRow = 32;
    dcfg.timing.tREFI = 0;

    Table t("500 accesses, identical stream, one channel:");
    t.header({"policy", "cycles to drain", "row hit", "row empty",
              "row conflict"});

    struct Entry
    {
        const char *name;
        std::function<std::unique_ptr<ctrl::Scheduler>(
            const ctrl::SchedulerContext &)>
            make;
    };
    ctrl::GlobalCounts counts;
    const std::vector<Entry> entries = {
        {"BkInOrder",
         [](const auto &ctx) {
             return ctrl::makeScheduler(ctrl::Mechanism::BkInOrder, ctx);
         }},
        {"Burst_TH",
         [](const auto &ctx) {
             return ctrl::makeScheduler(ctrl::Mechanism::BurstTH, ctx);
         }},
        {"ClosedRowFirst (custom)",
         [](const auto &ctx) -> std::unique_ptr<ctrl::Scheduler> {
             return std::make_unique<ClosedRowFirstScheduler>(ctx);
         }},
    };

    for (const auto &e : entries) {
        dram::MemorySystem mem(dcfg);
        ctrl::SchedulerContext ctx;
        ctx.mem = &mem;
        ctx.channel = 0;
        ctx.global = &counts;
        auto sched = e.make(ctx);
        const RaceResult r = race(mem, *sched, 2007, 500);
        t.row({e.name, std::to_string(r.cycles),
               std::to_string(r.hits), std::to_string(r.empties),
               std::to_string(r.conflicts)});
    }
    t.print(std::cout);
    std::cout << "\nFewer cycles to drain = better; note how each policy "
                 "trades row hits\nagainst conflicts on the same stream.\n";
    return 0;
}
