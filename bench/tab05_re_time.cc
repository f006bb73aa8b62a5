/**
 * @file
 * Table 5: reverse-engineering runtime and correctness of rhoHammer's
 * method vs the DRAMA / DRAMDig / DARE baselines, per architecture.
 */

#include "bench_util.hh"
#include "revng/baseline_dare.hh"
#include "revng/baseline_drama.hh"
#include "revng/baseline_dramdig.hh"
#include "revng/reverse_engineer.hh"

using namespace rho;

namespace
{

struct Rig
{
    MemorySystem sys;
    BuddyAllocator buddy;
    PhysPool pool;
    TimingProbe probe;

    Rig(Arch arch, std::uint64_t seed)
        : sys(SystemSpec(arch, DimmProfile::byId("S1"))),
          buddy(sys.mapping().memBytes(), 0.02, seed),
          pool(buddy, 0.70), probe(sys, seed)
    {
    }
};

std::string
cell(double time_s, unsigned ok, unsigned runs, bool deterministic)
{
    if (ok == 0)
        return "-";
    std::string s = strFormat("%.1fs", time_s);
    if (!deterministic || ok < runs)
        s += strFormat("* (%u/%u)", ok, runs);
    return s;
}

} // namespace

int
main()
{
    bench::banner("Tab. 5",
                  "mapping recovery time vs prior art (16 GiB DIMM "
                  "S1; '-' = no correct result / abort)");

    unsigned runs = static_cast<unsigned>(
        std::max<std::uint64_t>(2, bench::scaled(5)));

    std::vector<std::string> header = {"tool"};
    for (Arch arch : allArchs)
        header.push_back(archCpu(arch));
    TextTable table(header);

    std::vector<std::string> drama_row = {"DRAMA"};
    std::vector<std::string> dramdig_row = {"DRAMDig"};
    std::vector<std::string> dare_row = {"DARE"};
    std::vector<std::string> rho_row = {"rhoHammer"};

    RetryStats drama_retry, dramdig_retry, dare_retry, rho_retry;

    for (Arch arch : allArchs) {
        unsigned ok;
        double t;

        // DRAMA
        ok = 0, t = 0;
        for (unsigned i = 0; i < runs; ++i) {
            Rig rig(arch, 100 + i);
            DramaReverseEngineer tool(rig.probe, rig.pool, 100 + i);
            auto rec = tool.run();
            ok += rec.matches(rig.sys.mapping());
            t += rec.simTimeNs / 1e9;
            drama_retry += rec.measureRetry;
        }
        drama_row.push_back(cell(t / runs, ok, runs, false));

        // DRAMDig
        ok = 0, t = 0;
        for (unsigned i = 0; i < runs; ++i) {
            Rig rig(arch, 200 + i);
            DramDigReverseEngineer tool(rig.probe, rig.pool, 200 + i);
            auto rec = tool.run();
            ok += rec.matches(rig.sys.mapping());
            t += rec.simTimeNs / 1e9;
            dramdig_retry += rec.measureRetry;
        }
        dramdig_row.push_back(cell(t / runs, ok, runs, true));

        // DARE
        ok = 0, t = 0;
        for (unsigned i = 0; i < runs; ++i) {
            Rig rig(arch, 300 + i);
            DareReverseEngineer tool(rig.probe, rig.pool,
                                     rig.sys.mapping(), 300 + i);
            auto rec = tool.run();
            ok += rec.matches(rig.sys.mapping());
            t += rec.simTimeNs / 1e9;
            dare_retry += rec.measureRetry;
        }
        dare_row.push_back(cell(t / runs, ok, runs, false));

        // rhoHammer
        ok = 0, t = 0;
        for (unsigned i = 0; i < runs; ++i) {
            Rig rig(arch, 400 + i);
            RhoReverseEngineer tool(rig.probe, rig.pool, 400 + i);
            auto rec = tool.run();
            ok += rec.matches(rig.sys.mapping());
            t += rec.simTimeNs / 1e9;
            rho_retry += rec.measureRetry;
        }
        rho_row.push_back(ok == runs ? strFormat("%.1fs", t / runs)
                                     : cell(t / runs, ok, runs, true));
    }
    table.addRow(drama_row);
    table.addRow(dramdig_row);
    table.addRow(dare_row);
    table.addRow(rho_row);
    table.print();
    std::printf("\nmeasurement retries (all archs, %u runs each):\n"
                "  DRAMA     %s\n  DRAMDig   %s\n  DARE      %s\n"
                "  rhoHammer %s\n",
                runs, drama_retry.summary().c_str(),
                dramdig_retry.summary().c_str(),
                dare_retry.summary().c_str(),
                rho_retry.summary().c_str());
    std::puts("\n(*) partially non-deterministic. Shape: rhoHammer "
              "recovers all platforms in seconds — including the Zen "
              "offset-region non-linearity; DRAMDig is ~two orders of "
              "magnitude slower and aborts on Alder/Raptor; DARE is "
              "partial on Comet/Rocket and fails on newer parts; DRAMA "
              "never succeeds.");
    return 0;
}
