/**
 * @file
 * Quickstart: build a simulated machine (Raptor Lake + DIMM S2),
 * reverse-engineer its DRAM address mapping, tune the counter-
 * speculation NOP barrier and run one prefetch-based hammering pass.
 *
 * This is the 5-minute tour of the library's public API.
 *
 * Pass `--trace FILE.json` to record the run as a Chrome trace_event
 * document: open the file at https://ui.perfetto.dev to see phase
 * slices (reverse-engineering, NOP tuning, hammering) with bit-flip
 * and fault instants on the timeline. Tracing also switches on the
 * unified metrics dump at the end of the run.
 */

#include <cstdio>
#include <cstring>

#include "bench_util.hh"
#include "common/logging.hh"
#include "hammer/nop_tuner.hh"
#include "hammer/pattern_fuzzer.hh"
#include "memsys/memory_system.hh"
#include "os/pagemap.hh"
#include "revng/reverse_engineer.hh"
#include "trace/chrome_trace.hh"
#include "trace/metrics.hh"
#include "trace/metrics_adapters.hh"
#include "trace/tracer.hh"

using namespace rho;

int
main(int argc, char **argv)
{
    setVerbose(false);

    const char *trace_path = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--trace"))
            bench::usageError(std::string("unknown argument '") + argv[i]
                              + "': expected --trace FILE.json");
        if (i + 1 >= argc)
            bench::usageError("--trace needs a value");
        trace_path = argv[++i];
    }

    // 1. A simulated machine: Raptor Lake core + DDR4 DIMM "S2".
    const DimmProfile &dimm = DimmProfile::byId("S2");
    MemorySystem sys(SystemSpec(Arch::RaptorLake, dimm));
    std::printf("machine: %s + DIMM %s (%u GiB)\n",
                archName(sys.arch()).c_str(), dimm.id.c_str(),
                dimm.geom.sizeGib());

    // Optional event tracing. High-rate categories are masked off: a
    // quickstart run issues millions of ACTs (and the TRR sampler
    // observes a large fraction of them), which would swamp both the
    // ring and the Perfetto timeline. What remains — phase slices,
    // bit-flip and fault instants — is the story worth looking at.
    Tracer tracer(TraceConfig{true, CatFlip | CatFault | CatPhase,
                              std::size_t{1} << 20});
    if (trace_path)
        sys.attachTracer(&tracer);

    // 2. Reverse-engineer the DRAM address mapping from timing alone.
    BuddyAllocator buddy(sys.mapping().memBytes());
    PhysPool pool(buddy, 0.70);
    TimingProbe probe(sys, 7);
    RhoReverseEngineer re(probe, pool, 7);
    MappingRecovery rec = re.run();
    std::printf("mapping recovered in %.1f s (sim): %zu bank fns, "
                "rows %u-%u — %s\n",
                rec.simTimeNs / 1e9, rec.bankFns.size(),
                rec.rowBits.front(), rec.rowBits.back(),
                rec.matches(sys.mapping()) ? "matches ground truth"
                                           : "MISMATCH");

    // 3. Counter-speculation tuning: find the optimal NOP count.
    HammerSession session(sys, 11);
    Rng rng(11);
    HammerPattern pattern = HammerPattern::randomNonUniform(rng);
    HammerConfig cfg;
    cfg.instr = HammerInstr::PrefetchNta;
    cfg.numBanks = 3;
    cfg.obfuscate = true;
    cfg.accessBudget = 400000;
    NopTuneResult tune = tuneNops(session, pattern, cfg,
                                  {0, 60, 120, 180, 260, 400, 700},
                                  /*locations=*/4);
    std::printf("NOP tuning: best=%u nops (%llu flips)\n", tune.bestNops,
                static_cast<unsigned long long>(tune.bestFlips));

    // 4. Hammer with the tuned configuration.
    cfg.barrier = BarrierKind::Nop;
    cfg.nopCount = tune.bestNops;
    HammerLocation loc = session.tryRandomLocation(pattern, cfg).loc.value();
    HammerOutcome out = session.hammer(pattern, loc, cfg);
    std::printf("hammering bank %u row %llu: %llu bit flips, "
                "miss rate %.0f%%, %.1f M ACT/s\n",
                loc.bank, static_cast<unsigned long long>(loc.baseRow),
                static_cast<unsigned long long>(out.flips),
                out.perf.missRate() * 100.0,
                out.perf.dramAccessRate() / 1e6);

    // 5. Export the trace and the unified counters.
    if (trace_path) {
        sys.attachTracer(nullptr);
        if (!chromeTraceWrite(trace_path, tracer.events())) {
            std::fprintf(stderr, "failed to write %s\n", trace_path);
            return 1;
        }
        std::printf("\nwrote %zu events to %s (load at "
                    "https://ui.perfetto.dev)\n",
                    tracer.events().size(), trace_path);
        if (tracer.dropped() > 0)
            std::printf("note: ring overflowed, %llu oldest events "
                        "dropped\n",
                        static_cast<unsigned long long>(tracer.dropped()));

        MetricsRegistry metrics;
        addMetrics(metrics, sys.dimm());
        addMetrics(metrics, out.perf);
        std::printf("\nunified metrics:\n%s", metrics.dump().c_str());
    }
    return 0;
}
