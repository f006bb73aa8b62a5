/**
 * @file
 * The benchmark's workload interface and the pieces its three
 * workloads share: output digests, the timed memory-backend decorator,
 * HammerSession::hammer() rebuilt from public calls for the traced
 * pass, and the device-path replay.
 *
 * A workload is a fixed amount of simulator work derived from the
 * seed. The runner (runBenchmark) sets it up and warms it up, repeats
 * it untraced for the measurement window, checks every repetition's
 * output, and, when asked, runs one traced pass that times the calls
 * into each simulator layer.
 */

#ifndef RHOBENCH_WORKLOAD_HH
#define RHOBENCH_WORKLOAD_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "hammer/hammer_session.hh"
#include "memsys/memory_system.hh"
#include "spans.hh"

namespace rhobench
{

/** How much fixed work one repetition does. */
enum class Size
{
    Full, //!< the benchmark's workloads
    Tiny, //!< seconds-long smoke size for the benchmark's own tests
};

/** One benchmark invocation. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    unsigned seconds = 10;
    bool trace = false;
    Size size = Size::Full; //!< Tiny only in the benchmark's own tests
    std::string commit = "unknown";
    std::string spansPath; //!< traced pass writes its spans here if set

    /**
     * Test hook: perturb every oracle digest before comparison, which
     * must surface as failed ops (never reachable from the CLI).
     */
    bool corruptOracle = false;
};

/** Order-sensitive 64-bit digest of simulated outputs. */
class Digest
{
  public:
    void add(std::uint64_t v) { h = rho::hashCombine(h, v); }
    void addDouble(double v);
    void addFlips(const std::vector<rho::FlipRecord> &flips);
    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = 0x72686f62656e6368ULL;
};

/**
 * One checked output of a repetition: a sweep location, a frontier
 * config's campaign, or a reverse-engineering run.
 */
struct Unit
{
    std::uint64_t digest = 0;
    std::uint64_t ops = 1;       //!< ops the unit stands for
    std::uint64_t failedOps = 0; //!< ops that returned a FailureCode
};

/** Outputs and exact simulated counts of one untraced repetition. */
struct RepResult
{
    std::vector<Unit> units;
    std::uint64_t acts = 0;
    std::uint64_t trrRefreshes = 0;
    std::uint64_t rfmCommands = 0;
    std::uint64_t pracAlerts = 0;
    std::uint64_t flips = 0;
    std::uint64_t trials = 0;    //!< fuzz trials (bypass_ddr5)
    std::uint64_t effective = 0; //!< trials with at least one flip
    std::uint64_t timedAccesses = 0; //!< TimingProbe accesses (revng)
    std::uint64_t retries = 0;       //!< RE measurement retries (revng)

    // Fork-join pool accounting summed over campaigns (bypass_ddr5).
    double poolTaskMs = 0.0;     //!< sum of per-task wall time
    double poolCapacityMs = 0.0; //!< sum of jobs x fan-out wall time
    std::uint64_t poolTasks = 0;
    std::uint64_t poolSteals = 0;
};

/** Digest of one output, keyed by its unit index in RepResult. */
using UnitDigest = std::pair<std::size_t, std::uint64_t>;

/** What a traced pass reports. */
struct TracedResult
{
    /** One op's traced digest with the untraced digest it must equal. */
    struct Check
    {
        std::uint64_t traced = 0;
        std::uint64_t untraced = 0;
    };
    std::vector<Check> checks;

    /** Per-layer metrics this workload measures (name -> value). */
    std::map<std::string, double> layers;

    /**
     * Host wall time of the instrumented work (less the benchmark's
     * own bookkeeping) and of the same work uninstrumented; untracedS 0
     * means "one untraced repetition".
     */
    double tracedS = 0.0;
    double untracedS = 0.0;
};

/** The run manifest: what ran, as key/value strings. */
using Manifest = std::vector<std::pair<std::string, std::string>>;

/** One workload. Implementations live in one file each. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Throwaway warm-up pass (charged to setup_s, never to run_s). */
    virtual void warmUp() = 0;

    /** The fixed work on factory-fresh machines, untraced. */
    virtual RepResult runRep() = 0;

    /** The held-out slice rerun on the Reference CPU and row store. */
    virtual std::vector<UnitDigest> oracle() = 0;

    /**
     * The traced pass. `rep` is an untraced repetition's output, for
     * workloads whose traced pass reproduces whole units.
     */
    virtual TracedResult traced(const RepResult &rep,
                                SpanRecorder &spans) = 0;

    /** Workload-specific manifest fields. */
    virtual Manifest manifest() const = 0;
};

std::unique_ptr<Workload> makeSweepDdr4(const Options &opts);
std::unique_ptr<Workload> makeBypassDdr5(const Options &opts);
std::unique_ptr<Workload> makeRevng(const Options &opts);

/** The workload names the CLI accepts, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Build a workload by name; nullptr for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const Options &opts);

// ---------------------------------------------------------------------
// Shared instrumentation.

/** One DRAM command as the controller saw it. */
struct Command
{
    rho::PhysAddr pa;
    rho::Ns when; //!< effective issue time (after the system clock)
};

/** Host-time tallies of rebuilt hammer() calls. */
struct HammerTally
{
    double cpuSelfNs = 0.0; //!< SimCpu::run minus backend calls
    std::uint64_t cpuActs = 0;
    double backendNs = 0.0;
    std::uint64_t backendCalls = 0;
    std::uint64_t locations = 0;
    std::uint64_t memReads = 0;     //!< hammer attempts issued
    std::uint64_t dramAccesses = 0; //!< of which reached DRAM
    std::uint64_t pfQueueDrops = 0;
    std::vector<Command> stream;
    /** Host ns spent copying recorded commands into `stream`. */
    double recordNs = 0.0;
};

/**
 * HammerSession::hammer() rebuilt from public calls: fill, build the
 * kernel, run the session's CPU through a TimedBackend, sync the
 * clock, diff the victims and restore them, with a span around each
 * step. Produces the same outcome as hammer() (checked by digest).
 */
rho::HammerOutcome tracedHammer(rho::HammerSession &session,
                                const rho::HammerPattern &pattern,
                                const rho::HammerLocation &loc,
                                const rho::HammerConfig &cfg,
                                SpanRecorder &spans, HammerTally &tally);

/** Digest of one hammer() outcome plus the device counters after it. */
std::uint64_t hammerDigest(const rho::HammerOutcome &out,
                           const rho::MemorySystem &sys);

/**
 * Device-path layer costs of recorded command streams. Each stream is
 * replayed into MemoryController::access of fresh systems built with
 * the workload's config, and again with TRR, RFM or PRAC disabled
 * where the config enables them; the difference is that mitigation's
 * host cost (an estimate: the simulated outcomes differ). add() sums
 * over streams.
 */
struct DeviceCosts
{
    double fullNs = 0.0;
    std::uint64_t acts = 0;
    std::uint64_t accesses = 0;
    std::uint64_t rowHits = 0;
    double trrNs = 0.0;
    std::uint64_t trrActs = 0;
    double rfmNs = 0.0;
    std::uint64_t rfmActs = 0;
    double pracNs = 0.0;
    std::uint64_t pracActs = 0;

    void add(const rho::SystemSpec &spec,
             const std::vector<Command> &stream);

    /** Write the dram.* replay metrics. */
    void report(std::map<std::string, double> &layers) const;
};

/**
 * Write the metrics of rebuilt hammer() calls: cpu.*, memsys.backend_*,
 * and the per-call means of the instantiate, pattern-generation,
 * kernel-build, diff and fill/verify spans.
 */
void reportHammerLayers(const HammerTally &tally, const SpanRecorder &spans,
                        std::map<std::string, double> &layers);

/** Seconds of host wall time since `t0`. */
double secondsSince(std::uint64_t t0_ns);

/** steady_clock now, in ns. */
std::uint64_t nowNs();

} // namespace rhobench

#endif // RHOBENCH_WORKLOAD_HH
