/**
 * @file
 * Shared pieces of the cmpqos end-to-end benchmark: the three
 * workloads, their seeded arrival lists, the recording observer, the
 * correctness checks computed apart from the program, and the result
 * printer. See README.md for what each workload measures and why.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/engine.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "service/epoch_config.hh"

namespace perfbench
{

using namespace cmpqos;

/** Fewest admission-latency samples a run pools: 100 beyond p90. */
constexpr std::size_t kMinLatencySamples = 1000;
/** Engine worker threads every workload runs with. */
constexpr unsigned kEngineThreads = 2;
/** Cluster size of every workload. */
constexpr int kNodes = 8;
/** qosd_fed: shards the daemon federates its epoch over. Each shard
 *  runs one worker, so the engine again has two workers. */
constexpr int kShards = 2;
/** Distinct arrival lists a run cycles through (each repeated list
 *  must reproduce its fingerprint); simulated-time metrics sum over
 *  one pass, so they vary less from seed to seed. */
constexpr std::size_t kLists = 16;

enum class Driver
{
    /** ClusterEngine::runToCompletion in this process. */
    Engine,
    /** An in-process QosDaemon driven by one closed-loop client. */
    Qosd,
};

struct Workload
{
    const char *name;
    Driver driver;
    /** Mean Poisson inter-arrival gap, cycles. */
    double meanGap;
    /** Instructions per job. */
    InstCount instructions;
    /** Arrivals offered per round. Every round replays the same
     *  arrival list, so memory stays at one round's worth. */
    std::uint64_t arrivals;
    /** A completed Strict job missing its deadline fails the run;
     *  when false it is only counted (a known fault, see README). */
    bool strictMustHold;
};

/** The workload named @p name, or nullptr. */
const Workload *findWorkload(const std::string &name);

/** The paper's default mix (bzip2/hmmer/gobmk; Gold/Silver/Bronze at
 *  50/30/20 over Strict/Elastic(0.05)/Opportunistic) at the
 *  workload's job length. */
ArrivalMix workloadMix(const Workload &w);

/** The seeds of a run's kLists arrival lists (and, for the engine
 *  workloads, of their cluster). */
std::vector<std::uint64_t> listSeeds(std::uint64_t seed);

/** The seeded arrival list of one round. */
std::vector<ClusterArrival> makeArrivals(const Workload &w,
                                         std::uint64_t seed);

/** Engine configuration of the Engine-driven workloads. */
ClusterConfig engineConfig(std::uint64_t seed, unsigned threads);

/** Epoch configuration of qosd_fed (controller on, oracle on). */
EpochConfig qosdEpoch(const Workload &w, std::uint64_t seed);

/**
 * Force the one-time solo-CPI calibration of every (benchmark, ways)
 * pair @p mix uses. @return the host milliseconds of each call (a
 * call whose pair is already memoised costs almost nothing).
 */
std::vector<double> calibrateMix(const ArrivalMix &mix,
                                 const CmpConfig &cmp);

/** Host monotonic clock, nanoseconds (CLOCK_MONOTONIC on Linux, the
 *  clock run.py stamps process start with). */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Peak resident set of this process so far, MB. */
double peakRssMb();
/** Current resident set of this process, KB. */
double currentRssKb();
/** Minor page faults of this process so far. */
std::uint64_t minorFaults();

/** Median of @p v (copied); 0 for an empty vector. */
double median(std::vector<double> v);
/** Nearest-rank percentile @p p in (0, 100] of @p v (copied). */
double percentile(std::vector<double> v, double p);

/** Replays a fixed arrival list, stamping when each is offered. */
class OfferedArrivals : public ArrivalProcess
{
  public:
    explicit OfferedArrivals(const std::vector<ClusterArrival> &list)
        : list_(list), offeredNs_(list.size(), 0)
    {
    }

    std::optional<ClusterArrival>
    next() override
    {
        if (pos_ >= list_.size())
            return std::nullopt;
        offeredNs_[pos_] = nowNs();
        return list_[pos_++];
    }

    const std::vector<std::int64_t> &offeredNs() const
    {
        return offeredNs_;
    }

  private:
    const std::vector<ClusterArrival> &list_;
    std::vector<std::int64_t> offeredNs_;
    std::size_t pos_ = 0;
};

/**
 * Records what the engine decided and when: every placement outcome
 * (with the host time of the verdict and the quantum barrier it fell
 * before) and every quantum barrier's virtual time.
 */
class Recorder : public EngineObserver
{
  public:
    void
    onPlacement(const ClusterArrival &arrival,
                const PlacementOutcome &outcome) override
    {
        verdictNs.push_back(nowNs());
        arrivals.push_back(arrival);
        outcomes.push_back(outcome);
        quantumOf.push_back(quanta.size());
    }

    void
    onQuantum(Cycle now) override
    {
        quantumNs.push_back(nowNs());
        quanta.push_back(now);
    }

    std::vector<std::int64_t> verdictNs;
    std::vector<ClusterArrival> arrivals;
    std::vector<PlacementOutcome> outcomes;
    /** Barriers passed before each placement. */
    std::vector<std::size_t> quantumOf;
    std::vector<Cycle> quanta;
    std::vector<std::int64_t> quantumNs;
};

/**
 * The per-round checks, computed from the benchmark's own arrival
 * list and the verdicts it observed: conservation (every arrival got
 * exactly one verdict, submitted = accepted + rejected, completed =
 * accepted, instructions retired = the accepted arrivals' sum), the
 * Strict guarantee (every completed Strict job met its deadline; only
 * when @p strictMustHold), and a clean oracle. Appends one line per
 * failed check to @p errors.
 * @return operations failed: arrivals without a verdict plus
 * accepted jobs that never completed.
 */
std::uint64_t checkRound(const std::vector<ClusterArrival> &offered,
                         const std::vector<PlacementOutcome> &outcomes,
                         const ClusterMetrics &m, bool strictMustHold,
                         std::vector<std::string> &errors);

/** Completed jobs that met their granted deadline. */
std::uint64_t deadlineHits(const ClusterMetrics &m);
/** Completed Strict jobs that missed their deadline. */
std::uint64_t strictMissed(const ClusterMetrics &m);

/** One named metric of the final JSON line. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** What one run reports. */
struct Result
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;
    std::vector<Metric> metrics;
    /** Informational lines printed before the JSON line. */
    std::vector<std::string> notes;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
};

/** Print notes, errors (stderr) and the final JSON line.
 *  @return the process exit code: 0 iff every check passed. */
int printResult(const Result &r);

/** Untraced run: end-to-end metrics. @p t0Ns is when run.py started
 *  this process; @p setupOnly stops at the first arrival offered. */
Result runEngineWorkload(const Workload &w, std::uint64_t seed,
                         double seconds, std::int64_t t0Ns,
                         bool setupOnly);
Result runQosdWorkload(const Workload &w, std::uint64_t seed,
                       double seconds, std::int64_t t0Ns,
                       bool setupOnly);

/** Traced run: per-layer metrics (traced.cc). */
Result runTraced(const Workload &w, std::uint64_t seed, double seconds);

/**
 * qosd_fed's daemon plus one connected client, in this process. The
 * socket and journal live under the working directory (run.py starts
 * the benchmark in a scratch directory inside the checkout).
 */
class QosdHarness
{
  public:
    explicit QosdHarness(const EpochConfig &epoch);
    ~QosdHarness();

    QosdHarness(const QosdHarness &) = delete;
    QosdHarness &operator=(const QosdHarness &) = delete;

    /** Start the daemon and connect the client. */
    bool start(std::string &err);
    QosClient &client() { return *client_; }
    std::string journalPath(std::uint64_t epoch) const
    {
        return daemon_->journalPath(epoch);
    }
    /** Drain with shutdown and join the daemon's network thread. */
    bool shutdown(std::string &err);

  private:
    std::string socketPath_;
    std::string journalDir_;
    std::optional<QosDaemon> daemon_;
    std::unique_ptr<QosClient> client_;
    std::thread net_;
};

/** One closed-loop epoch through qosd: submit every arrival, waiting
 *  for each verdict, then drain. */
struct QosdRound
{
    std::vector<std::int64_t> sentNs;
    std::vector<std::int64_t> replyNs;
    std::vector<PlacementOutcome> outcomes;
    std::uint64_t errorReplies = 0;
    std::uint64_t drainedSubmitted = 0;
    std::uint64_t drainedAccepted = 0;
    std::uint64_t drainedCompleted = 0;
    std::string fingerprint;
    std::int64_t endNs = 0;
    bool ok = false;
};

QosdRound runQosdRound(QosClient &client,
                       const std::vector<ClusterArrival> &arrivals,
                       std::string &err);

/** Replay an epoch journal through a 1-thread, single-process
 *  ClusterEngine; @p rec records its placements and barriers. */
ClusterMetrics replayJournal(const std::string &path, Recorder &rec,
                             std::string &err);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
