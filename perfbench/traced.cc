/**
 * @file
 * The traced run: per-layer metrics, timed from outside around calls
 * into each module's public functions.
 *
 * 1. Cold solo-CPI calibration of the mix's (benchmark, ways) pairs.
 * 2. One untraced round of the workload, recorded by an
 *    EngineObserver (for qosd_fed: one daemon epoch, then its journal
 *    replayed through a 1-thread ClusterEngine to recover barriers).
 * 3. Traced replays, in whole rounds until the run's seconds are
 *    used: the recorded arrivals re-driven through fresh NodeWorkers,
 *    one node at a time, with probes, negotiation, submits,
 *    controller steps, advances, telemetry drains and oracle checks
 *    each timed. Each replay's fingerprint must equal the untraced
 *    round's.
 * 4. The same arrivals through a 2-shard FederatedEngine over UDS
 *    links (fingerprint must match too), and the wire traffic the
 *    epoch-commit protocol implies through the federation codec.
 * 5. The recorded arrivals and verdicts through the service codec
 *    and the submission journal.
 * 6. Each mix benchmark's access stream through AccessGenerator,
 *    LruStackSampler and PartitionedCache, each checked against a
 *    naive reference model written here.
 *
 * Spans are kept in memory and printed when the run ends.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <list>
#include <map>
#include <numeric>

#include <unistd.h>

#include "bench.hh"
#include "cache/partitioned_cache.hh"
#include "fault/invariants.hh"
#include "federation/federated_engine.hh"
#include "federation/message.hh"
#include "qos/framework.hh"
#include "service/journal.hh"
#include "service/protocol.hh"
#include "telemetry/collector.hh"
#include "telemetry/sink.hh"
#include "workload/benchmark.hh"
#include "workload/generator.hh"
#include "workload/stack_sampler.hh"

namespace perfbench
{

namespace
{

/** Host self-time per named phase, in first-seen order. */
class Phases
{
  public:
    void
    add(const std::string &name, std::int64_t ns)
    {
        for (auto &p : list_)
            if (p.first == name) {
                p.second += ns;
                return;
            }
        list_.emplace_back(name, ns);
    }

    std::int64_t
    total() const
    {
        std::int64_t t = 0;
        for (const auto &p : list_)
            t += p.second;
        return t;
    }

    const std::vector<std::pair<std::string, std::int64_t>> &
    list() const
    {
        return list_;
    }

  private:
    std::vector<std::pair<std::string, std::int64_t>> list_;
};

/** Adds the time from construction to destruction to one phase. */
class Span
{
  public:
    Span(Phases &phases, std::string name)
        : phases_(phases), name_(std::move(name)), start_(nowNs())
    {
    }
    ~Span() { phases_.add(name_, nowNs() - start_); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Phases &phases_;
    std::string name_;
    std::int64_t start_;
};

class CountingSink : public TraceSink
{
  public:
    void consume(const TraceEvent &) override { ++events; }
    void close(const TraceMeta &) override {}
    std::uint64_t events = 0;
};

/** Sum of a sample, and how many. */
struct Tally
{
    double sum = 0.0;
    std::uint64_t n = 0;

    void
    add(double v)
    {
        sum += v;
        ++n;
    }
    double
    mean() const
    {
        return n == 0 ? 0.0 : sum / static_cast<double>(n);
    }
};

/** What the untraced round left behind. */
struct Recording
{
    ClusterConfig config;
    Recorder rec;
    std::string fingerprint;
    ClusterMetrics metrics;
    double wallS = 0.0;
};

/** Per-layer timings pooled over every traced replay. */
struct ReplayStats
{
    Tally probeNs;
    Tally submitNs;
    Tally placementNs;
    Tally advanceNs;
    Tally barrierIdleNs;
    Tally quantumNs;
    Tally controlNs;
    Tally checkNs;
    Tally drainTelemetryNs;
    Tally nodeDrainNs;
    std::uint64_t probes = 0;
    std::uint64_t verdicts = 0;
    std::uint64_t events = 0;
    std::uint64_t accesses = 0;
    std::uint64_t retunes = 0;
    double energy = 0.0;
    InstCount instructions = 0;
    std::uint64_t replays = 0;
    double wallS = 0.0;
    /** Probe rounds each placement of the last replay took. */
    std::vector<unsigned> probeRounds;
};

/**
 * Re-drive the recorded arrivals and verdicts through fresh
 * NodeWorkers, one node at a time, timing every call. The placement
 * policy (LeastLoaded, then negotiation) is re-implemented here and
 * must pick the node the engine picked.
 */
ClusterMetrics
replayNodes(const Recording &rc, ReplayStats &st, Phases &phases,
            std::vector<std::string> &errors)
{
    const ClusterConfig &cfg = rc.config;
    const Recorder &rec = rc.rec;
    const std::int64_t wall0 = nowNs();
    Rng seeder(cfg.seed);
    std::vector<std::unique_ptr<NodeWorker>> nodes;
    for (int n = 0; n < cfg.nodes; ++n)
        nodes.push_back(
            std::make_unique<NodeWorker>(n, cfg.node, seeder.next()));
    TraceCollector collector(cfg.nodes + 1);
    CountingSink sink;
    collector.addSink(&sink);
    for (int n = 0; n < cfg.nodes; ++n) {
        nodes[static_cast<std::size_t>(n)]->setTrace(
            collector.nodeRecorder(n));
        if (cfg.control.enabled)
            nodes[static_cast<std::size_t>(n)]->enableController(
                cfg.control);
    }
    InvariantChecker checker;
    ClusterMetrics m;
    m.seed = cfg.seed;
    m.threads = 1;
    m.quantum = cfg.quantum;
    m.controllerOn = cfg.control.enabled;
    phases.add("replay.build", nowNs() - wall0);

    unsigned rounds = 0;
    auto choose = [&](const JobRequest &req, InstCount instr) -> NodeId {
        ++rounds;
        NodeId best = -1;
        std::size_t best_load = 0;
        unsigned best_ways = 0;
        for (auto &node : nodes) {
            const std::int64_t t0 = nowNs();
            const AdmissionDecision d = node->probe(req, instr);
            const std::int64_t dt = nowNs() - t0;
            st.probeNs.add(static_cast<double>(dt));
            ++st.probes;
            if (!d.accepted)
                continue;
            const std::size_t load = node->inFlight();
            const unsigned ways = node->framework()
                                      .lac()
                                      .timeline()
                                      .reservedAt(node->virtualNow())
                                      .ways;
            if (best < 0 || load < best_load ||
                (load == best_load && ways < best_ways)) {
                best = node->id();
                best_load = load;
                best_ways = ways;
            }
        }
        return best;
    };

    st.probeRounds.assign(rec.arrivals.size(), 0);
    std::size_t next = 0;
    auto place_until = [&](std::size_t quantum) {
        for (; next < rec.arrivals.size() && rec.quantumOf[next] == quantum;
             ++next) {
            const ClusterArrival &a = rec.arrivals[next];
            const PlacementOutcome &o = rec.outcomes[next];
            const std::int64_t t0 = nowNs();
            rounds = 0;
            ++m.submitted;
            JobRequest req = a.request;
            NodeId target = choose(req, a.instructions);
            bool negotiated = false;
            if (target < 0 && cfg.negotiate) {
                const double base = req.deadlineFactor;
                for (double f = 1.0 + cfg.negotiateStep;
                     f <= cfg.negotiateMaxFactor + 1e-9;
                     f += cfg.negotiateStep) {
                    req.deadlineFactor = base * f;
                    target = choose(req, a.instructions);
                    if (target >= 0) {
                        negotiated = true;
                        break;
                    }
                }
            }
            if (target != o.node || negotiated != o.negotiated ||
                (target >= 0 && req.deadlineFactor != o.deadlineFactor))
                errors.push_back("replayed placement of arrival " +
                                 std::to_string(next) +
                                 " differs from the engine's");
            if (target < 0) {
                ++m.rejected;
            } else {
                const std::int64_t s0 = nowNs();
                Job *job = nodes[static_cast<std::size_t>(target)]->submit(
                    req, a.instructions);
                const std::int64_t dt = nowNs() - s0;
                st.submitNs.add(static_cast<double>(dt));
                if (job == nullptr)
                    errors.push_back("probe/submit disagreement in replay");
                ++m.accepted;
                if (negotiated)
                    ++m.negotiated;
                ++m.acceptedByTier[static_cast<std::size_t>(a.tier)];
            }
            st.placementNs.add(static_cast<double>(nowNs() - t0));
            st.probeRounds[next] = rounds;
            ++st.verdicts;
        }
    };

    auto check_all = [&]() {
        for (auto &node : nodes) {
            const std::int64_t t0 = nowNs();
            checker.checkNode(node->id(), node->framework(),
                              node->virtualNow());
            st.checkNs.add(static_cast<double>(nowNs() - t0));
        }
    };

    auto drain_telemetry = [&]() {
        const std::int64_t t0 = nowNs();
        collector.drain();
        st.drainTelemetryNs.add(static_cast<double>(nowNs() - t0));
    };

    const std::size_t quanta = rec.quanta.size();
    std::vector<double> adv(nodes.size());
    for (std::size_t q = 0; q + 1 < quanta; ++q) {
        const std::int64_t q0 = nowNs();
        place_until(q);
        for (auto &node : nodes) {
            const std::int64_t t0 = nowNs();
            node->controllerStep();
            st.controlNs.add(static_cast<double>(nowNs() - t0));
        }
        for (std::size_t i = 0; i < nodes.size(); ++i) {
            const std::int64_t t0 = nowNs();
            nodes[i]->advanceTo(rec.quanta[q]);
            adv[i] = static_cast<double>(nowNs() - t0);
            st.advanceNs.add(adv[i]);
        }
        const double mean =
            std::accumulate(adv.begin(), adv.end(), 0.0) /
            static_cast<double>(adv.size());
        st.barrierIdleNs.add(*std::max_element(adv.begin(), adv.end()) -
                             mean);
        drain_telemetry();
        check_all();
        st.quantumNs.add(static_cast<double>(nowNs() - q0));
    }
    place_until(quanta == 0 ? 0 : quanta - 1);
    if (next != rec.arrivals.size())
        errors.push_back("replay left arrivals unplaced");
    for (auto &node : nodes) {
        const std::int64_t t0 = nowNs();
        node->drain();
        st.nodeDrainNs.add(static_cast<double>(nowNs() - t0));
    }
    drain_telemetry();
    check_all();

    m.invariantViolations = checker.totalViolations();
    std::vector<NodeMetrics> per_node;
    for (auto &node : nodes) {
        per_node.push_back(MetricsExporter::collectNode(*node));
        for (const auto &job : node->framework().jobs())
            if (job->exec() != nullptr)
                st.accesses += job->exec()->l2Accesses;
        st.retunes += node->controlTallies().retunes;
        st.energy += node->energy();
    }
    MetricsExporter::aggregate(m, per_node);
    st.instructions += m.instructions;
    st.events += sink.events;
    collector.finish(cfg.seed, 1, 0.0);
    const std::int64_t t0 = nowNs();
    nodes.clear();
    phases.add("replay.teardown", nowNs() - t0);
    ++st.replays;
    const std::int64_t wall = nowNs() - wall0;
    st.wallS += static_cast<double>(wall) / 1e9;

    return m;
}

/** Add one replay's self times to @p phases (pooled tallies give the
 *  totals, so this runs once after all replays). */
void
addReplayPhases(const ReplayStats &st, Phases &phases)
{
    const auto ns = [](const Tally &t) {
        return static_cast<std::int64_t>(t.sum);
    };
    phases.add("replay.probe", ns(st.probeNs));
    phases.add("replay.submit", ns(st.submitNs));
    phases.add("replay.placement_other",
               ns(st.placementNs) - ns(st.probeNs) - ns(st.submitNs));
    phases.add("replay.controller_step", ns(st.controlNs));
    phases.add("replay.node_advance", ns(st.advanceNs));
    phases.add("replay.telemetry_drain", ns(st.drainTelemetryNs));
    phases.add("replay.oracle_check", ns(st.checkNs));
    phases.add("replay.node_drain", ns(st.nodeDrainNs));
}

/** The untraced round, recorded. */
bool
recordRound(const Workload &w, std::uint64_t seed, Recording &rc,
            Result &r, std::string &err)
{
    // The run's first arrival list, as the untraced run's round 0.
    const std::uint64_t list_seed = listSeeds(seed).front();
    const std::vector<ClusterArrival> arrivals = makeArrivals(w, list_seed);
    if (w.driver == Driver::Engine) {
        rc.config = engineConfig(list_seed, kEngineThreads);
        ClusterConfig cfg = rc.config;
        cfg.observer = &rc.rec;
        ClusterEngine engine(cfg);
        OfferedArrivals source(arrivals);
        rc.metrics = engine.runToCompletion(source);
        rc.wallS = static_cast<double>(nowNs() -
                                       source.offeredNs().front()) /
                   1e9;
        rc.fingerprint = rc.metrics.fingerprint();
        r.failed += checkRound(arrivals, rc.rec.outcomes, rc.metrics,
                               w.strictMustHold, r.errors);
    } else {
        const EpochConfig epoch = qosdEpoch(w, seed);
        rc.config = epochClusterConfig(epoch, 1);
        QosdHarness h(epoch);
        if (!h.start(err))
            return false;
        const QosdRound round = runQosdRound(h.client(), arrivals, err);
        if (!round.ok || !h.shutdown(err))
            return false;
        rc.wallS =
            static_cast<double>(round.endNs - round.sentNs.front()) / 1e9;
        rc.fingerprint = round.fingerprint;
        rc.metrics = replayJournal(h.journalPath(0), rc.rec, err);
        if (!err.empty())
            return false;
        if (rc.metrics.fingerprint() != rc.fingerprint)
            r.errors.push_back("1-thread single-process replay "
                               "fingerprint differs from DrainDone");
        r.failed += checkRound(arrivals, round.outcomes, rc.metrics,
                               w.strictMustHold, r.errors);
    }
    r.attempted += arrivals.size();
    return true;
}

/** The recorded arrivals through a 2-shard FederatedEngine, with a
 *  telemetry hub when the workload's engine has one (qosd's daemon
 *  always does, so its epochs ship telemetry across the links). */
double
federatedQuantumMs(const Recording &rc, bool telemetry, Result &r)
{
    ClusterConfig cfg = rc.config;
    cfg.threads = 1;
    Recorder rec;
    cfg.observer = &rec;
    std::unique_ptr<TraceCollector> collector;
    if (telemetry) {
        collector = std::make_unique<TraceCollector>(cfg.nodes + 1);
        cfg.telemetry = collector.get();
    }
    FederationConfig fed;
    fed.shards = kShards;
    fed.transport = FedTransport::Uds;
    FederatedEngine engine(cfg, fed);
    OfferedArrivals source(rc.rec.arrivals);
    const ClusterMetrics m = engine.runToCompletion(source);
    if (collector != nullptr)
        collector->finish(cfg.seed, 1, m.wallSeconds);
    if (m.fingerprint() != rc.fingerprint)
        r.errors.push_back("2-shard federated replay fingerprint "
                           "differs from the untraced run");
    // Host time between barriers, from the first arrival offered.
    std::vector<double> gaps;
    std::int64_t prev = source.offeredNs().empty()
                            ? 0
                            : source.offeredNs().front();
    for (std::size_t i = 0; i + 1 < rec.quantumNs.size(); ++i) {
        gaps.push_back(static_cast<double>(rec.quantumNs[i] - prev) / 1e6);
        prev = rec.quantumNs[i];
    }
    return gaps.empty() ? 0.0
                        : std::accumulate(gaps.begin(), gaps.end(), 0.0) /
                              static_cast<double>(gaps.size());
}

/** Messages the epoch-commit protocol exchanges for the recording:
 *  per probe round a FedProbe and a FedProbeReply per shard, per
 *  accepted arrival a FedSubmit and its ack, per barrier a FedAdvance
 *  and a FedQuantumDone per shard. Telemetry batches are not
 *  modelled. */
std::vector<FedMessage>
fedTraffic(const Recording &rc, const ReplayStats &st)
{
    const int nodes = rc.config.nodes;
    const int per_shard = (nodes + kShards - 1) / kShards;
    std::vector<FedMessage> out;
    const auto &rec = rc.rec;
    std::size_t next = 0;
    for (std::size_t q = 0; q < rec.quanta.size(); ++q) {
        for (; next < rec.arrivals.size() && rec.quantumOf[next] == q;
             ++next) {
            const ClusterArrival &a = rec.arrivals[next];
            const PlacementOutcome &o = rec.outcomes[next];
            const WireJobRequest wire =
                toWireRequest(a.request, a.instructions);
            for (unsigned round = 0; round < st.probeRounds[next]; ++round)
                for (int s = 0; s < kShards; ++s) {
                    out.push_back(FedProbe{wire});
                    FedProbeReply reply;
                    for (int n = s * per_shard;
                         n < std::min(nodes, (s + 1) * per_shard); ++n) {
                        WireProbe p;
                        p.node = n;
                        p.alive = 1;
                        p.accepted = o.node == n;
                        p.slotStart = o.slotStart;
                        reply.probes.push_back(p);
                    }
                    out.push_back(reply);
                }
            if (o.accepted) {
                FedSubmit s;
                s.node = o.node;
                s.request = wire;
                s.request.deadlineFactor = o.deadlineFactor;
                out.push_back(s);
                FedSubmitAck ack;
                ack.node = o.node;
                ack.ok = 1;
                out.push_back(ack);
            }
        }
        if (q + 1 == rec.quanta.size())
            break;
        for (int s = 0; s < kShards; ++s) {
            FedAdvance adv;
            adv.from = q == 0 ? 0 : rec.quanta[q - 1];
            adv.to = rec.quanta[q];
            adv.check = rc.config.checkInvariants ? 1 : 0;
            out.push_back(adv);
            FedQuantumDone done;
            done.to = rec.quanta[q];
            out.push_back(done);
        }
    }
    return out;
}

/** Fresh generators of each mix benchmark: constructor time, the
 *  memory they touch, and their page faults. */
struct GenCost
{
    Tally ctorNs;
    Tally residentKb;
    Tally faults;
};

GenCost
generatorCost(const std::vector<std::string> &benchmarks,
              std::uint64_t seed)
{
    GenCost c;
    std::vector<std::unique_ptr<AccessGenerator>> live;
    JobId id = 0;
    for (int rep = 0; rep < 2; ++rep)
        for (const std::string &b : benchmarks) {
            const BenchmarkProfile &prof = BenchmarkRegistry::get(b);
            const std::uint64_t f0 = minorFaults();
            const double r0 = currentRssKb();
            const std::int64_t t0 = nowNs();
            live.push_back(std::make_unique<AccessGenerator>(
                prof, seed + static_cast<std::uint64_t>(id),
                jobAddressBase(id)));
            c.ctorNs.add(static_cast<double>(nowNs() - t0));
            c.residentKb.add(currentRssKb() - r0);
            c.faults.add(static_cast<double>(minorFaults() - f0));
            ++id;
        }
    return c;
}

/** Naive LRU stack: a vector with the MRU block at the back. */
class NaiveStack
{
  public:
    explicit NaiveStack(std::size_t cap) : cap_(cap) {}

    std::uint64_t
    accessNew()
    {
        if (stack_.size() >= cap_)
            stack_.erase(stack_.begin());
        stack_.push_back(next_);
        return next_++;
    }

    std::uint64_t
    accessAtDistance(std::uint64_t d)
    {
        if (d > stack_.size())
            return accessNew();
        const std::size_t at = stack_.size() - d;
        const std::uint64_t id = stack_[at];
        stack_.erase(stack_.begin() + static_cast<std::ptrdiff_t>(at));
        stack_.push_back(id);
        return id;
    }

  private:
    std::size_t cap_;
    std::vector<std::uint64_t> stack_;
    std::uint64_t next_ = 0;
};

/** Naive set-associative LRU of @p ways ways per set. */
class NaiveLru
{
  public:
    NaiveLru(const CacheConfig &c, unsigned ways)
        : sets_(c.numSets()), ways_(ways),
          shift_(static_cast<unsigned>(__builtin_ctz(c.blockSize)))
    {
    }

    bool
    access(Addr addr)
    {
        const Addr block = addr >> shift_;
        std::list<Addr> &set = sets_[block % sets_.size()];
        for (auto it = set.begin(); it != set.end(); ++it)
            if (*it == block) {
                set.splice(set.begin(), set, it);
                return true;
            }
        set.push_front(block);
        if (set.size() > ways_)
            set.pop_back();
        return false;
    }

  private:
    std::vector<std::list<Addr>> sets_;
    unsigned ways_;
    unsigned shift_;
};

struct StreamCost
{
    Tally genNs;
    Tally samplerNs;
    Tally l2Ns;
    std::uint64_t hits = 0;
    std::uint64_t accesses = 0;
    /** L2 misses per instruction at 7 ways, per benchmark. */
    std::map<std::string, double> mpi;
};

/** Each benchmark's L2 stream through the generator, the sampler and
 *  the cache, each checked against its reference model. */
StreamCost
streamCost(const std::vector<std::string> &benchmarks, std::uint64_t seed,
           Phases &phases, std::vector<std::string> &errors)
{
    constexpr unsigned kWays = 7;
    constexpr std::size_t kAccesses = 400'000;
    constexpr std::size_t kReferencePrefix = 50'000;
    StreamCost c;
    const CmpConfig cmp;
    JobId id = 100;
    for (const std::string &b : benchmarks) {
        const BenchmarkProfile &prof = BenchmarkRegistry::get(b);
        // Generator: record the stream after pre-filling the cache and
        // the reference with the standing working set (Table 1's
        // steady-state protocol).
        AccessGenerator gen(prof, seed, jobAddressBase(id++));
        PartitionedCache l2(cmp.l2, cmp.numCores, cmp.scheme);
        l2.setTargetWays(0, kWays);
        l2.setCoreClass(0, CoreClass::Reserved);
        NaiveLru ref(cmp.l2, kWays);
        gen.forEachStandingBlock([&](Addr a) {
            l2.access(0, a, false);
            ref.access(a);
        });
        const auto instr = static_cast<InstCount>(
            static_cast<double>(kAccesses) / prof.h2);
        std::vector<std::pair<Addr, bool>> stream;
        stream.reserve(kAccesses + 16);
        {
            Span s(phases, "layer.generator");
            const std::int64_t t0 = nowNs();
            gen.run(instr, [&](Addr a, bool wr) {
                stream.emplace_back(a, wr);
            });
            c.genNs.sum += static_cast<double>(nowNs() - t0);
            c.genNs.n += stream.size();
        }
        const CoreCacheStats before = l2.coreStats(0);
        {
            Span s(phases, "layer.l2");
            const std::int64_t t0 = nowNs();
            for (const auto &[a, wr] : stream)
                l2.access(0, a, wr);
            c.l2Ns.sum += static_cast<double>(nowNs() - t0);
            c.l2Ns.n += stream.size();
        }
        const CoreCacheStats &after = l2.coreStats(0);
        const std::uint64_t accesses = after.accesses - before.accesses;
        const std::uint64_t misses = after.misses - before.misses;
        c.accesses += accesses;
        c.hits += accesses - misses;
        c.mpi[b] = static_cast<double>(misses) / static_cast<double>(instr);
        {
            Span s(phases, "reference.l2_lru");
            std::uint64_t ref_hits = 0;
            for (const auto &[a, wr] : stream)
                ref_hits += ref.access(a) ? 1 : 0;
            if (ref_hits != accesses - misses)
                errors.push_back(b + ": PartitionedCache hits " +
                                 std::to_string(accesses - misses) +
                                 " != naive per-set LRU hits " +
                                 std::to_string(ref_hits));
        }

        // Sampler: the distance stream of the benchmark's L2 profile
        // (0 = a new block), on a stack warmed like the generator's.
        Rng rng(seed ^ std::hash<std::string>{}(b));
        std::vector<std::uint64_t> dist(kAccesses);
        for (auto &d : dist)
            d = prof.l2Profile.sample(rng).value_or(0);
        const std::uint64_t warm = prof.l2Profile.maxFiniteDistance();
        {
            LruStackSampler stack;
            for (std::uint64_t i = 0; i < warm; ++i)
                stack.accessNew();
            Span s(phases, "layer.sampler");
            std::uint64_t sink = 0;
            const std::int64_t t0 = nowNs();
            for (const std::uint64_t d : dist)
                sink += d ? stack.accessAtDistance(d) : stack.accessNew();
            c.samplerNs.sum += static_cast<double>(nowNs() - t0);
            c.samplerNs.n += dist.size();
            if (sink == 0)
                errors.push_back("sampler returned only block 0");
        }
        {
            Span s(phases, "reference.sampler_mtf");
            LruStackSampler stack;
            NaiveStack naive(1u << 17);
            for (std::uint64_t i = 0; i < warm; ++i)
                if (stack.accessNew() != naive.accessNew()) {
                    errors.push_back(b + ": sampler warm-up diverges");
                    break;
                }
            for (std::size_t i = 0; i < kReferencePrefix; ++i) {
                const std::uint64_t d = dist[i];
                const std::uint64_t got =
                    d ? stack.accessAtDistance(d) : stack.accessNew();
                const std::uint64_t want =
                    d ? naive.accessAtDistance(d) : naive.accessNew();
                if (got != want) {
                    errors.push_back(b + ": LruStackSampler block " +
                                     std::to_string(got) +
                                     " != move-to-front " +
                                     std::to_string(want) + " at access " +
                                     std::to_string(i));
                    break;
                }
            }
        }
    }
    return c;
}

} // namespace

Result
runTraced(const Workload &w, std::uint64_t seed, double seconds)
{
    Result r;
    Phases phases;
    const std::int64_t run0 = nowNs();
    const ArrivalMix mix = workloadMix(w);

    std::vector<double> calib;
    {
        Span s(phases, "calibration");
        calib = calibrateMix(mix, CmpConfig{});
    }

    Recording rc;
    std::string err;
    {
        Span s(phases, "untraced_round");
        if (!recordRound(w, seed, rc, r, err)) {
            r.errors.push_back("recorded round: " + err);
            return r;
        }
    }

    ReplayStats st;
    {
        const std::int64_t t0 = nowNs();
        do {
            const ClusterMetrics m = replayNodes(rc, st, phases, r.errors);
            r.attempted += rc.rec.arrivals.size();
            if (m.fingerprint() != rc.fingerprint) {
                r.errors.push_back("traced replay fingerprint differs "
                                   "from the untraced run");
                break;
            }
        } while (static_cast<double>(nowNs() - t0) / 1e9 < seconds &&
                 r.errors.empty());
        addReplayPhases(st, phases);
        const std::int64_t replay_total = nowNs() - t0;
        std::int64_t inside = 0;
        for (const auto &p : phases.list())
            if (p.first.rfind("replay.", 0) == 0)
                inside += p.second;
        phases.add("replay.other", replay_total - inside);
    }

    double fed_quantum_ms = 0.0;
    {
        Span s(phases, "federated_replay");
        fed_quantum_ms =
            federatedQuantumMs(rc, w.driver == Driver::Qosd, r);
    }

    // Federation codec over the protocol traffic the recording implies.
    Tally encode_ns;
    Tally decode_ns;
    double fed_bytes = 0.0;
    {
        Span s(phases, "layer.federation_codec");
        const std::vector<FedMessage> traffic = fedTraffic(rc, st);
        for (int rep = 0; rep < 20; ++rep) {
            std::vector<std::string> frames;
            frames.reserve(traffic.size());
            const std::int64_t t0 = nowNs();
            for (std::size_t i = 0; i < traffic.size(); ++i)
                frames.push_back(encodeFedPayload(i, traffic[i]));
            const std::int64_t t1 = nowNs();
            std::size_t ok = 0;
            for (const std::string &f : frames) {
                std::uint64_t seq = 0;
                FedMessage msg;
                std::string derr;
                ok += decodeFedPayload(f, seq, msg, derr) ? 1 : 0;
            }
            const std::int64_t t2 = nowNs();
            encode_ns.sum += static_cast<double>(t1 - t0);
            encode_ns.n += traffic.size();
            decode_ns.sum += static_cast<double>(t2 - t1);
            decode_ns.n += traffic.size();
            if (ok != frames.size()) {
                r.errors.push_back("federation codec failed to decode "
                                   "its own frames");
                break;
            }
            if (rep == 0)
                for (const std::string &f : frames)
                    fed_bytes += static_cast<double>(f.size());
        }
    }

    // Service codec and journal over the recorded arrivals/verdicts.
    Tally codec_ns;
    Tally journal_ns;
    {
        Span s(phases, "layer.service");
        std::vector<Message> msgs;
        for (std::size_t i = 0; i < rc.rec.arrivals.size(); ++i) {
            const ClusterArrival &a = rc.rec.arrivals[i];
            const PlacementOutcome &o = rc.rec.outcomes[i];
            Submit sub;
            sub.ticket = static_cast<std::uint32_t>(i + 1);
            sub.tier = static_cast<std::uint8_t>(a.tier);
            sub.instructions = a.instructions;
            sub.time = a.time;
            sub.benchmark = a.request.benchmark;
            msgs.push_back(sub);
            SubmitReply rep;
            rep.ticket = sub.ticket;
            rep.seq = o.seq;
            rep.outcome = static_cast<std::uint8_t>(
                !o.accepted     ? AdmitOutcome::Rejected
                : o.negotiated ? AdmitOutcome::Negotiated
                               : AdmitOutcome::Accepted);
            rep.node = o.node;
            rep.time = a.time;
            rep.slotStart = o.slotStart;
            rep.deadlineFactor = o.deadlineFactor;
            msgs.push_back(rep);
        }
        for (int rep = 0; rep < 20; ++rep) {
            const std::int64_t t0 = nowNs();
            std::size_t ok = 0;
            for (const Message &msg : msgs) {
                const std::string frame = encodeMessage(msg, WireMode::Binary);
                const DecodeResult d = decodeFrame(frame, WireMode::Binary);
                ok += d.status == DecodeResult::Status::Ok &&
                      d.consumed == frame.size() &&
                      d.message.index() == msg.index();
            }
            codec_ns.sum += static_cast<double>(nowNs() - t0);
            codec_ns.n += msgs.size();
            if (ok != msgs.size()) {
                r.errors.push_back("service codec round trip failed");
                break;
            }
        }
        const std::string path =
            "perfbench-journal-" + std::to_string(::getpid()) + ".trace";
        {
            SubmissionJournal journal(path, qosdEpoch(w, seed), 0);
            for (const ClusterArrival &a : rc.rec.arrivals) {
                const std::int64_t t0 = nowNs();
                journal.append(a.time, a.request.benchmark, a.tier,
                               a.instructions);
                journal_ns.add(static_cast<double>(nowNs() - t0));
            }
            journal.close();
        }
        std::remove(path.c_str());
    }

    GenCost gen;
    {
        Span s(phases, "layer.generator_ctor");
        gen = generatorCost(mix.benchmarks, seed);
    }
    const StreamCost stream =
        streamCost(mix.benchmarks, seed, phases, r.errors);

    const double gen_ns = stream.genNs.mean();
    const double l2_ns = stream.l2Ns.mean();
    const double advance_ns =
        st.advanceNs.sum + st.nodeDrainNs.sum;
    const double residual =
        st.accesses == 0
            ? 0.0
            : advance_ns / static_cast<double>(st.accesses) - gen_ns - l2_ns;
    const double quanta = static_cast<double>(
        rc.rec.quanta.empty() ? 1 : rc.rec.quanta.size() - 1);

    r.add("workload.gen_ctor_us", gen.ctorNs.mean() / 1e3, "us");
    r.add("workload.gen_resident_kb", gen.residentKb.mean(), "KB");
    r.add("workload.minor_faults_per_job", gen.faults.mean(), "count");
    r.add("workload.gen_ns_per_access", gen_ns, "ns");
    r.add("workload.sampler_ns_per_access", stream.samplerNs.mean(), "ns");
    r.add("cache.l2_ns_per_access", l2_ns, "ns");
    r.add("cache.l2_hit_ratio",
          stream.accesses == 0 ? 0.0
                               : static_cast<double>(stream.hits) /
                                     static_cast<double>(stream.accesses),
          "ratio");
    // Table 1 of the paper: L2 misses per instruction at 7 of 16 ways.
    const std::map<std::string, double> table1 = {
        {"bzip2", 0.0055}, {"hmmer", 0.0010}, {"gobmk", 0.0040}};
    std::string accuracy = "model accuracy (L2 misses/instr at 7 ways, "
                           "simulated vs Table 1):";
    for (const auto &[b, ref] : table1) {
        const auto it = stream.mpi.find(b);
        if (it == stream.mpi.end())
            continue;
        const double err_pct = 100.0 * (it->second - ref) / ref;
        r.add("cache.mpi_err_pct_" + b, std::abs(err_pct), "%");
        char buf[96];
        std::snprintf(buf, sizeof buf, " %s %.5f vs %.4f (%+.1f%%)",
                      b.c_str(), it->second, ref, err_pct);
        accuracy += buf;
    }
    r.add("sim.residual_ns_per_access", residual, "ns");
    r.add("qos.probe_us", st.probeNs.mean() / 1e3, "us");
    r.add("qos.probes_per_verdict",
          st.verdicts == 0 ? 0.0
                           : static_cast<double>(st.probes) /
                                 static_cast<double>(st.verdicts),
          "count");
    r.add("qos.submit_us", st.submitNs.mean() / 1e3, "us");
    double calib_total = 0.0;
    for (const double ms : calib)
        calib_total += ms;
    r.add("qos.calibration_ms",
          calib.empty() ? 0.0 : calib_total / static_cast<double>(calib.size()),
          "ms");
    r.add("qos.calibrations", static_cast<double>(calib.size()), "count");
    r.add("cluster.placement_us", st.placementNs.mean() / 1e3, "us");
    r.add("cluster.node_advance_ms", st.advanceNs.mean() / 1e6, "ms");
    r.add("cluster.barrier_idle_ms", st.barrierIdleNs.mean() / 1e6, "ms");
    r.add("cluster.quantum_ms", st.quantumNs.mean() / 1e6, "ms");
    r.add("control.step_us", st.controlNs.mean() / 1e3, "us");
    const double replays =
        static_cast<double>(std::max<std::uint64_t>(1, st.replays));
    r.add("control.retunes", static_cast<double>(st.retunes) / replays,
          "count");
    r.add("control.energy_per_ginstr",
          st.instructions == 0
              ? 0.0
              : st.energy / (static_cast<double>(st.instructions) / 1e9),
          "units/Ginstr");
    r.add("fault.check_us", st.checkNs.mean() / 1e3, "us");
    r.add("telemetry.events", static_cast<double>(st.events) / replays,
          "count");
    r.add("telemetry.drain_ns_per_event",
          st.events == 0 ? 0.0
                         : st.drainTelemetryNs.sum /
                               static_cast<double>(st.events),
          "ns");
    r.add("federation.encode_ns_per_msg", encode_ns.mean(), "ns");
    r.add("federation.decode_ns_per_msg", decode_ns.mean(), "ns");
    r.add("federation.bytes_per_quantum", fed_bytes / quanta, "B");
    r.add("federation.quantum_ms", fed_quantum_ms, "ms");
    r.add("service.codec_ns_per_frame", codec_ns.mean(), "ns");
    r.add("service.journal_us_per_append", journal_ns.mean() / 1e3, "us");

    // Where the traced run's host time went.
    const std::int64_t wall_ns = nowNs() - run0;
    std::string breakdown = "self time (ms):";
    for (const auto &[name, ns] : phases.list()) {
        char buf[96];
        std::snprintf(buf, sizeof buf, " %s=%.1f", name.c_str(),
                      static_cast<double>(ns) / 1e6);
        breakdown += buf;
    }
    char tail[160];
    std::snprintf(tail, sizeof tail,
                  "; sum %.1f of wall %.1f, remainder %.1f ms",
                  static_cast<double>(phases.total()) / 1e6,
                  static_cast<double>(wall_ns) / 1e6,
                  static_cast<double>(wall_ns - phases.total()) / 1e6);
    r.notes.push_back(breakdown + tail);
    char overhead[200];
    std::snprintf(overhead, sizeof overhead,
                  "tracing overhead: traced replay %.3f s per round "
                  "(%llu rounds, one node at a time) vs untraced round "
                  "%.3f s: %+.1f%%",
                  st.wallS / replays,
                  static_cast<unsigned long long>(st.replays), rc.wallS,
                  100.0 * (st.wallS / replays - rc.wallS) / rc.wallS);
    r.notes.push_back(overhead);
    r.notes.push_back(accuracy);
    return r;
}

} // namespace perfbench
