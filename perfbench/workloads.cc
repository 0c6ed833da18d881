#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <set>
#include <thread>
#include <utility>

#include <sys/resource.h>
#include <unistd.h>

#include "bench.hh"
#include "qos/framework.hh"
#include "service/journal.hh"

namespace perfbench
{

namespace
{

// Sizing (see README.md): each accepted job keeps an ~8 MB stack
// sampler alive until its engine is destroyed, so a round's arrival
// count bounds peak RSS. Rounds repeat the same list until the run's
// seconds are used up.
const Workload kWorkloads[] = {
    // Node advance dominates: 2M-instruction jobs, 8 arrivals per
    // 2M-cycle quantum on average.
    {"paper_mix", Driver::Engine, 250'000.0, 2'000'000, 50, true},
    // Placement dominates: 100k-instruction jobs, ~33 arrivals per
    // quantum, most Gold/Silver ones negotiated.
    // Strict misses are counted, not failed: on some seeds one
    // 100k-instruction Strict job outruns its wall-clock estimate
    // (see CHANGES.md, FOUND).
    {"admission_churn", Driver::Engine, 60'000.0, 100'000, 50, false},
    // The service stack: codec, journal, federation epoch commit,
    // controller and oracle, one closed-loop client.
    {"qosd_fed", Driver::Qosd, 250'000.0, 500'000, 50, true},
};

std::string
fmtDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out;
}

} // namespace

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

ArrivalMix
workloadMix(const Workload &w)
{
    ArrivalMix mix = ArrivalMix::defaults();
    mix.instructions = w.instructions;
    return mix;
}

std::vector<ClusterArrival>
makeArrivals(const Workload &w, std::uint64_t seed)
{
    // A shuffled, exactly balanced deck of (tier, benchmark) pairs:
    // every round holds the mix's proportions, so host cost per
    // instruction does not swing with which benchmarks a seed happens
    // to draw. Arrival gaps are exponential, scaled so the last arrival
    // lands at n x meanGap: a Poisson process conditioned on n arrivals
    // in that span, so a seed does not stretch or squeeze the round.
    const ArrivalMix mix = workloadMix(w);
    const std::size_t n = w.arrivals;
    std::vector<std::pair<QosTier, std::size_t>> deck;
    for (std::size_t t = 0; t < numQosTiers; ++t) {
        const std::size_t count =
            t + 1 == numQosTiers
                ? n - deck.size()
                : static_cast<std::size_t>(std::llround(
                      mix.tiers[t].weight * static_cast<double>(n)));
        for (std::size_t j = 0; j < count; ++j)
            deck.emplace_back(static_cast<QosTier>(t),
                              (j + t) % mix.benchmarks.size());
    }
    Rng rng(seed);
    for (std::size_t i = deck.size(); i > 1; --i)
        std::swap(deck[i - 1], deck[rng.uniformInt(i)]);
    std::vector<double> gaps;
    double span = 0.0;
    for (std::size_t i = 0; i < deck.size(); ++i)
        span += gaps.emplace_back(rng.exponential(w.meanGap));
    const double scale = w.meanGap * static_cast<double>(n) / span;
    std::vector<ClusterArrival> list;
    double clock = 0.0;
    for (std::size_t i = 0; i < deck.size(); ++i) {
        const auto &[tier, bench] = deck[i];
        clock += gaps[i] * scale;
        ClusterArrival a;
        a.time = static_cast<Cycle>(clock);
        a.tier = tier;
        a.request = tierRequest(mix, tier, mix.benchmarks[bench]);
        a.instructions = w.instructions;
        list.push_back(a);
    }
    return list;
}

ClusterConfig
engineConfig(std::uint64_t seed, unsigned threads)
{
    ClusterConfig c;
    c.nodes = kNodes;
    c.threads = threads;
    c.seed = seed;
    return c;
}

EpochConfig
qosdEpoch(const Workload &w, std::uint64_t seed)
{
    EpochConfig c;
    c.nodes = kNodes;
    c.seed = seed;
    c.instructions = w.instructions;
    c.arrivalGap = static_cast<Cycle>(w.meanGap);
    c.checkInvariants = true;
    std::string err;
    const bool ok = parseControllerSpec("on", c.control, err);
    cmpqos_assert(ok, "controller spec: %s", err.c_str());
    return c;
}

std::vector<double>
calibrateMix(const ArrivalMix &mix, const CmpConfig &cmp)
{
    std::set<unsigned> ways;
    for (const TierSpec &t : mix.tiers)
        ways.insert(t.ways);
    std::vector<double> ms;
    for (const std::string &b : mix.benchmarks)
        for (const unsigned wy : ways) {
            const std::int64_t t0 = nowNs();
            QosFramework::soloCpi(b, wy, cmp);
            ms.push_back(static_cast<double>(nowNs() - t0) / 1e6);
        }
    return ms;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
currentRssKb()
{
    std::ifstream in("/proc/self/statm");
    long pages = 0;
    long resident = 0;
    in >> pages >> resident;
    return static_cast<double>(resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / 1024.0;
}

std::uint64_t
minorFaults()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<std::uint64_t>(ru.ru_minflt);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::uint64_t
deadlineHits(const ClusterMetrics &m)
{
    std::uint64_t hits = 0;
    for (const ModeTally &t : m.byMode)
        hits += t.deadlineHits;
    return hits;
}

std::uint64_t
strictMissed(const ClusterMetrics &m)
{
    const ModeTally &t =
        m.byMode[static_cast<std::size_t>(ExecutionMode::Strict)];
    return t.completed - t.deadlineHits;
}

std::uint64_t
checkRound(const std::vector<ClusterArrival> &offered,
           const std::vector<PlacementOutcome> &outcomes,
           const ClusterMetrics &m, bool strictMustHold,
           std::vector<std::string> &errors)
{
    auto fail = [&errors](const std::string &what) {
        errors.push_back(what);
    };
    const std::uint64_t n = offered.size();
    std::vector<char> seen(n, 0);
    std::uint64_t accepted = 0;
    std::array<std::uint64_t, numQosTiers> by_tier{};
    InstCount accepted_instr = 0;
    for (const PlacementOutcome &o : outcomes) {
        if (o.seq >= n || seen[o.seq]) {
            fail("verdict for unknown or repeated arrival " +
                 std::to_string(o.seq));
            continue;
        }
        seen[o.seq] = 1;
        if (!o.accepted)
            continue;
        ++accepted;
        const ClusterArrival &a = offered[o.seq];
        ++by_tier[static_cast<std::size_t>(a.tier)];
        accepted_instr += a.instructions;
    }
    const auto no_verdict = static_cast<std::uint64_t>(
        std::count(seen.begin(), seen.end(), 0));
    if (no_verdict != 0)
        fail(std::to_string(no_verdict) + " arrivals got no verdict");
    if (m.submitted != n)
        fail("submitted " + std::to_string(m.submitted) + " != offered " +
             std::to_string(n));
    if (m.accepted + m.rejected != m.submitted)
        fail("accepted + rejected != submitted");
    if (m.accepted != accepted)
        fail("engine accepted " + std::to_string(m.accepted) +
             " but verdicts say " + std::to_string(accepted));
    if (m.acceptedByTier != by_tier)
        fail("per-tier acceptance differs from the verdicts");
    if (m.completed != m.accepted)
        fail("completed " + std::to_string(m.completed) +
             " != accepted " + std::to_string(m.accepted));
    if (m.instructions != accepted_instr)
        fail("instructions retired " + std::to_string(m.instructions) +
             " != accepted arrivals' sum " +
             std::to_string(accepted_instr));
    if (strictMustHold && strictMissed(m) != 0)
        fail("Strict guarantee broken: " + std::to_string(strictMissed(m)) +
             " completed Strict jobs missed their deadline");
    if (m.invariantViolations != 0 || m.faults.any())
        fail("oracle violations or fault tallies on a fault-free run");
    const std::uint64_t unfinished =
        m.accepted > m.completed ? m.accepted - m.completed : 0;
    return no_verdict + unfinished;
}

int
printResult(const Result &r)
{
    for (const std::string &note : r.notes)
        std::printf("# %s\n", note.c_str());
    for (const std::string &e : r.errors)
        std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
    const bool correct = r.errors.empty();
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(r.attempted);
    json += ", \"failed\": " + std::to_string(r.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric &m = r.metrics[i];
        json += (i ? ", \"" : "\"") + jsonEscape(m.name) +
                "\": {\"value\": " + fmtDouble(m.value) +
                ", \"unit\": \"" + jsonEscape(m.unit) + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

namespace
{

/** The end-to-end metrics shared by both drivers. */
struct Rounds
{
    double setupS = 0.0;
    std::vector<double> latencyMs;
    std::vector<double> minstrPerS;
    std::vector<double> verdictsPerS;
    std::uint64_t rounds = 0;
    /** Fingerprint of each list's first round. */
    std::vector<std::string> fingerprints;
    /** Simulated totals over the first round of every list. */
    std::uint64_t submitted = 0;
    std::uint64_t accepted = 0;
    std::uint64_t negotiated = 0;
    std::uint64_t completed = 0;
    std::uint64_t hits = 0;
    std::uint64_t strictMisses = 0;
    Cycle virtualTime = 0;
    /** Peak RSS once every list has run once: later rounds add
     *  allocator fragmentation that depends on how many rounds fit. */
    double peakRss = 0.0;

    /** Fold round @p m (of list rounds % kLists) in; a repeated list
     *  must reproduce its first fingerprint exactly. */
    void
    add(const ClusterMetrics &m, const std::string &fingerprint,
        Result &r)
    {
        const std::size_t k = rounds % kLists;
        if (rounds < kLists) {
            fingerprints.push_back(fingerprint);
            submitted += m.submitted;
            accepted += m.accepted;
            negotiated += m.negotiated;
            completed += m.completed;
            hits += deadlineHits(m);
            strictMisses += strictMissed(m);
            virtualTime += m.virtualTime;
        } else if (fingerprint != fingerprints[k]) {
            r.errors.push_back("round " + std::to_string(rounds) +
                               " fingerprint differs from list " +
                               std::to_string(k) + "'s first round");
        }
        ++rounds;
        if (rounds == kLists)
            peakRss = peakRssMb();
    }

    void
    report(Result &r) const
    {
        r.add("setup_s", setupS, "s");
        r.add("sim_minstr_per_s", median(minstrPerS), "Minstr/s");
        r.add("verdicts_per_s", median(verdictsPerS), "1/s");
        r.add("admit_p50_ms", percentile(latencyMs, 50.0), "ms");
        // p90, not p95 or p99: on admission_churn a few percent of
        // verdicts wait for a quantum advance, and p95 and p99 fall
        // among those few, so they swung by a third from run to run.
        r.add("admit_p90_ms", percentile(latencyMs, 90.0), "ms");
        r.add("peak_rss_mb", peakRss, "MB");
        r.add("sim_jobs_per_gcycle",
              virtualTime == 0 ? 0.0
                               : static_cast<double>(completed) * 1e9 /
                                     static_cast<double>(virtualTime),
              "1/Gcycle");
        r.add("deadline_hits", static_cast<double>(hits), "count");
        r.notes.push_back(
            "rounds " + std::to_string(rounds) + " over " +
            std::to_string(kLists) + " arrival lists, admission samples " +
            std::to_string(latencyMs.size()) + "; per pass over the " +
            "lists: accepted " + std::to_string(accepted) + "/" +
            std::to_string(submitted) + ", negotiated " +
            std::to_string(negotiated) + ", Strict deadline misses " +
            std::to_string(strictMisses));
    }

    /** Whole rounds until every list ran, @p seconds have passed
     *  since the first arrival and enough latency samples exist. */
    bool
    done(std::int64_t startNs, double seconds) const
    {
        return rounds >= kLists &&
               static_cast<double>(nowNs() - startNs) / 1e9 >= seconds &&
               latencyMs.size() >= kMinLatencySamples;
    }
};

/** Each list's arrivals. */
std::vector<std::vector<ClusterArrival>>
makeLists(const Workload &w, const std::vector<std::uint64_t> &seeds)
{
    std::vector<std::vector<ClusterArrival>> lists;
    for (const std::uint64_t s : seeds)
        lists.push_back(makeArrivals(w, s));
    return lists;
}

} // namespace

std::vector<std::uint64_t>
listSeeds(std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint64_t> seeds;
    for (std::size_t k = 0; k < kLists; ++k)
        seeds.push_back(rng.next());
    return seeds;
}

Result
runEngineWorkload(const Workload &w, std::uint64_t seed, double seconds,
                  std::int64_t t0Ns, bool setupOnly)
{
    Result r;
    const std::vector<std::uint64_t> seeds = listSeeds(seed);
    const auto lists = makeLists(w, seeds);
    calibrateMix(workloadMix(w), ClusterConfig{}.node.cmp);

    Rounds rounds;
    std::int64_t start_ns = 0;
    for (;;) {
        const std::size_t k = rounds.rounds % kLists;
        const std::vector<ClusterArrival> &arrivals = lists[k];
        Recorder rec;
        ClusterConfig cfg = engineConfig(seeds[k], kEngineThreads);
        cfg.observer = &rec;
        ClusterEngine engine(cfg);
        OfferedArrivals source(arrivals);
        if (setupOnly) {
            source.next();
            r.add("setup_s",
                  static_cast<double>(source.offeredNs()[0] - t0Ns) / 1e9,
                  "s");
            return r;
        }
        const ClusterMetrics m = engine.runToCompletion(source);
        const std::int64_t end_ns = nowNs();
        const std::int64_t first_ns = source.offeredNs().front();
        if (rounds.rounds == 0) {
            start_ns = first_ns;
            rounds.setupS = static_cast<double>(first_ns - t0Ns) / 1e9;
        }
        for (std::size_t i = 0; i < rec.outcomes.size(); ++i) {
            const std::uint64_t seq = rec.outcomes[i].seq;
            if (seq < arrivals.size())
                rounds.latencyMs.push_back(
                    static_cast<double>(rec.verdictNs[i] -
                                        source.offeredNs()[seq]) /
                    1e6);
        }
        const double secs = static_cast<double>(end_ns - first_ns) / 1e9;
        rounds.minstrPerS.push_back(
            static_cast<double>(m.instructions) / 1e6 / secs);
        rounds.verdictsPerS.push_back(
            static_cast<double>(rec.outcomes.size()) / secs);
        r.failed += checkRound(arrivals, rec.outcomes, m, w.strictMustHold,
                               r.errors);
        r.attempted += arrivals.size();
        rounds.add(m, m.fingerprint(), r);
        if (!r.errors.empty() || rounds.done(start_ns, seconds))
            break;
    }
    rounds.report(r);
    return r;
}

QosdHarness::QosdHarness(const EpochConfig &epoch)
{
    const std::string tag = std::to_string(::getpid());
    // Relative paths: sockaddr_un caps the path near 108 bytes, and
    // the working directory is the run's scratch directory.
    socketPath_ = "qosd-" + tag + ".sock";
    journalDir_ = "qosd-journal-" + tag;
    QosDaemon::Options opts;
    opts.socketPath = socketPath_;
    opts.journalDir = journalDir_;
    opts.threads = 1;
    opts.shards = kShards;
    opts.shardTransport = FedTransport::Uds;
    opts.epoch = epoch;
    opts.quiet = true;
    daemon_.emplace(std::move(opts));
}

bool
QosdHarness::start(std::string &err)
{
    if (!daemon_->start(err))
        return false;
    net_ = std::thread([this] { daemon_->run(); });
    ClientOptions c;
    c.socketPath = socketPath_;
    c.clientName = "perfbench";
    client_ = std::make_unique<QosClient>(c);
    return client_->connect(err);
}

bool
QosdHarness::shutdown(std::string &err)
{
    if (!net_.joinable())
        return true;
    DrainDone done;
    bool ok = client_ != nullptr && client_->connected() &&
              client_->drain(/*shutdown=*/true, done, err);
    if (!ok) {
        const char byte = 1;
        if (::write(daemon_->shutdownFd(), &byte, 1) != 1)
            err += " (shutdown pipe write failed)";
    }
    net_.join();
    return ok;
}

QosdHarness::~QosdHarness()
{
    std::string err;
    shutdown(err);
    client_.reset();
    const std::uint64_t epochs = daemon_->epochsCompleted();
    for (std::uint64_t e = 0; e <= epochs; ++e)
        std::remove(daemon_->journalPath(e).c_str());
    daemon_.reset();
    ::rmdir(journalDir_.c_str());
    std::remove(socketPath_.c_str());
}

QosdRound
runQosdRound(QosClient &client, const std::vector<ClusterArrival> &arrivals,
             std::string &err)
{
    QosdRound round;
    std::uint64_t first_seq = 0;
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
        const ClusterArrival &a = arrivals[i];
        Submit s;
        s.ticket = static_cast<std::uint32_t>(i + 1);
        s.tier = static_cast<std::uint8_t>(a.tier);
        s.instructions = a.instructions;
        s.time = a.time;
        s.benchmark = a.request.benchmark;
        SubmitReply reply;
        round.sentNs.push_back(nowNs());
        if (!client.submit(s, reply, err))
            return round;
        round.replyNs.push_back(nowNs());
        if (!reply.error.empty()) {
            ++round.errorReplies;
            continue;
        }
        if (i == 0)
            first_seq = reply.seq;
        PlacementOutcome o;
        o.seq = reply.seq - first_seq;
        o.accepted =
            reply.outcome != static_cast<std::uint8_t>(AdmitOutcome::Rejected);
        o.negotiated = reply.outcome ==
                       static_cast<std::uint8_t>(AdmitOutcome::Negotiated);
        o.node = reply.node;
        o.slotStart = reply.slotStart;
        o.deadlineFactor = reply.deadlineFactor;
        round.outcomes.push_back(o);
    }
    DrainDone done;
    if (!client.drain(/*shutdown=*/false, done, err))
        return round;
    round.endNs = nowNs();
    round.drainedSubmitted = done.submitted;
    round.drainedAccepted = done.accepted;
    round.drainedCompleted = done.completed;
    round.fingerprint = done.fingerprint;
    round.ok = true;
    return round;
}

ClusterMetrics
replayJournal(const std::string &path, Recorder &rec, std::string &err)
{
    EpochConfig config;
    if (!readJournalConfig(path, config, err))
        return {};
    TraceArrivalProcess trace(path, epochMix(config));
    ClusterConfig c = epochClusterConfig(config, 1);
    c.observer = &rec;
    ClusterEngine engine(c);
    return engine.runToCompletion(trace);
}

namespace
{

/** The replayed engine must have made the verdicts the daemon sent. */
void
compareVerdicts(const std::vector<PlacementOutcome> &live,
                const std::vector<PlacementOutcome> &replayed,
                std::vector<std::string> &errors)
{
    if (live.size() != replayed.size()) {
        errors.push_back("replay made " + std::to_string(replayed.size()) +
                         " verdicts, the daemon " +
                         std::to_string(live.size()));
        return;
    }
    for (std::size_t i = 0; i < live.size(); ++i) {
        const PlacementOutcome &a = live[i];
        const PlacementOutcome &b = replayed[i];
        if (a.seq != b.seq || a.accepted != b.accepted ||
            a.negotiated != b.negotiated || a.node != b.node ||
            a.deadlineFactor != b.deadlineFactor) {
            errors.push_back("verdict " + std::to_string(i) +
                             " differs between daemon and replay");
            return;
        }
    }
}

} // namespace

namespace
{

/**
 * The simulated totals a DrainDone fingerprint (the canonical digest
 * of ClusterMetrics) carries: admission counters, virtual time,
 * instructions, completions and per-mode deadline tallies.
 * @return false when a field is missing.
 */
bool
parseFingerprint(const std::string &fp, ClusterMetrics &m)
{
    static const char *const modes[] = {"strict", "elastic",
                                        "opportunistic"};
    std::istringstream in(fp);
    std::string token;
    unsigned found = 0;
    while (in >> token) {
        const std::size_t eq = token.find('=');
        if (eq == std::string::npos)
            continue;
        const std::string key = token.substr(0, eq);
        const std::string value = token.substr(eq + 1);
        auto num = [&value](std::size_t from = 0) {
            return std::strtoull(value.c_str() + from, nullptr, 10);
        };
        if (key == "submitted")
            m.submitted = num();
        else if (key == "accepted")
            m.accepted = num();
        else if (key == "rejected")
            m.rejected = num();
        else if (key == "negotiated")
            m.negotiated = num();
        else if (key == "vt")
            m.virtualTime = num();
        else if (key == "instr")
            m.instructions = num();
        else if (key == "completed")
            m.completed = num();
        else if (key == "violations") {
            // Present only when the oracle found something.
            m.invariantViolations = num();
            continue;
        }
        else if (key == "tiers") {
            std::istringstream t(value);
            char slash = 0;
            t >> m.acceptedByTier[0] >> slash >> m.acceptedByTier[1] >>
                slash >> m.acceptedByTier[2];
        } else {
            for (std::size_t i = 0; i < 3; ++i)
                if (key == modes[i]) {
                    const std::size_t colon = value.find(':');
                    m.byMode[i].completed = num();
                    m.byMode[i].deadlineHits =
                        colon == std::string::npos ? 0 : num(colon + 1);
                    ++found;
                }
            continue;
        }
        ++found;
    }
    return found == 11;
}

} // namespace

Result
runQosdWorkload(const Workload &w, std::uint64_t seed, double seconds,
                std::int64_t t0Ns, bool setupOnly)
{
    Result r;
    const auto lists = makeLists(w, listSeeds(seed));
    const EpochConfig epoch = qosdEpoch(w, seed);
    calibrateMix(epochMix(epoch), FrameworkConfig{}.cmp);

    std::string err;
    QosdRound first;
    Rounds rounds;
    std::int64_t start_ns = 0;
    QosdHarness h(epoch);
    if (!h.start(err)) {
        r.errors.push_back("qosd start: " + err);
        return r;
    }
    if (setupOnly) {
        r.add("setup_s", static_cast<double>(nowNs() - t0Ns) / 1e9, "s");
        return r;
    }
    for (;;) {
        const std::vector<ClusterArrival> &arrivals =
            lists[rounds.rounds % kLists];
        QosdRound round = runQosdRound(h.client(), arrivals, err);
        r.attempted += arrivals.size();
        if (!round.ok) {
            r.errors.push_back("qosd round: " + err);
            break;
        }
        r.failed += round.errorReplies;
        if (round.errorReplies != 0)
            r.errors.push_back(std::to_string(round.errorReplies) +
                               " submissions got an error reply");
        ClusterMetrics m;
        if (!parseFingerprint(round.fingerprint, m))
            r.errors.push_back("unparseable DrainDone fingerprint");
        if (m.submitted != round.drainedSubmitted ||
            m.accepted != round.drainedAccepted ||
            m.completed != round.drainedCompleted)
            r.errors.push_back("DrainDone totals disagree with its "
                               "fingerprint");
        r.failed += checkRound(arrivals, round.outcomes, m,
                               w.strictMustHold, r.errors);
        for (std::size_t i = 0; i < round.replyNs.size(); ++i)
            rounds.latencyMs.push_back(
                static_cast<double>(round.replyNs[i] - round.sentNs[i]) /
                1e6);
        const double secs =
            static_cast<double>(round.endNs - round.sentNs.front()) / 1e9;
        rounds.minstrPerS.push_back(static_cast<double>(m.instructions) /
                                    1e6 / secs);
        rounds.verdictsPerS.push_back(
            static_cast<double>(round.replyNs.size()) / secs);
        if (rounds.rounds == 0) {
            start_ns = round.sentNs.front();
            rounds.setupS = static_cast<double>(start_ns - t0Ns) / 1e9;
        }
        rounds.add(m, round.fingerprint, r);
        if (rounds.rounds == 1)
            first = std::move(round);
        if (!r.errors.empty() || rounds.done(start_ns, seconds))
            break;
    }
    if (!h.shutdown(err))
        r.errors.push_back("qosd shutdown: " + err);
    if (r.errors.empty()) {
        // Thread and shard invariance: the federated, 2-worker live
        // epoch must fingerprint exactly like a 1-thread,
        // single-process replay of its journal, verdict by verdict.
        Recorder rec;
        const ClusterMetrics replayed =
            replayJournal(h.journalPath(0), rec, err);
        if (!err.empty())
            r.errors.push_back("journal replay: " + err);
        else if (replayed.fingerprint() != first.fingerprint)
            r.errors.push_back("1-thread single-process replay "
                               "fingerprint differs from DrainDone");
        compareVerdicts(first.outcomes, rec.outcomes, r.errors);
    }
    rounds.report(r);
    return r;
}

} // namespace perfbench
