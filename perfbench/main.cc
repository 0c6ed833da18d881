/**
 * @file
 * perfbench: one run of one workload of the cmpqos benchmark.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s>
 *             --mode run|setup|trace --t0-ns <monotonic ns>
 *
 * `run` measures the end-to-end metrics, `setup` stops at the first
 * arrival offered (run.py takes several set-up samples per run), and
 * `trace` is the separate traced run that prints per-layer metrics.
 * The last line of stdout is the result JSON; the exit code is 0 iff
 * every check passed. run.py builds this binary and wraps it.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.hh"

namespace
{

const char *
compilerString()
{
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "paper_mix|admission_churn|qosd_fed --seed N "
                 "--seconds S --mode run|setup|trace [--t0-ns NS]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    std::string workload;
    std::string mode = "run";
    std::uint64_t seed = 1;
    double seconds = 10.0;
    std::int64_t t0_ns = nowNs();
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        if (flag == "--workload")
            workload = value;
        else if (flag == "--seed")
            seed = std::strtoull(value, nullptr, 10);
        else if (flag == "--seconds")
            seconds = std::strtod(value, nullptr);
        else if (flag == "--mode")
            mode = value;
        else if (flag == "--t0-ns")
            t0_ns = std::strtoll(value, nullptr, 10);
        else
            return usage(("unknown flag " + flag).c_str());
    }
    const Workload *w = findWorkload(workload);
    if (w == nullptr)
        return usage(("unknown workload '" + workload + "'").c_str());
    if (!(seconds > 0.0))
        return usage("--seconds must be positive");

    Result r;
    if (mode == "trace")
        r = runTraced(*w, seed, seconds);
    else if (mode == "run" || mode == "setup") {
        const bool setup_only = mode == "setup";
        r = w->driver == Driver::Engine
                ? runEngineWorkload(*w, seed, seconds, t0_ns, setup_only)
                : runQosdWorkload(*w, seed, seconds, t0_ns, setup_only);
    } else {
        return usage(("unknown mode " + mode).c_str());
    }
    // A failed check taints every operation of the run.
    if (!r.errors.empty())
        r.failed = r.attempted;
    r.notes.insert(
        r.notes.begin(),
        std::string("host cores=") +
            std::to_string(std::thread::hardware_concurrency()) +
            " build=" PERFBENCH_BUILD_TYPE " compiler=\"" +
            compilerString() + "\" engine_threads=" +
            (w->driver == Driver::Engine
                 ? std::to_string(kEngineThreads)
                 : std::to_string(kShards) + "x1 (shards x threads)") +
            " workload=" + w->name + " seed=" + std::to_string(seed));
    return printResult(r);
}
