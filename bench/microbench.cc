/**
 * @file
 * Component microbenchmarks (google-benchmark): throughput of the
 * partitioned-L2 access path, the duplicate tag array, the
 * stack-distance sampler, the access generator (per-access and
 * per-job construction), and the LAC admission test — the hot paths
 * of the simulator and framework.
 */

#include <benchmark/benchmark.h>

#include "cache/duplicate_tags.hh"
#include "cache/partitioned_cache.hh"
#include "common/random.hh"
#include "qos/admission.hh"
#include "workload/benchmark.hh"
#include "workload/generator.hh"

namespace
{

using namespace cmpqos;

void
BM_PartitionedCacheAccess(benchmark::State &state)
{
    PartitionedCache l2(CacheConfig::l2Default(), 4,
                        static_cast<PartitionScheme>(state.range(0)));
    l2.setTargetWays(0, 7);
    l2.setCoreClass(0, CoreClass::Reserved);
    Rng rng(1);
    std::uint64_t sink = 0;
    for (auto _ : state) {
        const Addr addr = (rng.next() & 0xffffff) << 6;
        sink += l2.access(0, addr, false).hit;
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PartitionedCacheAccess)
    ->Arg(static_cast<int>(PartitionScheme::None))
    ->Arg(static_cast<int>(PartitionScheme::Global))
    ->Arg(static_cast<int>(PartitionScheme::PerSet));

void
BM_DuplicateTagObserve(benchmark::State &state)
{
    DuplicateTagArray dup(CacheConfig::l2Default(), 7,
                          static_cast<unsigned>(state.range(0)));
    Rng rng(2);
    for (auto _ : state) {
        const Addr addr = (rng.next() & 0xffffff) << 6;
        benchmark::DoNotOptimize(dup.observe(addr, true));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DuplicateTagObserve)->Arg(1)->Arg(8);

void
BM_StackSamplerAccess(benchmark::State &state)
{
    LruStackSampler stack;
    Rng rng(3);
    // Populate.
    for (int i = 0; i < 50'000; ++i)
        stack.accessNew();
    for (auto _ : state) {
        const std::uint64_t d = 1 + rng.uniformInt(40'000);
        benchmark::DoNotOptimize(stack.accessAtDistance(d));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_StackSamplerAccess);

void
BM_GeneratorRun(benchmark::State &state)
{
    const auto &b = BenchmarkRegistry::get("bzip2");
    AccessGenerator gen(b, 4, 0);
    std::uint64_t sink = 0;
    for (auto _ : state) {
        gen.run(1000, [&](Addr a, bool) { sink += a; });
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 1000);
    state.SetLabel("items = instructions");
}
BENCHMARK(BM_GeneratorRun);

void
BM_GeneratorConstruct(benchmark::State &state, const char *name)
{
    // Per-accepted-job set-up: the right-sized, pre-warmed stack.
    const auto &b = BenchmarkRegistry::get(name);
    std::uint64_t seed = 5;
    for (auto _ : state) {
        AccessGenerator gen(b, seed++, 0);
        benchmark::DoNotOptimize(gen.rate());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
    state.SetLabel("items = generators");
}
BENCHMARK_CAPTURE(BM_GeneratorConstruct, bzip2, "bzip2");
BENCHMARK_CAPTURE(BM_GeneratorConstruct, hmmer, "hmmer");
BENCHMARK_CAPTURE(BM_GeneratorConstruct, gobmk, "gobmk");
BENCHMARK_CAPTURE(BM_GeneratorConstruct, mcf, "mcf");

void
BM_LacAdmissionTest(benchmark::State &state)
{
    LocalAdmissionController lac;
    // Pre-load the timeline with reservations to scan.
    const int preload = static_cast<int>(state.range(0));
    for (int i = 0; i < preload; ++i) {
        QosTarget t;
        t.cores = 1;
        t.cacheWays = 7;
        t.maxWallClock = 1000;
        t.relativeDeadline = 100'000'000;
        Job j(i, "bzip2", 1, t, ModeSpec::strict());
        lac.submit(j, 0);
    }
    QosTarget t;
    t.cores = 1;
    t.cacheWays = 7;
    t.maxWallClock = 1000;
    t.relativeDeadline = 2000;
    Job probe_job(preload + 1, "bzip2", 1, t, ModeSpec::strict());
    for (auto _ : state)
        benchmark::DoNotOptimize(lac.probe(probe_job, 0));
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LacAdmissionTest)->Arg(2)->Arg(16)->Arg(64);

} // namespace

BENCHMARK_MAIN();
