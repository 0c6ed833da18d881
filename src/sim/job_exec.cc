#include "job_exec.hh"

namespace cmpqos
{

JobExecution::JobExecution(JobId id, const BenchmarkProfile &profile,
                           InstCount length, std::uint64_t seed,
                           TraceMode mode)
    : id_(id), profile_(&profile), length_(length),
      generator_(std::in_place, profile, seed, jobAddressBase(id), mode)
{
}

CpiParams
JobExecution::cpiParams(double t2) const
{
    CpiParams p;
    p.cpiL1Inf = profile_->cpiL1Inf;
    p.t2 = t2;
    return p;
}

} // namespace cmpqos
