#include "serve/engine_cache.h"

#include "apps/qcla.h"
#include "apps/qft.h"
#include "apps/toffoli.h"

namespace qla::serve {

network::ProgramWorkload
lowerWorkload(const WorkloadSpec &spec)
{
    switch (spec.app) {
    case WorkloadSpec::App::Toffoli:
        return network::ProgramWorkload(
            apps::toffoliNetworkCircuit(spec.size, spec.depth));
    case WorkloadSpec::App::Qcla:
        return network::ProgramWorkload(apps::qclaAdderCircuit(spec.size));
    case WorkloadSpec::App::BandedQft:
    default:
        return network::ProgramWorkload(apps::bandedQftCircuit(
            spec.size,
            spec.depth ? spec.depth : apps::qftBandWidth(spec.size)));
    }
}

std::shared_ptr<const network::ProgramWorkload>
WorkloadCache::acquire(const WorkloadSpec &spec)
{
    const std::string key = spec.token();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto found = cache_.find(key);
        if (found != cache_.end()) {
            ++counters_.workloadReplays;
            return found->second;
        }
    }
    // Lower outside the lock (lowering a wide QFT is not cheap);
    // a racing duplicate lowering is wasted work, never a wrong result.
    auto workload = std::make_shared<const network::ProgramWorkload>(
        lowerWorkload(spec));
    std::lock_guard<std::mutex> lock(mutex_);
    auto [slot, inserted] = cache_.emplace(key, std::move(workload));
    if (inserted)
        ++counters_.workloadLowerings;
    else
        ++counters_.workloadReplays;
    return slot->second;
}

CacheCounters
WorkloadCache::counters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_;
}

void
WorkloadCache::resetCounters()
{
    std::lock_guard<std::mutex> lock(mutex_);
    counters_ = CacheCounters{};
}

} // namespace qla::serve
