#include "network/scheduler.h"

#include <algorithm>
#include <cmath>

namespace qla::network {

std::uint64_t
slotsPerChannel(const SchedulerConfig &config)
{
    return static_cast<std::uint64_t>(config.window
                                      / config.purifiedPairServiceTime);
}

RoutePath
EprRouter::dimensionOrderedPath(const IslandCoord &from,
                                const IslandCoord &to, bool y_first)
{
    const IslandCoord corner = y_first ? IslandCoord{from.x, to.y}
                                       : IslandCoord{to.x, from.y};
    return {{from, corner, to}, 3};
}

RoutePath
EprRouter::detourPath(const IslandCoord &from, const IslandCoord &to,
                      int x_shift)
{
    return {{from,
             {from.x + x_shift, from.y},
             {from.x + x_shift, to.y},
             to},
            4};
}

RoutePath
EprRouter::detourPathRow(const IslandCoord &from, const IslandCoord &to,
                         int y_shift)
{
    return {{from,
             {from.x, from.y + y_shift},
             {to.x, from.y + y_shift},
             to},
            4};
}

std::uint64_t
EprRouter::routePairs(IslandMesh &mesh, const EprDemand &demand,
                      std::uint64_t pairs, RouteStats &stats,
                      RouteDelivery *delivery) const
{
    if (delivery != nullptr)
        delivery->grabs.clear();
    if (demand.source == demand.destination)
        return pairs; // co-located after drift; no mesh traffic

    std::uint64_t remaining = pairs;
    bool first_path = true;
    auto grab = [&](const RoutePath &route) {
        const IslandPath path(route);
        if (remaining == 0)
            return;
        const std::uint64_t amount = mesh.reserveUpTo(path, remaining);
        if (amount == 0)
            return;
        if (!first_path)
            ++stats.backoffReroutes;
        remaining -= amount;
        first_path = false;
        if (delivery != nullptr)
            delivery->grabs.push_back(
                {amount, path.hops(), mesh.burstLinksOnPath(path)});
    };

    // Greedy: grab everything the dimension-ordered route offers, then
    // back off onto the alternate shape, then detour columns and rows.
    grab(dimensionOrderedPath(demand.source, demand.destination, false));
    grab(dimensionOrderedPath(demand.source, demand.destination, true));
    for (int r = 1; r <= detour_radius_ && remaining > 0; ++r) {
        for (int sign : {+1, -1}) {
            const int shift = sign * r;
            const int col = demand.source.x + shift;
            if (col >= 0 && col < mesh.width())
                grab(detourPath(demand.source, demand.destination,
                                shift));
            const int row = demand.source.y + shift;
            if (row >= 0 && row < mesh.height())
                grab(detourPathRow(demand.source, demand.destination,
                                   shift));
        }
    }
    return pairs - remaining;
}

GreedyEprScheduler::GreedyEprScheduler(const SchedulerConfig &config,
                                       const WorkloadConfig &workload)
    : config_(config), workload_config_(workload)
{
    qla_assert(config_.meshWidth > 1 && config_.meshHeight > 1,
               "mesh too small");
    workload_config_.driftOptimization = config_.driftOptimization;
}

std::uint64_t
GreedyEprScheduler::slotsPerChannel() const
{
    return network::slotsPerChannel(config_);
}

SchedulerReport
GreedyEprScheduler::run()
{
    IslandMesh mesh(config_.meshWidth, config_.meshHeight,
                    config_.bandwidth, slotsPerChannel());
    ToffoliWorkload workload(workload_config_, config_.meshWidth,
                             config_.meshHeight, Rng(config_.seed));
    const EprRouter router(config_.detourRadius);

    SchedulerReport report;
    RouteStats route_stats;
    double route_length_sum = 0.0;
    std::uint64_t routed = 0;
    // Demands deferred from previous windows, with their ages.
    std::vector<std::pair<EprDemand, int>> pending;

    // One pass per scheduling window: each pass is the instant the next
    // EC cycle begins and freshly delivered EPR pairs are consumed.
    for (int window = 0; window < workload_config_.totalWindows; ++window) {
        for (const EprDemand &demand : workload.nextWindow()) {
            ++report.demands;
            report.pairsRequested += demand.pairs;
            pending.emplace_back(demand, 0);
        }
        // Oldest first, then longest routes: deferred demands are
        // closest to stalling and long routes are hardest to place
        // once bandwidth fragments.
        std::sort(pending.begin(), pending.end(),
                  [](const auto &a, const auto &b) {
                      if (a.second != b.second)
                          return a.second > b.second;
                      return islandDistance(a.first.source,
                                            a.first.destination)
                          > islandDistance(b.first.source,
                                           b.first.destination);
                  });

        bool window_stalled = false;
        std::vector<std::pair<EprDemand, int>> still_pending;
        for (auto &[demand, age] : pending) {
            const int dist = islandDistance(demand.source,
                                            demand.destination);
            const std::uint64_t moved = router.routePairs(
                mesh, demand, demand.pairs, route_stats);
            report.pairsDelivered += moved;
            demand.pairs -= moved;
            if (demand.pairs == 0) {
                route_length_sum += dist;
                ++routed;
            } else if (age < config_.slackWindows) {
                still_pending.emplace_back(demand, age + 1);
            } else {
                ++report.stalledDemands;
                window_stalled = true;
            }
        }
        pending = std::move(still_pending);
        if (window_stalled)
            ++report.stalledWindows;
        mesh.advanceWindow();
    }

    report.windows = mesh.windowsElapsed();
    report.utilization = mesh.aggregateUtilization();
    report.backoffReroutes = route_stats.backoffReroutes;
    report.averageRouteLength = routed
        ? route_length_sum / static_cast<double>(routed)
        : 0.0;
    return report;
}

} // namespace qla::network
