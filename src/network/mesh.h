/**
 * @file
 * Teleportation-island mesh with per-link channel capacity.
 *
 * Paper Section 5: the QLA interconnect is a mesh of teleportation
 * islands (an island every third logical qubit in x, every qubit in y,
 * for the 100-cell separation), with a fixed number of physical channels
 * per direction ("we define the bandwidth of QLA's communication channels
 * as the number of physical channels in each direction"). One channel
 * carries fresh EPR halves outward, another returns used ions; pairs are
 * pipelined within a channel.
 */

#ifndef QLA_NETWORK_MESH_H
#define QLA_NETWORK_MESH_H

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "common/logging.h"
#include "common/units.h"

namespace qla::network {

/** Position of an island in the mesh. */
struct IslandCoord
{
    int x = 0; ///< Island column (0-based; one island per 3 tiles in x).
    int y = 0; ///< Island row (0-based; one island per tile row).

    bool operator==(const IslandCoord &o) const
    {
        return x == o.x && y == o.y;
    }
};

/** Manhattan distance between two islands. */
int islandDistance(const IslandCoord &a, const IslandCoord &b);

/**
 * Read-only view of an island path given by its waypoints: consecutive
 * waypoints share a row or a column, and the path crosses every directed
 * link of the straight leg between them. A unit-hop island list is the
 * special case in which every leg is one link long. Like std::span it
 * does not own the waypoints, which must outlive it.
 */
class IslandPath : public std::span<const IslandCoord>
{
  public:
    using std::span<const IslandCoord>::span;

    IslandPath(std::initializer_list<IslandCoord> points)
        : std::span<const IslandCoord>(points.begin(), points.size())
    {
    }

    /** Links crossed: the sum of the leg lengths. */
    int hops() const;
};

/** Directions of mesh links. */
enum class Direction : std::uint8_t { East, West, North, South };

/**
 * Stochastic link-fault model (PR 7 noisy-interconnect co-design).
 *
 * Three fault processes degrade EPR delivery:
 *
 *  - pair loss:     each pair crossing a link is lost with probability
 *                   pairLossRate (drawn per routed bundle by the
 *                   co-simulator, binomially over the path's hops);
 *  - link down:     a link enters a down interval (zero capacity for
 *                   linkDownWindows windows) with per-window probability
 *                   linkDownRate;
 *  - depol. burst:  a link depolarizes every pair crossing it this
 *                   window (extra Werner decay burstDepolarization) with
 *                   per-window probability burstRate.
 *
 * Determinism contract: the down/burst state of (link, window) is a pure
 * function of (seed, link index, window index) -- drawLinkFaults below,
 * evaluated inline per link -- so fault realizations are identical
 * regardless of routing order, thread count, or how many reservations
 * probed the link. All-zero rates disable the machinery entirely
 * (bit-identical to the fault-free mesh).
 */
struct LinkFaultConfig
{
    /** Per-hop probability a transported pair is lost in transit. */
    double pairLossRate = 0.0;
    /** Per-link per-window probability a down interval starts. */
    double linkDownRate = 0.0;
    /** Length of one down interval in windows. */
    int linkDownWindows = 2;
    /** Per-link per-window probability of a depolarization burst. */
    double burstRate = 0.0;
    /** Werner depolarization applied per bursting link crossed. */
    double burstDepolarization = 0.05;
    /** Fault-process seed (mixed with the run seed by the co-sim). */
    std::uint64_t seed = 1;

    bool any() const
    {
        return pairLossRate > 0.0 || linkDownRate > 0.0
            || burstRate > 0.0;
    }

    /** The sweep's uniform fault-rate axis: loss and bursts at @p rate,
     *  down-interval starts at rate/4, structural knobs kept. */
    LinkFaultConfig atRate(double rate) const
    {
        LinkFaultConfig c = *this;
        c.pairLossRate = rate;
        c.burstRate = rate;
        c.linkDownRate = 0.25 * rate;
        return c;
    }
};

/**
 * Integer form of Rng::bernoulli(p) on a raw 64-bit xoshiro output x:
 * the trial is true exactly when (x >> 11) < below.
 */
struct BernoulliThreshold
{
    /** ceil(p * 2^53); 0 (never) for p <= 0 and NaN, 2^53 (always)
     *  for p >= 1. */
    std::uint64_t below = 0;
    /** The trial consumes a generator output: Rng::bernoulli draws
     *  only when p is not <= 0 and not >= 1 (NaN draws). */
    bool draws = false;
};

BernoulliThreshold bernoulliThreshold(double p);

/** One directed link's fault draws for one window. */
struct LinkFaultDraw
{
    bool down = false;  ///< A down interval starts (if the link is up).
    bool burst = false; ///< The link depolarizes this window's pairs.
};

/**
 * The fault draws of directed link @p link at window @p window under
 * fault seed @p seed: Rng(mix64(mix64(seed + link) + window)), mix64
 * being the SplitMix64 finalizer, makes the down trial and then the
 * burst trial. Evaluated branch-free from the generator's seed words,
 * without building an Rng, so IslandMesh draws every link of a window
 * in one vectorized pass.
 */
LinkFaultDraw drawLinkFaults(std::uint64_t seed, std::uint64_t link,
                             std::uint64_t window,
                             const BernoulliThreshold &down,
                             const BernoulliThreshold &burst);

/**
 * Island mesh with window-slotted channel accounting.
 *
 * Time is divided into scheduling windows (one level-2 error-correction
 * period each). Each directed link can carry a bounded number of EPR
 * pairs per window: bandwidth channels x (window / per-pair headway).
 */
class IslandMesh
{
  public:
    /**
     * @param width       Islands in x.
     * @param height      Islands in y.
     * @param bandwidth   Channels per direction per link.
     * @param slots_per_channel Pairs one channel can move in one window.
     */
    IslandMesh(int width, int height, int bandwidth,
               std::uint64_t slots_per_channel);

    int width() const { return width_; }
    int height() const { return height_; }
    int bandwidth() const { return bandwidth_; }
    std::uint64_t slotsPerChannel() const { return slots_per_channel_; }

    bool inBounds(const IslandCoord &c) const;

    /** Directed-link capacity in pairs per window. */
    std::uint64_t linkCapacity() const;

    /** Remaining pair slots on the directed link from @p from toward
     *  @p dir in the current window. */
    std::uint64_t freeSlots(const IslandCoord &from, Direction dir) const;

    /** Slots reserved on the directed link in the current window. */
    std::uint64_t usedSlots(const IslandCoord &from, Direction dir) const;

    /**
     * Reserve min(@p want, maxReservable(@p path)) slots on every
     * directed link along @p path: one min-free walk, then one commit
     * walk that checks each link's capacity again as it books it, so a
     * path that crosses a directed link twice aborts instead of
     * overbooking it (router paths never do).
     * @return the slots reserved per link (@p want on a trivial path).
     */
    std::uint64_t reserveUpTo(IslandPath path, std::uint64_t want);

    /** Largest reservation the path can currently accept (min over its
     *  links of the free slots, stopping at the first full link);
     *  UINT64_MAX for a trivial path. */
    std::uint64_t maxReservable(IslandPath path) const;

    /** Begin a new window: clears all reservations, accumulates stats. */
    void advanceWindow();

    /**
     * Install the stochastic link-fault model (PR 7). Draws the current
     * window's down/burst state immediately; all-zero rates are a no-op.
     */
    void setLinkFaults(const LinkFaultConfig &config);

    const LinkFaultConfig &linkFaults() const { return faults_; }
    bool faultsEnabled() const { return faults_on_; }

    /** Link is inside a down interval this window (zero capacity). */
    bool linkDown(const IslandCoord &from, Direction dir) const;

    /** Link carries a depolarization burst this window. */
    bool linkBurst(const IslandCoord &from, Direction dir) const;

    /** Bursting links crossed by @p path in the current window. */
    int burstLinksOnPath(IslandPath path) const;

    /** @name Fault-process event counters
     *  For the statistical crosscheck that injected faults match their
     *  configured rates: events / trials estimates the per-link
     *  per-window rate. A down trial is counted only when the link was
     *  eligible (not already down). */
    ///@{
    std::uint64_t faultDownEvents() const { return down_events_; }
    std::uint64_t faultDownTrials() const { return down_trials_; }
    std::uint64_t faultBurstEvents() const { return burst_events_; }
    std::uint64_t faultBurstTrials() const { return burst_trials_; }
    /** (link, window) cells spent inside down intervals. */
    std::uint64_t linkWindowsDown() const { return link_windows_down_; }
    ///@}

    /** Windows elapsed (advanceWindow calls). */
    std::uint64_t windowsElapsed() const { return windows_; }

    /** Total directed links in the mesh. */
    std::uint64_t totalLinks() const;

    /**
     * Aggregate bandwidth utilization so far: reserved slots divided by
     * available slots over all links and completed windows.
     */
    double aggregateUtilization() const;

    /** Slots reserved in the current (open) window. */
    std::uint64_t reservedThisWindow() const { return window_reserved_; }

  private:
    std::size_t linkIndex(const IslandCoord &from, Direction dir) const;

    /** Call @p visit(link) on every directed link of @p path in walk
     *  order, in place; stops and returns false as soon as a visit
     *  returns false. */
    template <typename Visit>
    bool walkLinks(IslandPath path, Visit &&visit) const;

    static IslandCoord neighbor(const IslandCoord &c, Direction dir);

    /** min(@p want, free slots of every link on @p path), stopping at
     *  the first link with none. */
    std::uint64_t freeOnPath(IslandPath path, std::uint64_t want) const;

    /** Capacity of link slot @p link this window (0 while down). */
    std::uint64_t capacityOf(std::size_t link) const;

    /** Redraw down/burst state for the current window (pure in
     *  (seed, link, window); link-index order). */
    void refreshFaults();

    int width_;
    int height_;
    int bandwidth_;
    std::uint64_t slots_per_channel_;
    std::vector<std::uint64_t> used_; // per directed link, current window
    std::uint64_t windows_ = 0;
    std::uint64_t window_reserved_ = 0;
    std::uint64_t total_reserved_ = 0;

    // Link-fault state (allocated only when faults are installed).
    LinkFaultConfig faults_;
    bool faults_on_ = false;
    BernoulliThreshold down_threshold_;  // of linkDownRate
    BernoulliThreshold burst_threshold_; // of burstRate
    std::vector<std::uint8_t> link_valid_; // geometric link slot exists
    std::vector<std::uint64_t> down_until_; // absolute window, exclusive
    std::vector<std::uint8_t> burst_;       // this window only
    std::vector<std::uint8_t> down_draw_;   // this window's down draws
    std::vector<std::uint64_t> link_key_;   // mix64(seed + link)
    std::uint64_t down_events_ = 0;
    std::uint64_t down_trials_ = 0;
    std::uint64_t burst_events_ = 0;
    std::uint64_t burst_trials_ = 0;
    std::uint64_t link_windows_down_ = 0;
};

/** Step from @p a toward @p b (dimension-ordered); a != b required. */
Direction stepToward(const IslandCoord &a, const IslandCoord &b,
                     bool y_first);

} // namespace qla::network

#endif // QLA_NETWORK_MESH_H
