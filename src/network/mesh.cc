#include "network/mesh.h"

#include <algorithm>
#include <cmath>

namespace qla::network {

IslandMesh::IslandMesh(int width, int height, int bandwidth,
                       std::uint64_t slots_per_channel)
    : width_(width), height_(height), bandwidth_(bandwidth),
      slots_per_channel_(slots_per_channel),
      used_(static_cast<std::size_t>(width) * height * 4, 0)
{
    qla_assert(width > 0 && height > 0 && bandwidth > 0
                   && slots_per_channel > 0,
               "bad mesh parameters");
}

int
islandDistance(const IslandCoord &a, const IslandCoord &b)
{
    return std::abs(a.x - b.x) + std::abs(a.y - b.y);
}

bool
IslandMesh::inBounds(const IslandCoord &c) const
{
    return c.x >= 0 && c.x < width_ && c.y >= 0 && c.y < height_;
}

std::uint64_t
IslandMesh::linkCapacity() const
{
    return static_cast<std::uint64_t>(bandwidth_) * slots_per_channel_;
}

IslandCoord
IslandMesh::neighbor(const IslandCoord &c, Direction dir)
{
    switch (dir) {
      case Direction::East:
        return {c.x + 1, c.y};
      case Direction::West:
        return {c.x - 1, c.y};
      case Direction::North:
        return {c.x, c.y + 1};
      case Direction::South:
        return {c.x, c.y - 1};
    }
    return c;
}

std::size_t
IslandMesh::linkIndex(const IslandCoord &from, Direction dir) const
{
    qla_assert(inBounds(from), "link from out-of-bounds island");
    qla_assert(inBounds(neighbor(from, dir)), "link leaves the mesh");
    return (static_cast<std::size_t>(from.y) * width_ + from.x) * 4
        + static_cast<std::size_t>(dir);
}

std::uint64_t
IslandMesh::capacityOf(std::size_t link) const
{
    if (faults_on_ && down_until_[link] > windows_)
        return 0;
    return linkCapacity();
}

std::uint64_t
IslandMesh::freeSlots(const IslandCoord &from, Direction dir) const
{
    const std::size_t link = linkIndex(from, dir);
    const std::uint64_t cap = capacityOf(link);
    const std::uint64_t used = used_[link];
    return used >= cap ? 0 : cap - used;
}

std::uint64_t
IslandMesh::usedSlots(const IslandCoord &from, Direction dir) const
{
    return used_[linkIndex(from, dir)];
}

int
IslandPath::hops() const
{
    int hops = 0;
    for (std::size_t i = 0; i + 1 < size(); ++i)
        hops += islandDistance((*this)[i], (*this)[i + 1]);
    return hops;
}

template <typename Visit>
bool
IslandMesh::walkLinks(IslandPath path, Visit &&visit) const
{
    // Consecutive links of a leg are a fixed index stride apart (4 per
    // island in x, 4 * width per island in y), so a leg is walked
    // without building a per-hop island list.
    const auto row_stride = static_cast<std::ptrdiff_t>(width_) * 4;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const IslandCoord &a = path[i];
        const IslandCoord &b = path[i + 1];
        qla_assert(a.x == b.x || a.y == b.y,
                   "island path leg is not axis-aligned");
        if (a == b)
            continue;
        qla_assert(inBounds(a) && inBounds(b), "link leaves the mesh");
        Direction dir;
        std::ptrdiff_t stride;
        if (b.x != a.x) {
            dir = b.x > a.x ? Direction::East : Direction::West;
            stride = b.x > a.x ? 4 : -4;
        } else {
            dir = b.y > a.y ? Direction::North : Direction::South;
            stride = b.y > a.y ? row_stride : -row_stride;
        }
        auto link = static_cast<std::ptrdiff_t>(linkIndex(a, dir));
        for (int n = islandDistance(a, b); n > 0; --n, link += stride)
            if (!visit(static_cast<std::size_t>(link)))
                return false;
    }
    return true;
}

std::uint64_t
IslandMesh::freeOnPath(IslandPath path, std::uint64_t want) const
{
    walkLinks(path, [&](std::size_t link) {
        const std::uint64_t cap = capacityOf(link);
        want = std::min(want, used_[link] >= cap ? 0 : cap - used_[link]);
        return want != 0;
    });
    return want;
}

std::uint64_t
IslandMesh::reserveUpTo(IslandPath path, std::uint64_t want)
{
    const std::uint64_t amount = freeOnPath(path, want);
    if (amount == 0)
        return 0;
    std::uint64_t links = 0;
    walkLinks(path, [&](std::size_t link) {
        qla_assert(used_[link] + amount <= capacityOf(link),
                   "reservation overbooks link ", link);
        used_[link] += amount;
        ++links;
        return true;
    });
    window_reserved_ += amount * links;
    total_reserved_ += amount * links;
    return amount;
}

std::uint64_t
IslandMesh::maxReservable(IslandPath path) const
{
    return freeOnPath(path, ~std::uint64_t{0});
}

void
IslandMesh::advanceWindow()
{
    std::fill(used_.begin(), used_.end(), 0);
    window_reserved_ = 0;
    ++windows_;
    if (faults_on_)
        refreshFaults();
}

namespace {

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

/** SplitMix64 finalizer: decorrelates (seed, link, window) tuples, and
 *  one SplitMix64 seeding step of Rng is mix64(s + i * kGolden). */
std::uint64_t
mix64(std::uint64_t x)
{
    x += kGolden;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** xoshiro256** output function of state word 1. */
std::uint64_t
starStar(std::uint64_t word1)
{
    const std::uint64_t x = word1 * 5;
    return ((x << 7) | (x >> 57)) * 9;
}

/** drawLinkFaults for a link whose key mix64(seed + link) is known.
 *  Branch-free, so a loop over links vectorizes. */
LinkFaultDraw
drawFromKey(std::uint64_t key, std::uint64_t window,
            const BernoulliThreshold &down, const BernoulliThreshold &burst)
{
    // Rng(s) seeds its state words i = 0..3 with mix64(s + i * kGolden).
    // An output reads word 1 alone; one step turns word 1 into
    // words 0 ^ 1 ^ 2. Word 3 is never needed. A trial that does not
    // draw leaves word 1 as it is, and its outcome does not depend on
    // the word it is compared against.
    const std::uint64_t s = mix64(key + window);
    const std::uint64_t word1 = mix64(s + kGolden);
    const std::uint64_t step_mask = std::uint64_t{0} - down.draws;
    const std::uint64_t second =
        word1 ^ ((mix64(s) ^ mix64(s + 2 * kGolden)) & step_mask);
    return {(starStar(word1) >> 11) < down.below,
            (starStar(second) >> 11) < burst.below};
}

} // namespace

BernoulliThreshold
bernoulliThreshold(double p)
{
    if (p <= 0.0)
        return {0, false};
    if (p >= 1.0)
        return {std::uint64_t{1} << 53, false};
    if (std::isnan(p))
        return {0, true};
    // uniform() < p with uniform() = (x >> 11) * 2^-53; scaling p by
    // 2^53 is exact, so the integer test is (x >> 11) < ceil(p * 2^53).
    return {static_cast<std::uint64_t>(std::ceil(std::ldexp(p, 53))), true};
}

LinkFaultDraw
drawLinkFaults(std::uint64_t seed, std::uint64_t link, std::uint64_t window,
               const BernoulliThreshold &down,
               const BernoulliThreshold &burst)
{
    return drawFromKey(mix64(seed + link), window, down, burst);
}

void
IslandMesh::setLinkFaults(const LinkFaultConfig &config)
{
    faults_ = config;
    faults_on_ = config.any();
    if (!faults_on_)
        return;
    down_threshold_ = bernoulliThreshold(config.linkDownRate);
    burst_threshold_ = bernoulliThreshold(config.burstRate);
    const std::size_t slots = used_.size();
    down_until_.assign(slots, 0);
    burst_.assign(slots, 0);
    down_draw_.assign(slots, 0);
    link_key_.resize(slots);
    for (std::size_t link = 0; link < slots; ++link)
        link_key_[link] = mix64(faults_.seed + link);
    // Mark the geometrically valid directed-link slots once; fault draws
    // and counters only touch real links.
    link_valid_.assign(slots, 0);
    for (int y = 0; y < height_; ++y) {
        for (int x = 0; x < width_; ++x) {
            const IslandCoord c{x, y};
            for (int d = 0; d < 4; ++d) {
                const auto dir = static_cast<Direction>(d);
                if (inBounds(neighbor(c, dir)))
                    link_valid_[linkIndex(c, dir)] = 1;
            }
        }
    }
    refreshFaults();
}

void
IslandMesh::refreshFaults()
{
    // The fault realization is a pure function of (seed, link index,
    // window index) -- independent of routing order and thread count.
    // Draw order within a link's stream is fixed (down first, then
    // burst) so the processes stay decoupled. Every slot is drawn in
    // one branch-free pass, which vectorizes (the locals keep the byte
    // stores from forcing member reloads); only the valid links' draws
    // are applied.
    const std::size_t slots = used_.size();
    const std::uint64_t window = windows_;
    const BernoulliThreshold down = down_threshold_;
    const BernoulliThreshold burst = burst_threshold_;
    const std::uint64_t *keys = link_key_.data();
    std::uint8_t *down_draws = down_draw_.data();
    std::uint8_t *bursts = burst_.data();
    for (std::size_t link = 0; link < slots; ++link) {
        const LinkFaultDraw draw =
            drawFromKey(keys[link], window, down, burst);
        down_draws[link] = draw.down;
        bursts[link] = draw.burst;
    }
    for (std::size_t link = 0; link < slots; ++link) {
        if (!link_valid_[link])
            continue;
        if (down_until_[link] <= windows_) {
            ++down_trials_;
            if (down_draw_[link]) {
                ++down_events_;
                down_until_[link] = windows_
                    + static_cast<std::uint64_t>(faults_.linkDownWindows);
            }
        }
        if (down_until_[link] > windows_)
            ++link_windows_down_;
        ++burst_trials_;
        burst_events_ += burst_[link];
    }
}

bool
IslandMesh::linkDown(const IslandCoord &from, Direction dir) const
{
    if (!faults_on_)
        return false;
    return down_until_[linkIndex(from, dir)] > windows_;
}

bool
IslandMesh::linkBurst(const IslandCoord &from, Direction dir) const
{
    if (!faults_on_)
        return false;
    return burst_[linkIndex(from, dir)] != 0;
}

int
IslandMesh::burstLinksOnPath(IslandPath path) const
{
    if (!faults_on_ || faults_.burstRate <= 0.0)
        return 0;
    int bursts = 0;
    walkLinks(path, [&](std::size_t link) {
        bursts += burst_[link] != 0;
        return true;
    });
    return bursts;
}

std::uint64_t
IslandMesh::totalLinks() const
{
    // Interior islands have 4 outgoing links; edges fewer. Count exactly.
    std::uint64_t links = 0;
    links += 2ULL * (width_ - 1) * height_; // east/west pairs
    links += 2ULL * width_ * (height_ - 1); // north/south pairs
    return links;
}

double
IslandMesh::aggregateUtilization() const
{
    if (windows_ == 0)
        return 0.0;
    const double capacity = static_cast<double>(totalLinks())
        * static_cast<double>(linkCapacity())
        * static_cast<double>(windows_);
    return static_cast<double>(total_reserved_) / capacity;
}

Direction
stepToward(const IslandCoord &a, const IslandCoord &b, bool y_first)
{
    qla_assert(!(a == b), "no step needed");
    if (y_first) {
        if (b.y > a.y)
            return Direction::North;
        if (b.y < a.y)
            return Direction::South;
    }
    if (b.x > a.x)
        return Direction::East;
    if (b.x < a.x)
        return Direction::West;
    return b.y > a.y ? Direction::North : Direction::South;
}

} // namespace qla::network
