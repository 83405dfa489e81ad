// HashRing — consistent-hash routing of tenants onto edge cells.
//
// Each cell (replica) contributes `vnodes` points to a 64-bit hash ring;
// a tenant routes to the owner of the first point clockwise of its hashed
// id. Virtual nodes smooth the per-cell share (stddev of a cell's share
// shrinks ~1/sqrt(vnodes)), and consistency bounds churn: adding a cell
// moves only the keys that now land on the new cell's points (~1/(n+1) of
// the space), removing one moves only the removed cell's keys — every
// other tenant keeps its owner, so a topology change never invalidates
// the whole fleet's warm state.
//
// route() is the fleet's per-request fast path: a mix + binary search over
// an immutable-between-topology-changes sorted vector — no lock, no
// allocation (see the ORCO_HOT_PATH region). Topology changes
// (add/remove_replica) rebuild the vector and are NOT thread-safe against
// concurrent route(); the EdgeFleet fixes its topology at construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace orco::fleet {

class HashRing {
 public:
  /// An empty ring; add_replica before routing.
  explicit HashRing(std::size_t vnodes = 96);

  /// A ring over replicas 0..replica_count-1.
  HashRing(std::size_t replica_count, std::size_t vnodes);

  /// splitmix64 finalizer — the repo-standard stable hash, exposed so
  /// tests can hash keys the way the ring does.
  static std::uint64_t mix(std::uint64_t x) noexcept {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  /// Adds a replica's vnode points. Re-adding an id throws.
  void add_replica(std::uint32_t replica);

  /// Removes a replica's points; false when the id is not on the ring.
  bool remove_replica(std::uint32_t replica);

  /// The replica owning `key`. The ring must be non-empty.
  std::uint32_t route(std::uint64_t key) const noexcept;

  std::size_t replica_count() const noexcept { return replicas_.size(); }
  std::size_t point_count() const noexcept { return points_.size(); }
  std::size_t vnodes() const noexcept { return vnodes_; }
  bool empty() const noexcept { return points_.empty(); }

 private:
  struct Point {
    std::uint64_t hash;
    std::uint32_t replica;
  };

  void rebuild();

  std::size_t vnodes_;
  std::vector<std::uint32_t> replicas_;
  std::vector<Point> points_;  // sorted by hash
};

}  // namespace orco::fleet
