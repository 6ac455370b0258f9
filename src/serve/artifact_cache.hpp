// Cross-request artifact cache: content-hashed, LRU-bounded, refcounted.
//
// A gecosd process serves many jobs against few distinct physical setups:
// the same lattice's Hamiltonian, the same sector's compiled operator, the
// same observable set. Before this cache each job rebuilt them from
// scratch — Jordan-Wigner expansion, transition canonicalization, kernel
// compilation, the gather-row build — work that dwarfs a warm solve.
// ROADMAP item 3 names the fix: hoist those function-local artifacts into
// shared, refcounted objects keyed by content.
//
// Keys are 64-bit content hashes of the canonical parameter encoding (the
// caller picks the hash; the serve layer uses xxh64 over PayloadWriter
// bytes with a per-artifact-type tag). Values are type-erased
// shared_ptr<const void> with the concrete type_info recorded: a key
// colliding across types is treated as a miss rather than a wrong-type
// cast. Eviction is LRU by byte budget, and an entry some caller still
// pins (use_count > 1) is never evicted — the budget bounds IDLE bytes,
// live working sets are allowed to exceed it. Builds run OUTSIDE the lock
// (they can take seconds), so two racing builders may both build; the
// first insert wins and the loser adopts it, keeping the pointer-identity
// guarantee. Hits/misses/evictions feed both local accessors and the
// telemetry registry (artifact_hits / artifact_misses /
// artifact_evictions) — the serve_batch bench's warm-cache gate reads
// them. See DESIGN.md "Serving layer".
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <typeinfo>
#include <utility>

#include "fermion/hubbard.hpp"
#include "serve/protocol.hpp"
#include "symmetry/sector_operator.hpp"

namespace gecos::serve {

/// Content-hash keyed LRU cache of immutable simulation artifacts.
class ArtifactCache {
 public:
  /// Cache with an idle-byte budget (see the file comment; pinned entries
  /// are exempt from eviction).
  explicit ArtifactCache(std::size_t byte_budget) : budget_(byte_budget) {}

  /// Returns the cached artifact for `key`, or builds one with `build` (a
  /// callable returning std::shared_ptr<const T>) and caches it under
  /// `bytes_of(*built)` accounted bytes. Type-checked: a key present under
  /// a different T is a miss. Thread-safe; build runs outside the lock —
  /// racing builders both build, the first insert wins and the loser
  /// adopts it (pointer identity preserved).
  template <class T, class Build, class BytesOf> std::shared_ptr<const T>
  get_or_build(std::uint64_t key, Build&& build, BytesOf&& bytes_of) {
    if (auto hit = lookup(key, typeid(T)))
      return std::static_pointer_cast<const T>(hit);
    std::shared_ptr<const T> built = std::forward<Build>(build)();
    auto adopted =
        insert(key, typeid(T), std::static_pointer_cast<const void>(built),
               std::forward<BytesOf>(bytes_of)(*built));
    return std::static_pointer_cast<const T>(adopted);
  }

  /// Lifetime lookup/build/eviction counters and resident totals.
  std::uint64_t hits() const;
  std::uint64_t misses() const;      ///< lookups that had to build
  std::uint64_t evictions() const;   ///< entries LRU-evicted
  std::size_t resident_bytes() const;    ///< accounted bytes resident now
  std::size_t resident_entries() const;  ///< entries resident now

  /// Drops every unpinned entry (pinned entries stay; their bytes remain
  /// accounted until released and re-swept).
  void clear();

 private:
  struct Entry {
    std::shared_ptr<const void> value;
    const std::type_info* type = nullptr;
    std::size_t bytes = 0;
    std::uint64_t last_use = 0;
  };

  std::shared_ptr<const void> lookup(std::uint64_t key,
                                     const std::type_info& type);
  std::shared_ptr<const void> insert(std::uint64_t key,
                                     const std::type_info& type,
                                     std::shared_ptr<const void> value,
                                     std::size_t bytes);
  void evict_locked();

  mutable std::mutex mutex_;
  std::map<std::uint64_t, Entry> entries_;
  std::size_t budget_ = 0;
  std::size_t bytes_ = 0;
  std::uint64_t seq_ = 0;  // LRU clock
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

/// The lattice Hamiltonian as a shared ScbSum (JW expansion cached; its
/// compiled-kernel cache is shared by all copies, see ops/scb_sum.hpp).
std::shared_ptr<const ScbSum> cached_hubbard(ArtifactCache& cache,
                                             const HubbardParams& p);

/// The lattice Hamiltonian compiled into the (n_up, n_down) sector — its
/// gather form built once per cache lifetime and charged at
/// SectorOperator::layout_bytes().
std::shared_ptr<const SectorOperator> cached_sector_op(ArtifactCache& cache,
                                                       const HubbardParams& p,
                                                       std::uint32_t n_up,
                                                       std::uint32_t n_down);

/// A diagonal observable compiled into the same sector (for batched
/// expectation sweeps).
std::shared_ptr<const SectorOperator> cached_observable(
    ArtifactCache& cache, const HubbardParams& p, std::uint32_t n_up,
    std::uint32_t n_down, const ObservableSpec& obs);

}  // namespace gecos::serve
