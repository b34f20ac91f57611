// A fixed-size cache of full batch-lookup results keyed by interned destination
// NameId, with set-associative CLOCK replacement.
//
// The POI-alias observation (He et al., 2021; see PAPERS.md) holds for mail routing
// too: resolution traffic is dominated by a small hot set of repeated destinations.
// For a destination the interner knows, the entire walk that follows the initial hash
// — exact-route probe, then the precomputed domain-suffix chain — is a pure function
// of its NameId, so one cache probe replaces the whole thing, negative outcomes
// included (a cached miss is as final as a cached route).  Strangers have no NameId
// and are never cached; their dotted-suffix probing runs every time.
//
// Shape: `entries` slots organized as power-of-two sets of kWays ways.  Lookup probes
// one set (at most kWays key compares, one cache line of keys); replacement is CLOCK
// within the set — a hit arms the way's reference bit, the rotating hand evicts the
// first unarmed way and disarms the armed ones it passes.  No linked lists, no
// tombstones, no allocation after construction.
//
// Concurrency: single-owner reads and writes, concurrent invalidation.  A
// ResultCache belongs to exactly one shard of one batch engine, and a shard runs on
// one thread at a time — sharding by destination is what makes this single-owner
// design safe AND maximizes hits (a destination always lands in the same shard, so
// its cached result is always in the cache that is asked).  The ONE cross-thread
// entry point is Invalidate(): an updater may revoke dirty keys while the owner
// thread serves a batch.  Keys are therefore atomics; values never are — the
// invalidator writes only keys, so values stay single-owner.  The race semantics
// are best-effort revocation: a lookup that overlaps an invalidation may return
// the pre-update result one last time (the query was in flight when the routes
// changed), and a Put may land a result computed BEFORE the invalidation just
// after it, where it survives until the next invalidation or eviction.  A hard
// cut needs the invalidation to happen with no batch in flight (the engine's
// AdoptRoutes flow).  What cannot happen is a key matching one entry while the
// value bytes belong to another.
//
// Lifetime: cached BatchLookups hold views into the image's storage (interner bytes,
// route bytes of a .pari image, usually mmap'd).  The cache must not outlive the
// image; when the image is replaced see BatchEngine::AdoptRoutes (targeted) or call
// Clear() (flush).

#ifndef SRC_EXEC_RESULT_CACHE_H_
#define SRC_EXEC_RESULT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "src/exec/resolver.h"
#include "src/support/interner.h"

namespace pathalias {
namespace exec {

class ResultCache {
 private:
  // Defined up front so the public Handle below can point at one.
  struct Set {
    std::atomic<NameId> keys[4] = {kNoName, kNoName, kNoName, kNoName};
    uint8_t armed[4] = {0, 0, 0, 0};  // CLOCK reference bits (owner-only)
    uint8_t hand = 0;
    BatchLookup values[4];  // owner-only: the invalidator never touches values
  };

 public:
  static constexpr size_t kWays = 4;
  static_assert(sizeof(Set::keys) / sizeof(Set::keys[0]) == kWays);

  struct Stats {
    uint64_t lookups = 0;
    uint64_t hits = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
  };

  // A resolved set position: Begin() hashes the key once and prefetches the
  // set's line, then Get and Put reuse the handle instead of recomputing the
  // tag — the recompute was a measurable slice of the hit path, and issuing
  // Begin a query early hides the set's cache miss behind the previous
  // query's walk.
  class Handle {
   public:
    Handle() = default;

   private:
    friend class ResultCache;
    explicit Handle(Set* set) : set_(set) {}
    Set* set_ = nullptr;
  };

  // `entries` is the requested capacity; it is rounded up to a whole power-of-two
  // number of sets (so the real capacity is the next multiple of kWays whose set
  // count is a power of two).  0 disables the cache entirely.
  explicit ResultCache(size_t entries) {
    if (entries == 0) {
      return;
    }
    size_t sets = 1;
    while (sets * kWays < entries) {
      sets *= 2;
    }
    sets_ = std::vector<Set>(sets);  // atomics: construct in place, never move
    set_mask_ = sets - 1;
  }

  bool enabled() const { return !sets_.empty(); }
  size_t capacity() const { return sets_.size() * kWays; }
  const Stats& stats() const { return stats_; }

  // Locates `key`'s set once and prefetches its line.  Issue as early as the key
  // is known — ideally a query ahead — then hand the handle to Get and Put.
  Handle Begin(NameId key) {
    Set* set = &sets_[SetOf(key)];
    __builtin_prefetch(set);
    return Handle(set);
  }

  // True and fills `out` if `key` is cached; arms the way's CLOCK reference bit.
  bool Get(NameId key, BatchLookup* out) { return Get(Begin(key), key, out); }

  // Handle form: no tag recompute — `handle` must come from Begin(key).
  bool Get(Handle handle, NameId key, BatchLookup* out) {
    ++stats_.lookups;
    Set& set = *handle.set_;
    for (size_t way = 0; way < kWays; ++way) {
      // memory_order: relaxed — keys are revocation flags, not publication: the
      // value bytes a match licenses us to read are owner-written (this thread),
      // so no acquire is needed to see them; a racing invalidation is allowed
      // to miss a lookup already past this check (documented best-effort).
      if (set.keys[way].load(std::memory_order_relaxed) == key) {
        set.armed[way] = 1;
        // Safe even if an invalidation lands between the key check and this copy:
        // only the owner thread (us) ever writes values, so these are the bytes
        // that were current when the key matched.
        *out = set.values[way];
        ++stats_.hits;
        return true;
      }
    }
    return false;
  }

  // Inserts (or refreshes) `key`.  The caller has just computed `value` with
  // Resolver::LookupInterned, so `value` is THE result for `key` — a duplicate
  // insert simply overwrites with identical bytes.
  void Put(NameId key, const BatchLookup& value) { Put(Begin(key), key, value); }

  // Handle form: no tag recompute — `handle` must come from Begin(key).
  void Put(Handle handle, NameId key, const BatchLookup& value) {
    Set& set = *handle.set_;
    size_t victim = kWays;  // first empty or matching way wins without the hand
    for (size_t way = 0; way < kWays; ++way) {
      // memory_order: relaxed — owner-thread read of its own slots; the only
      // concurrent writer (an invalidator) can only flip keys to kNoName, and
      // either side of that race picks a valid victim.
      NameId current = set.keys[way].load(std::memory_order_relaxed);
      if (current == key || current == kNoName) {
        victim = way;
        break;
      }
    }
    if (victim == kWays) {
      // CLOCK: march the hand, disarming armed ways, until an unarmed way turns up.
      // Bounded: after at most kWays steps every way is disarmed.
      for (;;) {
        size_t way = set.hand;
        set.hand = (set.hand + 1) % kWays;
        if (set.armed[way] == 0) {
          victim = way;
          break;
        }
        set.armed[way] = 0;
      }
      ++stats_.evictions;
    }
    // Value before key: a concurrent invalidator matching the OLD key must never
    // expose the new value under it, and publishing the new key only after the
    // bytes are in place keeps key↔value pairing coherent for our own next Get.
    // memory_order: relaxed — no cross-thread publication happens through these
    // stores: values are only ever read by this owner thread (program order
    // suffices), and the invalidator reads keys alone, never values.
    set.keys[victim].store(kNoName, std::memory_order_relaxed);
    set.values[victim] = value;
    set.keys[victim].store(key, std::memory_order_relaxed);
    set.armed[victim] = 1;
    ++stats_.insertions;
  }

  // Revokes `keys` (sorted or not, duplicates fine).  The only entry point that may
  // run concurrently with the owner thread's Get/Put: it writes nothing but key
  // slots, flipping matches to kNoName.  Lookups already past their key check keep
  // the stale result (documented in-flight semantics); later lookups miss and
  // recompute against the fresh routes.
  void Invalidate(std::span<const NameId> keys) {
    if (sets_.empty()) {
      return;
    }
    for (NameId key : keys) {
      Set& set = sets_[SetOf(key)];
      for (size_t way = 0; way < kWays; ++way) {
        // memory_order: relaxed — best-effort revocation by contract: the
        // invalidator touches keys only, the hard cut (no batch in flight) is
        // provided by AdoptRoutes' sequencing, not by these operations.
        if (set.keys[way].load(std::memory_order_relaxed) == key) {
          set.keys[way].store(kNoName, std::memory_order_relaxed);
        }
      }
    }
  }

  // Full-scan form of Invalidate: revokes every entry whose KEY the predicate
  // condemns.  Same concurrency contract as Invalidate (keys only, values never
  // read), so an updater thread may run it mid-batch best-effort.  This is what a
  // route update actually needs: a cached result for destination `id` depends on
  // id's whole domain-suffix chain, not just on id — the predicate gets the key
  // and decides with the interner's chain in hand (see AdoptRoutes).
  template <typename Predicate>
  void InvalidateKeysWhere(Predicate&& condemned) {
    for (Set& set : sets_) {
      for (size_t way = 0; way < kWays; ++way) {
        // memory_order: relaxed — same best-effort revocation contract as
        // Invalidate: keys only, hard cut supplied by the caller's sequencing.
        NameId key = set.keys[way].load(std::memory_order_relaxed);
        if (key != kNoName && condemned(key)) {
          set.keys[way].store(kNoName, std::memory_order_relaxed);
        }
      }
    }
  }

  // OWNER-THREAD-ONLY (no batch in flight): visits every live entry with mutable
  // access to its value; a false return revokes the entry.  This is the adoption
  // hook — after a route-source swap the engine re-homes each surviving value's
  // views onto the fresh source's storage so nothing in the cache references the
  // old mapping, which is what lets the old mapping actually be unmapped once
  // in-flight batches drain (AdoptRoutes + batches_completed()).
  template <typename Visitor>
  void VisitEntries(Visitor&& visit) {
    for (Set& set : sets_) {
      for (size_t way = 0; way < kWays; ++way) {
        // memory_order: relaxed — owner-thread-only entry point (contract
        // above): there is no concurrent access at all during a visit.
        NameId key = set.keys[way].load(std::memory_order_relaxed);
        if (key == kNoName) {
          continue;
        }
        if (!visit(key, &set.values[way])) {
          // memory_order: relaxed — same owner-thread-only contract as the
          // load above; revocation needs no ordering when nothing races.
          set.keys[way].store(kNoName, std::memory_order_relaxed);
        }
      }
    }
  }

  void Clear() {
    for (Set& set : sets_) {
      for (size_t way = 0; way < kWays; ++way) {
        // memory_order: relaxed — owner-thread flush between batches; nothing
        // concurrent reads these slots while Clear runs.
        set.keys[way].store(kNoName, std::memory_order_relaxed);
        set.armed[way] = 0;
      }
      set.hand = 0;
    }
  }

 private:
  size_t SetOf(NameId key) const {
    // Fibonacci scramble: NameIds are dense and small, so without mixing every hot id
    // would land in the first few sets.
    return (static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ull >> 32) & set_mask_;
  }

  std::vector<Set> sets_;
  size_t set_mask_ = 0;
  Stats stats_;
};

}  // namespace exec
}  // namespace pathalias

#endif  // SRC_EXEC_RESULT_CACHE_H_
