#include "src/exec/resolver.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "src/core/route_printer.h"

namespace pathalias {
namespace {

// Joins path[first..] and the user into a relative bang path.
std::string TailArgument(const std::vector<std::string>& path, size_t first,
                         const std::string& user) {
  std::string out;
  for (size_t i = first; i < path.size(); ++i) {
    out += path[i];
    out += '!';
  }
  out += user;
  return out;
}

}  // namespace

BatchLookup Resolver::LookupInterned(NameId id) const {
  // The query is a known name: the exact probe and the entire domain-suffix walk
  // (caip.rutgers.edu → .rutgers.edu → .edu) are integer chases from here on.
  BatchLookup out;
  if (RouteView route = routes_->FindRouteView(id)) {
    out.route = route;
    out.via = id;
    return out;
  }
  const NameInterner& names = routes_->names();
  for (NameId suffix = names.Suffix(id); suffix != kNoName; suffix = names.Suffix(suffix)) {
    if (RouteView route = routes_->FindRouteView(suffix)) {
      out.route = route;
      out.via = suffix;
      // The interner never holds two ids with equal bytes, so a hit through the chain
      // is a proper domain-suffix match — no string compare needed.
      out.suffix_match = true;
      return out;
    }
  }
  return out;
}

BatchLookup Resolver::LookupStranger(std::string_view host) const {
  // A stranger: probe its dotted suffixes until one is interned.  Interning any dotted
  // name interns its whole chain, so the first hit's chain covers every shorter suffix.
  BatchLookup out;
  const NameInterner& names = routes_->names();
  size_t dot = host.find('.', 1);
  while (dot != std::string_view::npos) {
    NameId suffix = names.Find(host.substr(dot));  // includes the leading '.'
    if (suffix != kNoName) {
      for (; suffix != kNoName; suffix = names.Suffix(suffix)) {
        if (RouteView route = routes_->FindRouteView(suffix)) {
          out.route = route;
          out.via = suffix;
          out.suffix_match = true;  // the host itself is not in the database
          return out;
        }
      }
      return out;
    }
    dot = host.find('.', dot + 1);
  }
  return out;
}

BatchLookup Resolver::LookupOne(std::string_view host) const {
  NameId id = routes_->names().Find(host);
  return id != kNoName ? LookupInterned(id) : LookupStranger(host);
}

RouteView Resolver::Lookup(std::string_view host, std::string_view* matched_key) const {
  BatchLookup result = LookupOne(host);
  if (result.route.ok()) {
    *matched_key = routes_->names().View(result.via);
  }
  return result.route;
}

size_t Resolver::ResolveBatch(std::span<const std::string_view> hosts,
                              std::span<BatchLookup> results) const {
  return ResolveBatchPipelined(hosts, results, kDefaultPipelineWindow);
}

// Per-call probe counters, compiled to nothing outside PATHALIAS_PROBE_STATS builds
// so the pipeline's hot loop carries zero counter writes in release.
#ifdef PATHALIAS_PROBE_STATS
#define PATHALIAS_PROBE_COUNT(stats, field) \
  do {                                      \
    if ((stats) != nullptr) {               \
      ++(stats)->field;                     \
    }                                       \
  } while (0)
#else
#define PATHALIAS_PROBE_COUNT(stats, field) ((void)0)
#endif

size_t Resolver::ResolveBatchPipelined(std::span<const std::string_view> hosts,
                                       std::span<BatchLookup> results, size_t window,
                                       ResolvePipelineStats* stats) const {
  if (stats != nullptr) {
    *stats = ResolvePipelineStats{};
  }
  size_t count = std::min(hosts.size(), results.size());
  const NameInterner& names = routes_->names();
  if (!names.can_probe()) {
    // ImageView::Adopt rejects a named image whose table is too small to probe,
    // so this is an image with no names: every query misses.
    std::fill_n(results.begin(), count, BatchLookup{});
    return 0;
  }
  window = std::clamp<size_t>(window, 1, kMaxPipelineWindow);

  // Batch-local suffix memo.  From the first dotted suffix a stranger tries,
  // its outcome is a pure function of the suffix bytes (probe it; if interned,
  // chase that chain; else try the next dot — no other query state enters), so
  // one batch resolving "a.cs.foo.edu", "b.cs.foo.edu", ... pays the suffix
  // probe and chain walk once and copies the retired result thereafter.  Real
  // mailer batches are exactly this shape: many strangers under few domains.
  // The memo is local to one call (the table cannot change mid-batch, and views
  // into `hosts` stay alive), keyed on raw query bytes (equal bytes imply equal
  // outcome whether or not the interner folds case), and consulted only where
  // the scalar path would begin a suffix probe — so results stay byte-identical
  // to the one-query-at-a-time LookupOne loop, only cheaper.  Skipped for small batches, where
  // zeroing the table would cost more than the repeats it could catch.
  struct SuffixMemoEntry {
    const char* ptr = nullptr;  // null: empty slot
    uint32_t len = 0;
    uint64_t hash = 0;
    BatchLookup out;
  };
  constexpr size_t kSuffixMemoBits = 9;
  constexpr size_t kSuffixMemoMinBatch = 64;
  std::vector<SuffixMemoEntry> memo;
  if (count >= kSuffixMemoMinBatch) {
    memo.resize(size_t{1} << kSuffixMemoBits);
  }
  // The memo's own hash, deliberately NOT the interner's: the paper's shift/XOR
  // hash folds one byte per step (a serial dependency chain), while the memo —
  // hit almost always in steady state — only needs any well-mixed function of
  // the raw bytes.  Word-wide chunks cost ~2 multiplies per suffix, and the
  // interner hash is then computed only on a memo miss, right where the probe
  // needs it.  Raw (unfolded) bytes keep hash, key compare and outcome
  // consistent with each other whether or not the interner folds case.
  auto memo_hash_of = [](std::string_view s) {
    uint64_t h = 0x9E3779B97F4A7C15ull ^ (s.size() * 0xA24BAED4963EE407ull);
    const char* p = s.data();
    size_t n = s.size();
    for (; n >= 8; p += 8, n -= 8) {
      uint64_t w;
      std::memcpy(&w, p, 8);
      h = (h ^ w) * 0x9FB21C651E98DF25ull;
      h ^= h >> 29;
    }
    if (n > 0) {
      uint64_t w = 0;
      std::memcpy(&w, p, n);
      h = (h ^ w) * 0x9FB21C651E98DF25ull;
      h ^= h >> 29;
    }
    return h;
  };
  auto memo_index = [](uint64_t hash) {
    return static_cast<size_t>(hash >> (64 - kSuffixMemoBits));
  };

  // A rolling window of lookups in flight as parallel lane arrays: each round,
  // every pass below is one tight homogeneous loop over a list of lane indices,
  // doing one stage of every in-flight lookup before any lookup does its next.
  // That shape is the whole trick.  A lookup's own miss chain (probe slot →
  // entry → name bytes → by-name index → route record) is inherently serial,
  // but across lanes the fetches are independent — so every line a pass reads
  // was prefetched one full round (a window of other lookups' stage steps)
  // earlier, and hashing runs in batched passes whose independent per-byte
  // chains overlap in the core where the one-at-a-time loop's serial chain
  // cannot.  Lookups that retire free their lane; the launch pass refills freed
  // lanes at the top of every round, so occupancy — the memory-level
  // parallelism — stays at `window` until the batch drains.  A lookup needing
  // more probes (stranger suffix, hash/byte reject) spills its continuation
  // into the next round's probe list instead of stalling the others.
  std::string_view host[kMaxPipelineWindow];  // the full query
  std::string_view text[kMaxPipelineWindow];  // current probe text (host or suffix)
  NameInterner::ProbeCursor cur[kMaxPipelineWindow];
  NameId walk[kMaxPipelineWindow];      // current position on the suffix chain
  NameId host_id[kMaxPipelineWindow];   // exact query's id (kNoName on stranger path)
  uint32_t out_slot[kMaxPipelineWindow];  // results index
  size_t dotpos[kMaxPipelineWindow];    // stranger: offset of the suffix being probed
  bool stranger[kMaxPipelineWindow];
  // First suffix this stranger tried (empty until then) + its hash: the memo key
  // its retired outcome is recorded under.
  std::string_view memo_key[kMaxPipelineWindow];
  uint64_t memo_hash[kMaxPipelineWindow];

  // Records a retiring stranger's outcome under its first-suffix key.  Shorter
  // suffixes it went on to try share the same outcome by construction (a suffix
  // only advances after the longer one failed), so the first key subsumes them.
  auto memo_insert = [&](uint32_t j, const BatchLookup& out) {
    if (memo.empty() || memo_key[j].empty()) {
      return;
    }
    SuffixMemoEntry& entry = memo[memo_index(memo_hash[j])];
    entry.ptr = memo_key[j].data();
    entry.len = static_cast<uint32_t>(memo_key[j].size());
    entry.hash = memo_hash[j];
    entry.out = out;
  };
  // Per-stage lane lists; `probe`, `walk` and `ready` are double-buffered
  // across rounds, the others live within one round.
  uint32_t probe_list[2][kMaxPipelineWindow], walk_list[2][kMaxPipelineWindow];
  uint32_t ready_list[2][kMaxPipelineWindow];
  uint32_t rehash_list[kMaxPipelineWindow];
  uint32_t free_stack[kMaxPipelineWindow];

  size_t resolved = 0;
  size_t next = 0;    // next query to launch
  size_t active = 0;  // lookups in flight
  size_t n_free = 0;
  for (uint32_t j = 0; j < window; ++j) {
    free_stack[n_free++] = static_cast<uint32_t>(window - 1 - j);
  }
  int flip = 0;
  size_t n_probe = 0, n_walk = 0, n_ready = 0;

  while (active > 0 || next < count) {
    uint32_t* probe_in = probe_list[flip];
    uint32_t* walk_in = walk_list[flip];
    uint32_t* ready_in = ready_list[flip];
    flip ^= 1;
    uint32_t* probe_out = probe_list[flip];
    uint32_t* walk_out = walk_list[flip];
    uint32_t* ready_out = ready_list[flip];
    size_t n_probe_out = 0, n_walk_out = 0, n_ready_out = 0;

    // Retire pass: these lanes' route records were prefetched a full round ago,
    // by the walk pass that proved HasRoute.
    for (size_t p = 0; p < n_ready; ++p) {
      const uint32_t j = ready_in[p];
      BatchLookup& out = results[out_slot[j]];
      out.route = routes_->FindRouteView(walk[j]);
      out.via = walk[j];
      out.suffix_match = stranger[j] || walk[j] != host_id[j];
      ++resolved;
      memo_insert(j, out);
      free_stack[n_free++] = j;
      --active;
      PATHALIAS_PROBE_COUNT(stats, retired_hits);
    }

    // Launch pass: refill freed lanes — hash the query (adjacent launches'
    // per-byte chains are independent, so they overlap) and prefetch its
    // primary probe slot for next round's probe pass.
    while (n_free > 0 && next < count) {
      const uint32_t j = free_stack[--n_free];
      host[j] = hosts[next];
      text[j] = host[j];
      stranger[j] = false;
      memo_key[j] = {};
      host_id[j] = kNoName;
      out_slot[j] = static_cast<uint32_t>(next);
      cur[j] = names.BeginProbe(names.HashOf(host[j]));
      names.PrefetchSlot(cur[j]);
      probe_out[n_probe_out++] = j;
      ++next;
      ++active;
      PATHALIAS_PROBE_COUNT(stats, lookups);
      PATHALIAS_PROBE_COUNT(stats, name_probes);
    }

    // Walk pass: one chain hop per round.  HasRoute reads the by-name line
    // prefetched when the lane resolved its name (or hopped) last round; a hit
    // prefetches the route record and parks the lane for next round's retire
    // pass; a hop prefetches the next suffix's by-name line and entry (the
    // entry holds the suffix link the NEXT hop chases).  A stranger whose first
    // interned suffix's chain drains retires a miss — shorter dotted suffixes
    // are covered by this chain, never re-probed (LookupStranger's rule).
    for (size_t p = 0; p < n_walk; ++p) {
      const uint32_t j = walk_in[p];
      PATHALIAS_PROBE_COUNT(stats, route_checks);
      if (routes_->HasRoute(walk[j])) {
        routes_->PrefetchRoute(walk[j]);
        ready_out[n_ready_out++] = j;
      } else {
        NameId suffix = names.Suffix(walk[j]);
        if (suffix == kNoName) {
          results[out_slot[j]] = BatchLookup{};
          memo_insert(j, BatchLookup{});
          free_stack[n_free++] = j;
          --active;
          PATHALIAS_PROBE_COUNT(stats, retired_misses);
        } else {
          walk[j] = suffix;
          routes_->PrefetchFind(suffix);
          names.PrefetchEntry(suffix);
          walk_out[n_walk_out++] = j;
          PATHALIAS_PROBE_COUNT(stats, chain_steps);
        }
      }
    }

    // Probe pass: each lane inspects exactly the one slot its prefetch covers
    // (issued last round, or by this round's launch pass) and spills whatever
    // comes next — another slot, a suffix re-probe, a chain hop — back into
    // the window with a prefetch, so no lane ever reads a line it did not
    // prefetch a round earlier.  The verify work that needs no further slot —
    // the 64-bit hash filter, the byte compare, the first HasRoute check —
    // runs inline: the candidate's entry line arrives with the slot's
    // neighborhood on a resident table, and inlining folds the overwhelmingly
    // common one-probe hit into a single pass.  Predicates and their order are
    // exactly the scalar probe's (the hash filter is a pure narrowing of the
    // byte compare), so a reject resumes the probe at the same slot ProbeFor
    // would.
    size_t n_rehash = 0;
    for (size_t p = 0; p < n_probe; ++p) {
      const uint32_t j = probe_in[p];
      NameId candidate = kNoName;
      NameInterner::ProbeOutcome outcome;
      // Collisions and rejected candidates re-probe inline, exactly as the
      // scalar loop does: measured at every map scale, re-reading the next
      // slot immediately beats spilling it to the next round — probe
      // sequences are short (αH = 0.79 worst case) and the spill's extra
      // list traffic costs more than the unprefetched read.
      for (;;) {
        outcome = names.ProbeStep(&cur[j], &candidate);
        if (outcome == NameInterner::ProbeOutcome::kCollision) {
          PATHALIAS_PROBE_COUNT(stats, slot_collisions);
          continue;
        }
        if (outcome == NameInterner::ProbeOutcome::kCandidate &&
            (!names.CandidateHashMatches(candidate, cur[j].hash) ||
             !names.CandidateEquals(candidate, text[j]))) {
          PATHALIAS_PROBE_COUNT(stats, candidate_rejects);
          continue;
        }
        break;
      }
      if (outcome == NameInterner::ProbeOutcome::kCandidate) {
        // The probe text is interned: start its walk.  The immediate route
        // check folds the overwhelmingly common first hop into this pass;
        // chain hops (suffix fallbacks) stay windowed in the walk pass.
        if (!stranger[j]) {
          host_id[j] = candidate;
        }
        walk[j] = candidate;
        PATHALIAS_PROBE_COUNT(stats, route_checks);
        if (routes_->HasRoute(candidate)) {
          routes_->PrefetchRoute(candidate);
          ready_out[n_ready_out++] = j;
        } else {
          NameId suffix = names.Suffix(candidate);
          if (suffix == kNoName) {
            results[out_slot[j]] = BatchLookup{};
            memo_insert(j, BatchLookup{});
            free_stack[n_free++] = j;
            --active;
            PATHALIAS_PROBE_COUNT(stats, retired_misses);
          } else {
            walk[j] = suffix;
            routes_->PrefetchFind(suffix);
            names.PrefetchEntry(suffix);
            walk_out[n_walk_out++] = j;
            PATHALIAS_PROBE_COUNT(stats, chain_steps);
          }
        }
      } else {
        // Empty slot: the probe text is not interned.  Spill the stranger
        // continuation — the next dotted suffix — or retire a miss when the
        // dots run out.  A leading dot is never a suffix of itself:
        // find('.', 1), matching LookupStranger.
        size_t from = stranger[j] ? dotpos[j] + 1 : 1;
        size_t dot = host[j].find('.', from);
        if (dot == std::string_view::npos) {
          results[out_slot[j]] = BatchLookup{};
          memo_insert(j, BatchLookup{});
          free_stack[n_free++] = j;
          --active;
          PATHALIAS_PROBE_COUNT(stats, retired_misses);
        } else {
          stranger[j] = true;
          dotpos[j] = dot;
          text[j] = host[j].substr(dot);  // includes the leading '.'
          rehash_list[n_rehash++] = j;
        }
      }
    }

    // Rehash pass: hash the spilled suffixes together, not one by one inside
    // the probe pass — like the launch pass, back-to-back independent hash
    // chains overlap where a hash wedged between two probes cannot.  The
    // suffix bytes are the tail of a string this lane already hashed, so the
    // only new fetch is each continuation's probe slot.
    for (size_t p = 0; p < n_rehash; ++p) {
      const uint32_t j = rehash_list[p];
      if (!memo.empty()) {
        const uint64_t hash = memo_hash_of(text[j]);
        if (memo_key[j].empty()) {
          memo_key[j] = text[j];
          memo_hash[j] = hash;
        }
        const SuffixMemoEntry& entry = memo[memo_index(hash)];
        if (entry.ptr != nullptr && entry.hash == hash &&
            std::string_view(entry.ptr, entry.len) == text[j]) {
          // A previous query in this batch already resolved this exact suffix:
          // its retired outcome IS this lane's outcome.  Copy and retire.
          results[out_slot[j]] = entry.out;
          if (entry.out.route.ok()) {
            ++resolved;
            PATHALIAS_PROBE_COUNT(stats, retired_hits);
          } else {
            PATHALIAS_PROBE_COUNT(stats, retired_misses);
          }
          // If this lane's FIRST suffix was a different (longer) one that missed
          // the memo, record it too: its outcome equals this one's by the same
          // only-advances-after-failure argument.
          memo_insert(j, entry.out);
          free_stack[n_free++] = j;
          --active;
          PATHALIAS_PROBE_COUNT(stats, suffix_memo_hits);
          continue;
        }
      }
      cur[j] = names.BeginProbe(names.HashOf(text[j]));
      names.PrefetchSlot(cur[j]);
      probe_out[n_probe_out++] = j;
      PATHALIAS_PROBE_COUNT(stats, name_probes);
      PATHALIAS_PROBE_COUNT(stats, stranger_continuations);
    }

    n_probe = n_probe_out;
    n_walk = n_walk_out;
    n_ready = n_ready_out;
  }
  return resolved;
}

#undef PATHALIAS_PROBE_COUNT

Resolution Resolver::Resolve(std::string_view destination) const {
  Resolution resolution;
  Address address = ParseAddress(destination, options_.parse_style);
  if (address.user.empty() && address.path.empty()) {
    resolution.error = "empty address";
    return resolution;
  }
  if (address.path.empty()) {
    // Local delivery: nothing to route.
    resolution.ok = true;
    resolution.route = address.user;
    resolution.via = "<local>";
    resolution.argument = address.user;
    return resolution;
  }

  size_t target_index = 0;
  if (options_.optimize == ResolveOptions::Optimize::kRightmostKnown &&
      !(options_.preserve_loops && resolver_detail::HasRepeatedHost(address.path))) {
    std::string_view key;
    for (size_t i = address.path.size(); i-- > 0;) {
      if (Lookup(address.path[i], &key).ok()) {
        target_index = i;
        break;
      }
    }
  }

  const std::string& target = address.path[target_index];
  std::string argument =
      TailArgument(address.path, target_index + 1, address.user);

  std::string_view matched;
  RouteView route = Lookup(target, &matched);
  if (!route.ok()) {
    resolution.error = "no route to " + target;
    return resolution;
  }
  if (matched != target) {
    // Domain-suffix match: "The argument here is not pleasant (as it were), it is
    // caip.rutgers.edu!pleasant."
    argument = target + "!" + argument;
  }
  resolution.ok = true;
  resolution.via = std::string(matched);
  resolution.argument = argument;
  resolution.route = RoutePrinter::SpliceUser(route.route, argument);
  return resolution;
}

}  // namespace pathalias

