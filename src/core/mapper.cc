#include "src/core/mapper.h"

#include <algorithm>
#include <climits>
#include <iterator>
#include <optional>
#include <unordered_map>

#include "src/support/binary_heap.h"

namespace pathalias {
namespace {

// Deterministic extraction order: cost, then hop count ("keep paths short"), then name.
// Equal names are equal ids; the string compare only breaks ties between distinct
// names, resolved lazily through the interner.
struct LabelLess {
  const NameInterner* names = nullptr;
  bool prefer_fewer_hops = true;

  bool operator()(const PathLabel* a, const PathLabel* b) const {
    if (a->cost != b->cost) {
      return a->cost < b->cost;
    }
    if (prefer_fewer_hops && a->hops != b->hops) {
      return a->hops < b->hops;
    }
    if (a->node->name != b->node->name) {
      return names->View(a->node->name) < names->View(b->node->name);
    }
    return a->taint < b->taint;
  }
};

struct LabelIndexHook {
  static void SetIndex(PathLabel* label, int32_t index) { label->heap_index = index; }
  static int32_t GetIndex(const PathLabel* label) { return label->heap_index; }
};

// Marks a popped label final.  The first (hence cheapest) label extracted for its
// node reports the node's route.
void Settle(PathLabel* label, uint8_t pass) {
  label->mapped = true;
  label->pass = pass;
  Node* node = label->node;
  if (node->cost == kUnreached) {
    label->best = true;
    node->cost = label->cost;
    node->hops = label->hops;
    node->parent = label->parent != nullptr ? label->parent->node : nullptr;
    node->parent_link = label->via;
  }
}

}  // namespace

struct MapperHeap : BinaryHeap<PathLabel*, LabelLess, LabelIndexHook> {
  using BinaryHeap::BinaryHeap;
};

Mapper::Mapper(Graph* graph, MapOptions options) : graph_(graph), options_(std::move(options)) {}

uint8_t Mapper::TaintAfter(const PathLabel& prev, const Node& to) {
  return (prev.taint != 0 || to.domain()) ? 1 : 0;
}

void Mapper::PropagateSyntax(const PathLabel& prev, const Link& link, PathLabel& to) {
  to.has_left = prev.has_left;
  to.has_right = prev.has_right;
  if (link.alias() || link.net_member()) {
    return;  // no operator is emitted for these at print time
  }
  if (link.right_syntax()) {
    to.has_right = true;
  } else {
    to.has_left = true;
  }
}

Cost Mapper::CostOf(const PathLabel& prev, const Link& link, uint32_t* penalty_bits) const {
  if (penalty_bits != nullptr) {
    *penalty_bits = 0;
  }
  if (link.alias()) {
    return prev.cost;  // "by definition"
  }
  auto charge = [&](Cost& cost, uint32_t bit) {
    cost += kInfinity;
    if (penalty_bits != nullptr) {
      *penalty_bits |= bit;
    }
  };
  const Node& from = *prev.node;
  const Node& to = *link.to;
  Cost cost = prev.cost + link.cost;
  if (!from.local()) {
    cost += from.adjust;  // adjust {host(n)}: bias on every path through the host
  }
  if (link.dead()) {
    charge(cost, kPenaltyDeadLink);
  }
  if (from.terminal() && !from.local()) {
    charge(cost, kPenaltyDeadHost);  // dead hosts may receive but not relay
  }
  if (to.gatewayed() && !link.gateway() && !link.invented()) {
    if (to.domain()) {
      // A declared link into a domain is an implicit gateway [R], except going up the
      // domain tree, and except when explicit gateways were declared for it.
      // Going *up* the domain tree (".rutgers.edu" into ".edu") is an integer walk of
      // the interner's precomputed suffix chain — no byte comparisons.
      if (graph_->names().HasSuffix(from.name, to.name)) {
        charge(cost, kPenaltyUpDomain);
      } else if ((to.flags & kNodeExplicitGateways) != 0) {
        charge(cost, kPenaltyGateway);
      }
    } else {
      charge(cost, kPenaltyGateway);  // gatewayed network entered anywhere but a gateway
    }
  }
  // "once a path enters a domain, pathalias penalizes further links" — the ARPANET may
  // not be used as a relay.  Placeholder expansion (net/domain to member) is exempt.
  if (prev.taint != 0 && !from.placeholder()) {
    charge(cost, kPenaltyDomainRelay);
  }
  if (!link.net_member()) {  // net→member edges inherit syntax; no mixing possible here
    if (!link.right_syntax() && prev.has_right) {
      // a!user@b never delivers by way of b then a under any parse.
      charge(cost, kPenaltySyntax);
    } else if (link.right_syntax() && prev.has_left && options_.penalize_left_then_right) {
      charge(cost, kPenaltySyntax);
    }
  }
  if (cost < prev.cost) {
    cost = prev.cost;  // Dijkstra invariant: negative adjustments cannot shorten a prefix
  }
  return cost;
}

void Mapper::ApplyTraceRequests() {
  for (const std::string& request : options_.trace) {
    size_t bang = request.find('!');
    if (bang == std::string::npos) {
      if (Node* node = graph_->Find(request)) {
        node->flags |= kNodeTraced;
      } else {
        graph_->diag().Warn(SourcePos{}, "trace target " + request + " is not in the map");
      }
      continue;
    }
    Node* from = graph_->Find(request.substr(0, bang));
    Node* to = graph_->Find(request.substr(bang + 1));
    bool found = false;
    if (from != nullptr && to != nullptr) {
      for (Link* link = from->links; link != nullptr; link = link->next) {
        if (link->to == to) {
          link->flags |= kLinkTraced;
          found = true;
        }
      }
    }
    if (!found) {
      graph_->diag().Warn(SourcePos{}, "trace target link " + request + " is not in the map");
    }
  }
}

PathLabel* Mapper::MakeLabel(Node* node, uint8_t taint) {
  PathLabel* label = graph_->arena().New<PathLabel>();
  label->node = node;
  label->seq = static_cast<uint32_t>(result_->labels.size());
  label->taint = taint;
  result_->labels.push_back(label);
  ++result_->label_count;
  return label;
}

void Mapper::Relax(PathLabel& from, Link& link, MapperHeap& heap, Result& result) {
  Node* to = link.to;
  if (to->deleted() || from.node->deleted()) {
    return;
  }
  ++result.relaxations;
  uint32_t penalty_bits = 0;
  Cost cost = CostOf(from, link, &penalty_bits);
  uint32_t penalties = from.penalties | penalty_bits;
  uint8_t taint = TaintAfter(from, *to);
  // Default mode keeps one label per node and lets the taint bit ride along as node
  // state — the 1986 approximation.  Two-label mode separates the states.
  uint8_t slot = options_.two_label ? taint : 0;
  int32_t hops = from.hops + (link.alias() ? 0 : 1);

  PathLabel* label = to->label[slot];
  const char* outcome = nullptr;
  if (label == nullptr) {
    label = MakeLabel(to, taint);
    to->label[slot] = label;
    label->cost = cost;
    label->hops = hops;
    label->parent = &from;
    label->via = &link;
    label->taint = taint;
    label->penalties = penalties;
    PropagateSyntax(from, link, *label);
    heap.Push(label);
    ++result.heap_pushes;
    outcome = "queued";
  } else if (!label->mapped) {
    if (cost < label->cost ||
        (cost == label->cost && options_.prefer_fewer_hops && hops < label->hops)) {
      label->cost = cost;
      label->hops = hops;
      label->parent = &from;
      label->via = &link;
      label->taint = taint;
      label->penalties = penalties;
      PropagateSyntax(from, link, *label);
      heap.DecreaseKey(label);
      outcome = "improved";
    } else {
      outcome = "kept";
    }
  } else {
    outcome = "already mapped";
  }
  if (from.node->traced() || to->traced() || link.traced()) {
    graph_->diag().Note(
        SourcePos{}, "trace: " + std::string(graph_->NameOf(from.node)) + " -> " +
                         std::string(graph_->NameOf(to)) + " cost " + std::to_string(cost) +
                         " (" + outcome + ")");
  }
}

namespace {

// Which of Result's per-node aggregates a node feeds.  CollectFinalStats sums them
// over the graph; Patch keeps each node's bits (PatchIndex::counted) so that it can
// re-sum only the nodes it touched.
enum FeedBit : uint8_t {
  kFeedsUnreachable = 1u << 0,
  kFeedsMapped = 1u << 1,
  kFeedsMixedSyntax = 1u << 2,
  kFeedsSyntaxPenalized = 1u << 3,
  kFeedsPenalized = 1u << 4,
};

uint8_t FeedsOf(const Node* node) {
  if (node->deleted() || node->placeholder()) {
    return 0;
  }
  if (node->cost == kUnreached) {
    return kFeedsUnreachable;
  }
  uint8_t feeds = kFeedsMapped;
  // Settle marks only a node's first label best, so at most one slot contributes.
  for (const PathLabel* label : node->label) {
    if (label == nullptr || !label->best) {
      continue;
    }
    if (label->has_left && label->has_right) {
      feeds |= kFeedsMixedSyntax;
    }
    if ((label->penalties & kPenaltySyntax) != 0) {
      feeds |= kFeedsSyntaxPenalized;
    }
    if (label->penalties != 0) {
      feeds |= kFeedsPenalized;
    }
  }
  return feeds;
}

// Adds one node's share to the aggregates, or takes it back out.  The unreachable
// list is the caller's to keep.
void Tally(Mapper::Result& result, uint8_t feeds, bool remove) {
  auto count = [remove](size_t& counter) { remove ? --counter : ++counter; };
  if ((feeds & kFeedsUnreachable) != 0) {
    count(result.unreachable_hosts);
  }
  if ((feeds & kFeedsMapped) != 0) {
    count(result.mapped_hosts);
  }
  if ((feeds & kFeedsMixedSyntax) != 0) {
    count(result.mixed_syntax_routes);
  }
  if ((feeds & kFeedsSyntaxPenalized) != 0) {
    count(result.syntax_penalized_routes);
  }
  if ((feeds & kFeedsPenalized) != 0) {
    count(result.penalized_routes);
  }
}

}  // namespace

void Mapper::CollectFinalStats(Result& result, std::vector<uint8_t>* counted) const {
  result.mapped_hosts = 0;
  result.unreachable_hosts = 0;
  result.mixed_syntax_routes = 0;
  result.syntax_penalized_routes = 0;
  result.penalized_routes = 0;
  result.unreachable.clear();
  if (counted != nullptr) {
    counted->assign(graph_->node_count(), 0);
  }
  for (Node* node : graph_->nodes()) {
    uint8_t feeds = FeedsOf(node);
    Tally(result, feeds, /*remove=*/false);
    if ((feeds & kFeedsUnreachable) != 0) {
      result.unreachable.push_back(node);
    }
    if (counted != nullptr) {
      (*counted)[node->order] = feeds;
    }
  }
}

size_t Mapper::InventBackLinks(Result& result) {
  size_t invented = 0;
  // Take a snapshot: AddLink would otherwise extend adjacency lists mid-walk.
  std::vector<std::pair<Node*, Link*>> candidates;
  for (Node* node : graph_->nodes()) {
    if (node->deleted() || node->cost != kUnreached || node->placeholder()) {
      continue;
    }
    for (Link* link = node->links; link != nullptr; link = link->next) {
      if (link->alias() || link->dead() || link->to->deleted()) {
        continue;
      }
      if (link->to->cost != kUnreached) {
        candidates.emplace_back(node, link);
      }
    }
  }
  for (auto [node, link] : candidates) {
    Node* neighbor = link->to;
    Link* back = graph_->AddLink(neighbor, node, link->cost, link->op, link->right_syntax(),
                                 SourcePos{}, kLinkInvented);
    if (back != nullptr && back->invented()) {
      ++invented;
    }
  }
  result.invented_links += invented;
  return invented;
}

void Mapper::Drain(MapperHeap& heap, Result& result, std::vector<PathLabel*>* settled) {
  auto pass = static_cast<uint8_t>(std::min<size_t>(result.back_link_passes, UCHAR_MAX));
  while (!heap.empty()) {
    PathLabel* label = heap.PopMin();
    ++result.heap_pops;
    ++result.mapped_labels;
    Settle(label, pass);
    if (settled != nullptr) {
      settled->push_back(label);
    }
    for (Link* link = label->node->links; link != nullptr; link = link->next) {
      Relax(*label, *link, heap, result);
    }
  }
}

Mapper::Result Mapper::Run() {
  Result result;
  result.names = &graph_->names();
  result_ = &result;
  Node* local = graph_->local();
  if (local == nullptr) {
    graph_->diag().Error(SourcePos{}, "no local host set before mapping");
    result_ = nullptr;
    return result;
  }
  for (Node* node : graph_->nodes()) {
    node->label[0] = nullptr;
    node->label[1] = nullptr;
    node->parent = nullptr;
    node->parent_link = nullptr;
    node->cost = kUnreached;
    node->hops = 0;
  }
  ApplyTraceRequests();

  // "since the hash table is no longer needed and is guaranteed to be large enough, we
  // use that space instead of allocating a new array."  The interner's retired probe
  // table plays the original hash table's part.
  size_t max_labels = graph_->node_count() * (options_.two_label ? 2 : 1) + 2;
  PathLabel** storage = nullptr;
  size_t capacity = 0;
  if (options_.reuse_hash_table_storage && !graph_->names().stolen()) {
    auto [ptr, bytes] = graph_->names().StealTable();
    if (bytes / sizeof(PathLabel*) >= max_labels) {
      storage = static_cast<PathLabel**>(ptr);
      capacity = bytes / sizeof(PathLabel*);
    } else {
      if (ptr != nullptr) {
        graph_->arena().Donate(ptr, bytes);
      }
      // two_label needs 2v+2 slots but the table only guarantees ~1.27v.  Retired
      // tables from earlier growths (and oversize-allocation tails) sit on the arena's
      // donation list — steal the largest that fits before giving up on reuse.
      auto [donated, donated_bytes] =
          graph_->arena().TakeDonation(max_labels * sizeof(PathLabel*) + alignof(PathLabel*));
      if (donated != nullptr) {
        auto address = reinterpret_cast<uintptr_t>(donated);
        uintptr_t aligned =
            (address + alignof(PathLabel*) - 1) & ~uintptr_t{alignof(PathLabel*) - 1};
        storage = reinterpret_cast<PathLabel**>(aligned);
        capacity = (donated_bytes - (aligned - address)) / sizeof(PathLabel*);
        result.heap_storage_from_donation = true;
      }
    }
  }
  LabelLess less{&graph_->names(), options_.prefer_fewer_hops};
  std::optional<MapperHeap> heap;
  if (storage != nullptr) {
    heap.emplace(storage, capacity, less);
    result.heap_storage_reused = true;
  } else {
    heap.emplace(less);
  }

  PathLabel* root = MakeLabel(local, local->domain() ? 1 : 0);
  uint8_t root_slot = options_.two_label ? root->taint : 0;
  local->label[root_slot] = root;
  root->cost = 0;
  heap->Push(root);
  ++result.heap_pushes;

  Drain(*heap, result);
  if (options_.back_links) {
    while (result.back_link_passes < static_cast<size_t>(options_.max_back_link_passes)) {
      size_t invented = InventBackLinks(result);
      if (invented == 0) {
        break;
      }
      ++result.back_link_passes;
      // Re-relax the invented links from their (already final) mapped endpoints, then
      // resume the normal extraction loop.
      for (Node* node : graph_->nodes()) {
        for (uint8_t slot = 0; slot < 2; ++slot) {
          PathLabel* label = node->label[slot];
          if (label == nullptr || !label->mapped) {
            continue;
          }
          for (Link* link = node->links; link != nullptr; link = link->next) {
            if (link->invented()) {
              Relax(*label, *link, *heap, result);
            }
          }
        }
      }
      Drain(*heap, result);
    }
  }

  CollectFinalStats(result);
  if (result.heap_storage_from_donation && storage != nullptr) {
    // The heap has drained; recycle the borrowed region for later arena requests.
    graph_->arena().Donate(storage, capacity * sizeof(PathLabel*));
  }
  result_ = nullptr;
  return result;
}

// --- incremental patching ------------------------------------------------------

struct Mapper::PatchState {
  // Per node, by node->order: kDirty once its route may have changed (phase 1 also
  // recomputes its label), kListed once phase 2 has listed it as unreached, kSource
  // while a seeding round has it queued, kTouched once the closing bookkeeping has it.
  static constexpr uint8_t kDirty = 1;
  static constexpr uint8_t kListed = 2;
  static constexpr uint8_t kSource = 4;
  static constexpr uint8_t kTouched = 8;
  std::vector<uint8_t> marks;
  std::vector<Node*> dirty_nodes;
  std::vector<PathLabel*> stack;     // DirtySubtree scratch
  std::vector<PathLabel*> children;  // DirtySubtree scratch
  // Seeds' old labels whose tree link the edit removed, by old parent: DirtySubtree
  // cannot find them through the parent's out-links any more.
  std::unordered_map<const PathLabel*, std::vector<PathLabel*>> unlinked_children;
  bool reopened = false;
  // First refusal the drain hit, if any: a tie whose full-run winner depends on
  // alias-warped pop order, or a late arrival that invalidates an already-drained
  // label (see Patch's header comment).  Non-null means the patch must refuse.
  const char* refusal = nullptr;

  void Refuse(const char* reason) {
    if (refusal == nullptr) {
      refusal = reason;
    }
  }

  bool IsDirty(const Node* node) const {
    return static_cast<size_t>(node->order) < marks.size() && (marks[node->order] & kDirty) != 0;
  }
  void MarkDirty(Node* node) {
    marks[node->order] |= kDirty;
    dirty_nodes.push_back(node);
  }
  // True the first time it is called for `node` (per mark bit).
  bool Mark(const Node* node, uint8_t bit) {
    bool first = (marks[node->order] & bit) == 0;
    marks[node->order] |= bit;
    return first;
  }
};

namespace {

void ResetMappingState(Node* node) {
  node->label[0] = nullptr;
  node->label[1] = nullptr;
  node->parent = nullptr;
  node->parent_link = nullptr;
  node->cost = kUnreached;
  node->hops = 0;
}

}  // namespace

void Mapper::DirtySubtree(Node* node, PatchState& state) {
  if (state.IsDirty(node)) {
    return;
  }
  PathLabel* label = node->label[0];
  state.MarkDirty(node);
  ResetMappingState(node);
  if (label == nullptr) {
    return;
  }
  state.stack.clear();
  state.stack.push_back(label);
  while (!state.stack.empty()) {
    PathLabel* current = state.stack.back();
    state.stack.pop_back();
    // The first drain's tree children of `current`: every label whose tree link is
    // one of its node's out-links, plus the ones whose tree link the edit removed.
    // They are visited in descending seq (Result::labels order, reversed), so the
    // dirty list, and with it the order new route names enter the route set, is a
    // function of the mapping alone.
    std::vector<PathLabel*>& children = state.children;
    children.clear();
    for (Link* link = current->node->links; link != nullptr; link = link->next) {
      PathLabel* child = link->to->label[0];
      if (child != nullptr && child->parent == current && child->via == link &&
          child->mapped && child->pass == 0) {
        children.push_back(child);
      }
    }
    if (auto it = state.unlinked_children.find(current); it != state.unlinked_children.end()) {
      children.insert(children.end(), it->second.begin(), it->second.end());
    }
    std::sort(children.begin(), children.end(),
              [](const PathLabel* a, const PathLabel* b) { return a->seq > b->seq; });
    for (PathLabel* child : children) {
      Node* child_node = child->node;
      if (state.IsDirty(child_node)) {
        continue;  // its subtree was reset when it was
      }
      state.MarkDirty(child_node);
      ResetMappingState(child_node);
      state.stack.push_back(child);
    }
  }
}

void Mapper::PatchRelax(PathLabel& from, Link& link, MapperHeap& heap, Result& result,
                        PatchState& state) {
  Node* to = link.to;
  if (to->deleted() || from.node->deleted() || link.invented()) {
    return;  // phase 1 maps over declared links only; phase 2 owns the invented ones
  }
  ++result.relaxations;
  uint32_t penalty_bits = 0;
  Cost cost = CostOf(from, link, &penalty_bits);
  uint32_t penalties = from.penalties | penalty_bits;
  uint8_t taint = TaintAfter(from, *to);
  int32_t hops = from.hops + (link.alias() ? 0 : 1);
  LabelLess less{&graph_->names(), options_.prefer_fewer_hops};

  auto apply = [&](PathLabel* label) {
    label->cost = cost;
    label->hops = hops;
    label->parent = &from;
    label->via = &link;
    label->taint = taint;
    label->penalties = penalties;
    PropagateSyntax(from, link, *label);
  };

  PathLabel* label = to->label[0];
  if (label == nullptr) {
    // First candidate: either a dirty node being recomputed or a previously
    // unreachable placeholder the edits just made reachable — either way it is now
    // part of the patched region (its route may appear).
    if (!state.IsDirty(to)) {
      state.MarkDirty(to);
    }
    label = MakeLabel(to, taint);
    to->label[0] = label;
    apply(label);
    heap.Push(label);
    ++result.heap_pushes;
    return;
  }

  bool better = cost < label->cost ||
                (cost == label->cost && options_.prefer_fewer_hops && hops < label->hops);
  bool equal = cost == label->cost && (!options_.prefer_fewer_hops || hops == label->hops);

  // Full-run winner of an equal-(cost, hops) tie between the existing label's parent
  // and this candidate's (distinct) parent: +1 the candidate, -1 the existing label,
  // 0 undecidable locally (alias-warped pop order; the patch must refuse).  See the
  // header's tie-break proof: parents at different (cost, hops) popped in that
  // order; parents at equal (cost, hops) popped in LabelLess order unless either
  // reached its value over an alias edge (then its pop slot depends on when the
  // alias source popped, which the retained labels do not record).
  auto tie_outcome = [&]() -> int {
    const PathLabel* existing = label->parent;
    if (existing == nullptr) {
      return -1;  // the root label: nothing re-parents it
    }
    // A cycle echo: the candidate parent is this label's own tree child (alias
    // pairs and chains bounce every relaxation straight back).  The child popped
    // after this label did — parenthood fixes pop order — so in the full run its
    // arrival came after the label was final and changed nothing.
    if (from.parent == label) {
      return -1;
    }
    // Parents at different (cost, hops) popped in that order no matter how either
    // was reached — extraction is monotone in (cost, hops) even over alias edges —
    // so the earlier key arrived first and won.  (This also settles alias-cycle
    // echoes: the alias child relaxing back into its parent loses to the parent's
    // strictly earlier original parent.)
    if (existing->cost != from.cost || existing->hops != from.hops) {
      bool candidate_first =
          from.cost < existing->cost ||
          (from.cost == existing->cost && from.hops < existing->hops);
      return candidate_first ? +1 : -1;
    }
    // Parents tie in (cost, hops).  Equal-key pop order is LabelLess order only for
    // labels created before their plateau began draining; an alias edge anywhere in
    // the tie — the arrival edges (equal parent keys force both to be alias edges
    // if either is), or a parent that reached its own value over one — makes the
    // winner depend on flood order the retained labels do not record.
    if (link.alias() || (label->via != nullptr && label->via->alias())) {
      return 0;
    }
    if ((existing->via != nullptr && existing->via->alias()) ||
        (from.via != nullptr && from.via->alias())) {
      return 0;
    }
    return less(&from, existing) ? +1 : -1;
  };

  if (!label->mapped) {
    // Queued (dirty) label.  Unlike Run's first-wins rule, ties resolve by comparing
    // parent labels: relaxation order inside the patch differs from a full run, so
    // the winner must be decided by the graph, not by arrival.  A same-parent
    // candidate refreshes in place: the parent was reopened at unchanged
    // (cost, hops) and its final state must propagate over the stale one.
    if (better) {
      apply(label);
      heap.DecreaseKey(label);
    } else if (equal && label->parent != nullptr) {
      if (label->parent->node == from.node) {
        apply(label);  // (cost, hops) unchanged: the heap position stays valid
      } else {
        switch (tie_outcome()) {
          case +1:
            apply(label);
            break;
          case 0:
            state.Refuse("ambiguous alias tie in the dirty region");
            break;
          default:
            break;
        }
      }
    }
    return;
  }

  if (state.IsDirty(to)) {
    // Drained within this patch.  Mid-drain arrivals were all weighed before the
    // pop (a non-alias candidate's parent pops strictly earlier; alias echoes lose
    // on parent keys), but a node that entered the dirty region mid-drain (a
    // reopened subtree) meets its boundary parents only at the NEXT seeding round —
    // possibly after it popped.  A late equal arrival whose parent the full run
    // provably elected (+1), or whose tie is alias-warped (0), means the drained
    // label kept the wrong parent: refuse.  (-1 is the normal case: the existing
    // parent won.)  A late better arrival is impossible — reopens only improve the
    // region, so every boundary candidate was ≥ the old (hence the new) optimum —
    // but it would be a silent mis-patch, so it refuses defensively too.
    if (better) {
      state.Refuse("late arrival into a reopened region");
    } else if (equal && label->parent != nullptr && label->parent->node != from.node) {
      switch (tie_outcome()) {
        case +1:
          state.Refuse("late arrival into a reopened region");
          break;
        case 0:
          state.Refuse("ambiguous alias tie in the dirty region");
          break;
        default:
          break;
      }
    }
    return;
  }
  // A clean, mapped label the edits now beat (or tie with a parent the full run
  // elects): the full rebuild would have routed it differently.  Reopen it — its old
  // subtree's route strings embed its old route, so the whole subtree re-enters the
  // dirty region — and requeue it under the new candidate.  The outer loop reseeds
  // the new region's boundary before the next drain.
  bool tie_win = false;
  if (!better && equal && label->parent != nullptr && label->parent->node != from.node) {
    switch (tie_outcome()) {
      case +1:
        tie_win = true;
        break;
      case 0:
        state.Refuse("ambiguous alias tie in the dirty region");
        return;
      default:
        break;
    }
  }
  if (!better && !tie_win) {
    return;
  }
  DirtySubtree(to, state);
  PathLabel* fresh = MakeLabel(to, taint);
  to->label[0] = fresh;
  apply(fresh);
  heap.Push(fresh);
  ++result.heap_pushes;
  state.reopened = true;
}

std::optional<std::vector<Node*>> Mapper::Patch(Result& result,
                                                std::span<Node* const> dirty_seeds,
                                                std::string* why) {
  auto refuse = [this, why](const char* reason) -> std::nullopt_t {
    result_ = nullptr;
    if (why != nullptr) {
      *why = reason;
    }
    return std::nullopt;
  };
  // --- gates (see header) ---
  if (options_.two_label || !options_.trace.empty() || !options_.prefer_fewer_hops) {
    return refuse("non-default mapping options");
  }
  Node* local = graph_->local();
  if (local == nullptr || local->deleted()) {
    return refuse("no live local host");
  }
  if (result.names != &graph_->names()) {
    return refuse("retained result belongs to another graph");
  }
  if (result.back_link_passes > 1) {
    return refuse("previous run used more than one back-link pass");
  }
  for (Node* seed : dirty_seeds) {
    if (seed == local) {
      return refuse("local host is a dirty seed");
    }
  }

  result_ = &result;
  PatchState state;
  state.marks.assign(graph_->node_count(), 0);
  graph_->TrackInLinks();
  const size_t old_label_count = result.labels.size();
  const size_t old_mapped_labels = result.mapped_labels;

  // The labels a back-link pass settled stay out of phase 1 and are cleared
  // instead: phase 2 recomputes every one of them, and phase 1 must see what a fresh
  // Run's first drain sees, which never reaches them.
  std::vector<const PathLabel*> old_back;  // in label order, for determinism
  if (result.patch_index.has_value()) {
    old_back.assign(result.patch_index->back_linked.begin(),
                    result.patch_index->back_linked.end());
  } else {
    for (const PathLabel* label : result.labels) {
      if (label->mapped && label->pass > 0) {
        old_back.push_back(label);
      }
    }
  }
  std::unordered_map<const Node*, const PathLabel*> old_back_of;
  for (const PathLabel* label : old_back) {
    old_back_of.emplace(label->node, label);
    ResetMappingState(label->node);
  }

  // A seed whose tree link was removed is off its old parent's out-links; note it
  // under that parent so the parent's subtree walk still meets it (the contract
  // makes every such node a seed: it lost an in-link).
  for (Node* seed : dirty_seeds) {
    PathLabel* label = seed->label[0];
    if (label == nullptr || !label->mapped || label->pass > 0 || label->parent == nullptr) {
      continue;
    }
    bool linked = false;
    for (Link* link = label->parent->node->links; link != nullptr && !linked; link = link->next) {
      linked = link == label->via;
    }
    if (!linked) {
      state.unlinked_children[label->parent].push_back(label);
    }
  }

  for (Node* seed : dirty_seeds) {
    DirtySubtree(seed, state);
  }

  LabelLess less{&graph_->names(), options_.prefer_fewer_hops};
  MapperHeap heap(less);

  // --- phase 1: the first drain, over declared links ---
  //
  // Alternate boundary seeding and draining until no drain reopens clean territory.
  // Seeding relaxes every final label across the boundary into the dirty region;
  // the drain is Run's extraction loop with the patch relaxation rule.  Re-relaxing
  // an already-drained dirty target is a no-op (mapped, final), so the rescans stay
  // idempotent.  The seeding sources are the nodes with a link into the region,
  // taken from the graph's in-link index and visited in node order, so the order of
  // relaxations does not depend on how the index happens to hold them.
  std::vector<Node*> sources;
  do {
    sources.clear();
    for (Node* dirty : state.dirty_nodes) {
      for (Node* source : graph_->InLinkSources(dirty)) {
        if (state.Mark(source, PatchState::kSource)) {
          sources.push_back(source);
        }
      }
    }
    std::sort(sources.begin(), sources.end(),
              [](const Node* a, const Node* b) { return a->order < b->order; });
    for (Node* node : sources) {
      state.marks[node->order] &= static_cast<uint8_t>(~PatchState::kSource);
      if (node->deleted()) {
        continue;
      }
      // Every FINAL label is a seeding source: clean ones across the boundary, and —
      // after a reopen grows the region — already-drained dirty ones whose earlier
      // relaxations into the reopened nodes were discarded with their labels.
      PathLabel* label = node->label[0];
      if (label == nullptr || !label->mapped) {
        continue;
      }
      for (Link* link = node->links; link != nullptr; link = link->next) {
        if (state.IsDirty(link->to)) {
          PatchRelax(*label, *link, heap, result, state);
        }
      }
    }
    state.reopened = false;
    while (!heap.empty() && state.refusal == nullptr) {
      PathLabel* label = heap.PopMin();
      ++result.heap_pops;
      Settle(label, 0);
      for (Link* link = label->node->links; link != nullptr; link = link->next) {
        PatchRelax(*label, *link, heap, result, state);
      }
    }
  } while (state.reopened && state.refusal == nullptr);

  if (state.refusal != nullptr) {
    return refuse(state.refusal);
  }

  // --- phase 2: the back-link pass, redone from scratch ---
  std::vector<PathLabel*> settled;  // in pop order: parents before children
  if (options_.back_links && options_.max_back_link_passes > 0) {
    // The hosts phase 1 left unreached.  Only old unreachable or back-link-reached
    // hosts and phase-1 dirty nodes can be: every other label is clean and final.
    std::vector<Node*> unreached;
    auto list = [&](Node* node) {
      if (!node->deleted() && !node->placeholder() && node->cost == kUnreached &&
          state.Mark(node, PatchState::kListed)) {
        unreached.push_back(node);
      }
    };
    for (Node* node : result.unreachable) {
      list(node);
    }
    for (const PathLabel* label : old_back) {
      list(label->node);
    }
    for (Node* node : state.dirty_nodes) {
      list(node);
    }

    // A fresh Run invents one link per link out of an unreached host into the
    // mapped region.  The graph must hold exactly those, as the previous run
    // invented them: then the edit left the back links as they were.
    std::vector<std::pair<PathLabel*, Link*>> back_links;  // (source label, link)
    for (Node* node : unreached) {
      for (Link* link = node->links; link != nullptr; link = link->next) {
        Node* neighbor = link->to;
        if (link->alias() || link->dead() || link->invented() || neighbor->deleted() ||
            neighbor->cost == kUnreached) {
          continue;
        }
        Link* back = graph_->FindLink(neighbor, node);
        if (back == nullptr || !back->invented() || back->cost != link->cost ||
            back->op != link->op || back->right_syntax() != link->right_syntax()) {
          return refuse("edit changes the invented back links");
        }
        back_links.emplace_back(neighbor->label[0], back);
      }
    }
    if (back_links.size() != graph_->invented_link_count()) {
      return refuse("edit changes the invented back links");
    }

    // Re-relax them as Run does.  Run visits sources in node order and keeps the
    // first of equal candidates; a patched graph's node order need not be a fresh
    // build's, so a host whose cheapest candidates tie refuses.  The list holds each
    // host's candidates together.
    for (size_t begin = 0, end = 0; begin < back_links.size(); begin = end) {
      Node* host = back_links[begin].second->to;
      Cost best_cost = 0;
      int32_t best_hops = 0;
      size_t at_best = 0;
      for (end = begin; end < back_links.size() && back_links[end].second->to == host; ++end) {
        auto [source, link] = back_links[end];
        Cost cost = CostOf(*source, *link);
        int32_t hops = source->hops + 1;
        if (at_best == 0 || cost < best_cost || (cost == best_cost && hops < best_hops)) {
          best_cost = cost;
          best_hops = hops;
          at_best = 1;
        } else if (cost == best_cost && hops == best_hops) {
          ++at_best;
        }
      }
      if (at_best > 1) {
        return refuse("tied invented-link candidates into a back-linked host");
      }
      for (size_t i = begin; i < end; ++i) {
        Relax(*back_links[i].first, *back_links[i].second, heap, result);
      }
    }
    Drain(heap, result, &settled);

    // Run invents again when a host still unreached links into the mapped region.
    for (Node* node : unreached) {
      if (node->cost != kUnreached) {
        continue;
      }
      for (Link* link = node->links; link != nullptr; link = link->next) {
        if (!link->alias() && !link->dead() && !link->invented() && !link->to->deleted() &&
            link->to->cost != kUnreached) {
          return refuse("patch would need a second back-link pass");
        }
      }
    }

    // Report the back-link-reached nodes whose routes may have changed: a label that
    // is new or differs from the old one, or whose parent's route may have changed.
    for (PathLabel* label : settled) {
      Node* node = label->node;
      if (state.IsDirty(node)) {
        continue;
      }
      auto it = old_back_of.find(node);
      const PathLabel* old = it != old_back_of.end() ? it->second : nullptr;
      bool same = old != nullptr && old->parent->node == label->parent->node &&
                  old->via == label->via && old->cost == label->cost &&
                  old->hops == label->hops && old->taint == label->taint &&
                  old->penalties == label->penalties && old->has_left == label->has_left &&
                  old->has_right == label->has_right;
      if (!same || state.IsDirty(label->parent->node)) {
        state.MarkDirty(node);
      }
    }
    for (const PathLabel* old : old_back) {
      if (old->node->label[0] == nullptr && !state.IsDirty(old->node)) {
        state.MarkDirty(old->node);  // no longer reached: its route goes
      }
    }
  }

  // Every node whose label or declarations may have changed: the dirty region, the
  // back-link-reached nodes old and new, and the nodes created since the last
  // accounting.  Nothing else moved.
  std::vector<Node*> touched;
  auto touch = [&](Node* node) {
    if (state.Mark(node, PatchState::kTouched)) {
      touched.push_back(node);
    }
  };
  for (Node* node : state.dirty_nodes) {
    touch(node);
  }
  for (const PathLabel* label : old_back) {
    touch(label->node);
  }
  for (PathLabel* label : settled) {
    touch(label->node);
  }
  if (result.patch_index.has_value()) {
    for (size_t order = result.patch_index->counted.size(); order < graph_->node_count();
         ++order) {
      touch(graph_->nodes()[order]);
    }
  }
  // Phase 2's Drain counted its pops; the index recounts from the labels instead.
  result.mapped_labels = old_mapped_labels;
  UpdatePatchIndex(result, touched, old_label_count, std::move(settled));
  result_ = nullptr;
  return std::move(state.dirty_nodes);
}

void Mapper::UpdatePatchIndex(Result& result, std::vector<Node*>& touched,
                              size_t old_label_count,
                              std::vector<PathLabel*> back_linked) const {
  auto by_order = [](const auto* a, const auto* b) { return a->order < b->order; };
  std::sort(back_linked.begin(), back_linked.end(),
            [&](const PathLabel* a, const PathLabel* b) { return by_order(a->node, b->node); });
  if (!result.patch_index.has_value()) {
    // The first patch since Run: one pass puts the labels in node order and records
    // what each node feeds.
    result.labels.clear();
    result.mapped_labels = 0;
    for (Node* node : graph_->nodes()) {
      if (PathLabel* label = node->label[0]) {
        label->seq = static_cast<uint32_t>(node->order);
        result.labels.push_back(label);
        result.mapped_labels += label->mapped ? 1 : 0;
      }
    }
    result.label_count = result.labels.size();
    Result::PatchIndex index;
    CollectFinalStats(result, &index.counted);
    index.back_linked = std::move(back_linked);
    result.patch_index = std::move(index);
    return;
  }
  Result::PatchIndex& index = *result.patch_index;
  index.back_linked = std::move(back_linked);
  std::sort(touched.begin(), touched.end(), by_order);

  // Labels: the list was in node order when the patch began (MakeLabel has appended
  // the new labels since; drop those).  Each touched node's old entry, if any, gives
  // way to its current label, if any; every other entry stays where it was.
  std::vector<PathLabel*>& labels = result.labels;
  labels.resize(old_label_count);
  std::vector<PathLabel*> merged;
  merged.reserve(old_label_count + touched.size());
  size_t kept = 0;  // labels[0, kept) are already in `merged` or dropped
  for (Node* node : touched) {
    auto at = std::lower_bound(labels.begin() + static_cast<long>(kept), labels.end(),
                               static_cast<uint32_t>(node->order),
                               [](const PathLabel* label, uint32_t order) {
                                 return label->seq < order;
                               });
    size_t position = static_cast<size_t>(at - labels.begin());
    merged.insert(merged.end(), labels.begin() + static_cast<long>(kept), at);
    kept = position;
    if (position < labels.size() && labels[position]->seq == static_cast<uint32_t>(node->order)) {
      result.mapped_labels -= labels[position]->mapped ? 1 : 0;
      ++kept;
    }
    if (PathLabel* label = node->label[0]) {
      label->seq = static_cast<uint32_t>(node->order);
      result.mapped_labels += label->mapped ? 1 : 0;
      merged.push_back(label);
    }
  }
  merged.insert(merged.end(), labels.begin() + static_cast<long>(kept), labels.end());
  labels = std::move(merged);
  result.label_count = labels.size();

  // Aggregates: take each touched node's old share out and put its new one in.
  index.counted.resize(graph_->node_count(), 0);
  std::vector<Node*> newly_unreachable;  // node order
  bool unreachable_left = false;
  for (Node* node : touched) {
    uint8_t& counted = index.counted[node->order];
    uint8_t feeds = FeedsOf(node);
    if (feeds == counted) {
      continue;
    }
    Tally(result, counted, /*remove=*/true);
    Tally(result, feeds, /*remove=*/false);
    if ((feeds & kFeedsUnreachable) != 0 && (counted & kFeedsUnreachable) == 0) {
      newly_unreachable.push_back(node);
    }
    unreachable_left |= (counted & kFeedsUnreachable) != 0 && (feeds & kFeedsUnreachable) == 0;
    counted = feeds;
  }
  if (unreachable_left) {
    std::erase_if(result.unreachable, [&](const Node* node) {
      return (index.counted[node->order] & kFeedsUnreachable) == 0;
    });
  }
  if (!newly_unreachable.empty()) {
    std::vector<Node*> unreachable;
    unreachable.reserve(result.unreachable.size() + newly_unreachable.size());
    std::merge(result.unreachable.begin(), result.unreachable.end(), newly_unreachable.begin(),
               newly_unreachable.end(), std::back_inserter(unreachable), by_order);
    result.unreachable = std::move(unreachable);
  }
}

}  // namespace pathalias
