// The shortest-path mapper (paper §Calculating shortest paths, §Cost calculation).
//
// A sparse-graph variant of Dijkstra's algorithm: breadth-first search driven by a
// binary-heap priority queue, extracting vertices in increasing path-cost order.  The
// three vertex sets of the paper — mapped / queued / unmapped — correspond here to
// label.state; the heap index (0 == not queued) lives in the label exactly as the
// original kept it in the node.  Running time is e·log v; the dense baseline in
// src/baseline regenerates the paper's v² comparison (experiment E8).
//
// The cost of a path is the sum of its edge weights *plus heuristics* (the paper is
// explicit that this "sullies our weighted graph model"):
//   * alias edges cost nothing "by definition";
//   * dead links, dead (terminal) hosts, and entry into a gatewayed network anywhere
//     but a gateway add kInfinity;
//   * a link from a subdomain up to its parent domain adds kInfinity (preventing
//     absurdities like caip!seismo.css.gov.edu.rutgers!%s);
//   * once a path has passed through a domain, every further link out of a real host
//     adds kInfinity (the ARPANET may not be used as a relay);
//   * mixing routing syntax is penalized: extending a route that already uses RIGHT
//     ('@') syntax with a LEFT link always, the reverse optionally (the paper's own
//     example output duke!research!ucbvax!%s@mit-ai requires LEFT-then-RIGHT to pass);
//   * adjust {host(n)} biases every path through the host.
// Penalties are finite: a penalized route is still a route, it just loses to any clean
// one.  Negative adjustments cannot make a path cheaper than its prefix (Dijkstra's
// invariant), so traversal cost is clamped below at the predecessor's cost.
//
// Two modes:
//   * default — one label per node; syntax/domain taint is approximated as node state,
//     faithfully reproducing the 1986 behavior including its known flaw (paper
//     §Problems: the tree commits to the 425+∞ route to motown);
//   * two_label — the "modified algorithm that maintains the second-best path when the
//     shortest path to a host goes by way of a domain" the paper reports experimenting
//     with: Dijkstra over (vertex, via-domain) pairs.  A node's reported route is its
//     cheapest label, but children may extend the clean label (experiment E10).
//
// Back links (paper §Back links): after the heap drains, links out of unreachable
// hosts are mirrored ("invented") from their mapped neighbors and the search resumes,
// yielding routes "generated by implication, rather than by explicit declaration".

#ifndef SRC_CORE_MAPPER_H_
#define SRC_CORE_MAPPER_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/graph/graph.h"

namespace pathalias {

// Which heuristic penalties a path absorbed (bits accumulate along the tree path).
enum PenaltyBit : uint32_t {
  kPenaltyDeadLink = 1u << 0,
  kPenaltyDeadHost = 1u << 1,     // relayed through a terminal host
  kPenaltyGateway = 1u << 2,      // entered a gatewayed net away from a gateway
  kPenaltyUpDomain = 1u << 3,     // traversed subdomain → parent domain
  kPenaltyDomainRelay = 1u << 4,  // continued past a domain (ARPANET relay rule)
  kPenaltySyntax = 1u << 5,       // ambiguous syntax mixing
};

// One Dijkstra label: a (vertex, taint) state with its best-known path.
struct PathLabel {
  Node* node = nullptr;
  PathLabel* parent = nullptr;
  Link* via = nullptr;
  Cost cost = kUnreached;
  int32_t hops = 0;
  int32_t heap_index = 0;  // 0 == not in the heap
  uint32_t penalties = 0;   // PenaltyBit mask accumulated along the path
  // The label's sort key in Result::labels, which is kept in ascending seq order:
  // creation order after Run(), node order (node->order) after Patch().
  uint32_t seq = 0;
  uint8_t taint = 0;        // 1 if the path passed through a domain
  bool mapped = false;
  bool best = false;  // provides its node's reported cost/route
  bool has_left = false;
  bool has_right = false;
  // Which drain settled the label: 0 for the first, k for back-link pass k.
  uint8_t pass = 0;
  // Shortest-path-tree child list, built by the route printer.
  PathLabel* child = nullptr;
  PathLabel* sibling = nullptr;
};

struct MapOptions {
  // The "second-best path" extension (paper §Problems).
  bool two_label = false;

  // Penalize LEFT-syntax routes extended with a RIGHT link.  Off by default: the
  // paper's own example output ends ...ucbvax!%s@mit-ai without penalty; leftmost-!
  // mailers relay such routes correctly.  RIGHT-then-LEFT is always penalized — no
  // parse of a!user@b delivers by way of b then a.
  bool penalize_left_then_right = false;

  // Break cost ties in favor of shorter paths ("experience shows that the per-hop
  // overhead in time and reliability is so high that it is important to keep paths
  // short").  Off: ties fall to name order only — the ablation of experiment E14.
  bool prefer_fewer_hops = true;

  // Invent reverse links for unreachable hosts and continue mapping.
  bool back_links = true;
  int max_back_link_passes = 16;

  // Build the heap inside the retired hash table's slot array (paper §Calculating
  // shortest paths).  Ignored (with owned storage substituted) if the table was
  // already stolen or is too small.
  bool reuse_hash_table_storage = true;

  // Hosts ("foo") or links ("foo!bar") whose relaxations should be traced (-t).
  std::vector<std::string> trace;
};

class Mapper {
 public:
  struct Result {
    size_t mapped_hosts = 0;       // real hosts with a route (placeholders excluded)
    size_t mapped_labels = 0;
    size_t label_count = 0;
    size_t unreachable_hosts = 0;  // after back-link passes
    size_t invented_links = 0;
    size_t back_link_passes = 0;
    size_t heap_pushes = 0;
    size_t heap_pops = 0;
    size_t relaxations = 0;
    size_t mixed_syntax_routes = 0;     // routes using both ! and @ (mostly benign)
    size_t syntax_penalized_routes = 0;  // routes actually charged kPenaltySyntax (E11)
    size_t penalized_routes = 0;         // routes charged any penalty at all
    bool heap_storage_reused = false;
    // heap_storage_reused came from the arena's donation list (a retired table from an
    // earlier growth) rather than the interner's current probe table — the two_label
    // fallback, where the current table (~1.27v slots) cannot hold 2v+2 labels.
    bool heap_storage_from_donation = false;
    std::vector<Node*> unreachable;      // deterministic (declaration order)
    // Every live label (printer input): in creation order after Run(), in node order
    // after Patch().  Either way ascending in PathLabel::seq.
    std::vector<PathLabel*> labels;
    // Resolves node NameIds for consumers that only hold the Result (route printer);
    // points at the graph's interner and shares its lifetime.
    const NameInterner* names = nullptr;

    // What Patch keeps between calls so that the next one needs no whole-graph
    // pass.  Run() leaves it empty; the first Patch() after it builds it with one
    // pass, and every later Patch() updates it for the nodes it touched.  While it
    // is set, `labels` is in node order.
    struct PatchIndex {
      std::vector<PathLabel*> back_linked;  // labels a back-link pass settled, node order
      std::vector<uint8_t> counted;         // per node order: the aggregates it feeds
    };
    std::optional<PatchIndex> patch_index;
  };

  Mapper(Graph* graph, MapOptions options);

  // Runs the mapping from graph->local() (must be set).  Resets any prior mapping
  // state on the nodes, so a graph can be mapped repeatedly (benchmarks do).
  Result Run();

  // Incrementally remaps after graph edits, recomputing only the affected region.
  // `result` is the retained Result of the previous Run()/Patch() over this graph;
  // `dirty_seeds` are the nodes whose declarations changed (added, retired, flag- or
  // adjust-edited, or an incident in-link added/removed/recosted/reflagged).  On
  // success the result is updated in place — labels, routes and statistics exactly
  // as a from-scratch Run() on the edited graph would produce them — and the return
  // value lists every node whose route may have changed: the seeds, their old
  // shortest-path-tree subtrees, any region the edits improved into, and the
  // back-link-reached nodes whose labels changed.  Returns nullopt when the patch
  // cannot be applied exactly (`why`, when non-null, says which gate refused); the
  // caller must then fall back to a full Run() (on a fresh graph: a failed patch
  // leaves mapping state partially reset).
  //
  // Cost: the first Patch after a Run makes one pass over the graph (it indexes the
  // in-links, puts result.labels in node order and fills result.patch_index).  After
  // that a patch does work in proportion to the region it recomputes: seeding
  // starts from the dirty nodes' in-links, old subtrees are walked over out-links,
  // and the label list and aggregates are updated for the touched nodes only.
  //
  // The patch mirrors Run's two phases.  Phase 1 patches the first drain: it
  // recomputes the dirty region over declared links only, so invented links and the
  // labels of back-link-reached nodes are never relaxed there.  Phase 2 then redoes
  // the back-link pass from scratch, as Run does: it re-relaxes the invented links
  // from their (final) sources and drains.  Only the back-link-reached nodes take
  // part in phase 2, and maps hold few of them.
  //
  // Exactness rests on the drain order being a pure function of the graph, which
  // holds under these gates (checked here; any miss returns nullopt):
  //   * default options: !two_label, prefer_fewer_hops, no trace requests —
  //     prefer_fewer_hops makes every non-alias relaxation strictly increase
  //     (cost, hops), so extraction is monotone in (cost, hops) and a popped label
  //     is never beaten by a strictly better later candidate;
  //   * the local host is not a seed;
  //   * the previous run used at most one back-link pass;
  //   * the invented links a fresh Run would make for the edited graph are exactly
  //     the ones the graph holds: same endpoints, same cost and syntax.  They follow
  //     from which hosts phase 1 leaves unreached and from those hosts' links, so an
  //     edit that reaches a back-linked host over a declared path, changes a link out
  //     of an unreached host into the reached region, or deletes an invented link's
  //     endpoint refuses;
  //   * no back-link-reached host has its best invented-link candidates tie on
  //     (cost, hops) from different sources — Run keeps the first in node order, and
  //     a patched graph's node order need not match a fresh build's;
  //   * no host phase 2 leaves unreached has a link into the mapped region — Run
  //     would then start a second back-link pass.
  // Within the phase-1 region, ties between equal-(cost, hops) candidates from
  // distinct parents are resolved to the parent a full Run() provably elects:
  //   * parents at different (cost, hops) — the lexicographically smaller parent
  //     popped (hence relaxed) first in the full run, so it wins;
  //   * parents at equal (cost, hops), neither of which was reached over an alias
  //     edge — all such labels enter the heap before their (cost, hops) plateau
  //     begins draining, so they pop in LabelLess order and the LabelLess-least
  //     parent wins.
  // Alias edges (zero cost, zero hops) keep the candidate inside its parent's
  // plateau, where pop order depends on label-creation order, not sorted order.
  // Strict improvements and sole-parent arrivals are still exact (arrival order
  // cannot change the winner), so aliases are allowed; but a tie whose winner
  // depends on alias-warped pop order — either side arriving over an alias edge, or
  // equal-(cost, hops) parents one of which was reached over one — cannot be
  // resolved locally, and the patch refuses ("ambiguous alias tie").  Phase 2 needs
  // no such rule: it replays Run's own drain over the same heap contents.  The fuzz
  // harness drives alias- and back-link-bearing maps through this path per edit.
  std::optional<std::vector<Node*>> Patch(Result& result, std::span<Node* const> dirty_seeds,
                                          std::string* why = nullptr);

  // The heuristic traversal cost described above; exposed so the dense-Dijkstra
  // baseline prices paths identically (experiment E8 compares algorithms, not models).
  // When `penalty_bits` is non-null it receives the PenaltyBits this edge incurred.
  Cost CostOf(const PathLabel& prev, const Link& link, uint32_t* penalty_bits = nullptr) const;

  // Taint/syntax bookkeeping shared with the dense baseline.
  static uint8_t TaintAfter(const PathLabel& prev, const Node& to);
  static void PropagateSyntax(const PathLabel& prev, const Link& link, PathLabel& to);

 private:
  struct PatchState;

  void ApplyTraceRequests();
  PathLabel* MakeLabel(Node* node, uint8_t taint);
  void Relax(PathLabel& from, Link& link, struct MapperHeap& heap, Result& result);
  // Run's extraction loop: pops until the heap is empty, settling each label for the
  // current back-link pass and relaxing its links.  Appends the popped labels to
  // `settled` when non-null.
  void Drain(struct MapperHeap& heap, Result& result,
             std::vector<PathLabel*>* settled = nullptr);
  void PatchRelax(PathLabel& from, Link& link, struct MapperHeap& heap, Result& result,
                  PatchState& state);
  // Marks `node` and its old shortest-path-tree subtree dirty, resetting their
  // mapping state (ancestor routes are baked into descendant route strings).
  void DirtySubtree(Node* node, PatchState& state);
  // Recomputes the label-derived aggregates (mapped/unreachable/penalty counts) by
  // scanning the graph — Run's final accounting, and the first Patch's.  Each node's
  // share goes to *counted (by node order) when it is non-null.
  void CollectFinalStats(Result& result, std::vector<uint8_t>* counted = nullptr) const;
  // Patch's closing bookkeeping: brings labels, label_count, mapped_labels, the
  // aggregates and result.patch_index up to date after the nodes in `touched` (every
  // node whose label or declarations may have changed) were remapped.
  void UpdatePatchIndex(Result& result, std::vector<Node*>& touched, size_t old_label_count,
                        std::vector<PathLabel*> back_linked) const;
  size_t InventBackLinks(Result& result);

  Graph* graph_;
  MapOptions options_;
  Result* result_ = nullptr;  // active only inside Run()
};

}  // namespace pathalias

#endif  // SRC_CORE_MAPPER_H_
