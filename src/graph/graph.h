// The in-memory connectivity graph (paper §Data structures).
//
// Owns the arena every Node/Link lives in, the name interner every NameId resolves
// through, and the semantic rules the input language needs:
//   * private-name scoping — identically named hosts in different files stay distinct
//     (paper §Host name collisions), implemented as shadow chains hanging off the
//     NameId-indexed node vector rather than by deletion;
//   * duplicate-link resolution — the same link declared twice keeps the cheaper cost
//     [R: the paper notes file boundaries matter here but not the rule; cheapest-wins
//     with a warning on conflicting same-file declarations is our reconstruction];
//   * network declarations — a net is a single placeholder node with member→net edges
//     at the declared cost and net→member edges at zero ("you pay to get into the City,
//     but you get back to Jersey for free");
//   * aliases — pairs of zero-cost ALIAS edges; "aliases are a property of edges, not
//     vertices", so nosc (ARPANET) and noscvax (UUCP) resolve per-route;
//   * dead / delete / adjust / gatewayed / gateway declarations.

#ifndef SRC_GRAPH_GRAPH_H_
#define SRC_GRAPH_GRAPH_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/graph/link.h"
#include "src/graph/node.h"
#include "src/support/arena.h"
#include "src/support/diag.h"
#include "src/support/interner.h"

namespace pathalias {

class Graph {
 public:
  struct Options {
    bool ignore_case = false;  // -i: fold host names to lower case
  };

  explicit Graph(Diagnostics* diag);
  Graph(Diagnostics* diag, Options options);

  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;

  // --- input file scoping (drives private-name visibility) ---

  // Starts reading a named input file; returns its index.
  int BeginFile(std::string_view file_name);
  void EndFile();
  const std::vector<std::string>& files() const { return files_; }
  int current_file() const { return current_file_; }

  // --- names ---

  // Interns a name (case-normalized per Options) without creating a node.  This is the
  // tokenization entry point: every name the parser sees passes through here once, and
  // all later layers reuse the returned id.
  NameId InternName(std::string_view name) { return names_.Intern(name); }

  // Resolves a node's (or any interned) name.  O(1); the interner owns the bytes.
  std::string_view NameOf(const Node* node) const { return names_.View(node->name); }
  std::string_view NameOf(NameId id) const { return names_.View(id); }

  NameInterner& names() { return names_; }
  const NameInterner& names() const { return names_; }

  // --- node and link construction ---

  // Finds the visible node named `name`, creating a global one if absent.
  Node* Intern(std::string_view name);
  Node* Intern(NameId id);

  // Finds the visible node named `name`; nullptr if none exists.
  Node* Find(std::string_view name);
  Node* Find(NameId id);

  // Adds a directed edge.  Returns the link (a pre-existing one if this declaration
  // duplicates it), or nullptr for a rejected self-link.
  Link* AddLink(Node* from, Node* to, Cost cost, char op, bool right_syntax, SourcePos pos,
                uint32_t extra_flags = 0);

  // Declares `a` and `b` to be the same machine (a pair of zero-cost ALIAS edges).
  void AddAlias(Node* a, Node* b, SourcePos pos);

  // --- incremental patching (src/incr) ---
  //
  // These bypass the duplicate-resolution diagnostics: the caller (MapBuilder) has
  // already computed the declaration set's effective winner and is bringing the live
  // graph to the state a from-scratch rebuild would produce.

  // Finds the non-alias from→to link; nullptr if absent.
  Link* FindLink(Node* from, Node* to) const;
  // Sets the effective (cost, op, right, declaration flags) of from→to, creating the
  // link if absent.  `decl_flags` ⊆ kLinkDead|kLinkGateway|kLinkNetMember is applied
  // exactly: bits outside the set (invented/traced) are preserved, bits inside it
  // are overwritten — dead{a!b} and gateway{net!host} edits patch through here.
  Link* SetLinkState(Node* from, Node* to, Cost cost, char op, bool right,
                     uint32_t decl_flags = 0);
  // Unlinks the non-alias from→to link; returns true if one existed.
  bool RemoveLink(Node* from, Node* to);
  // Finds the directed alias edge from→to; nullptr if absent.
  Link* FindAlias(Node* from, Node* to) const;
  // Unlinks both alias edges of the a = b pair; returns true if either existed.
  bool RemoveAlias(Node* a, Node* b);
  // Sets the declaration-derived host state exactly: `decl_flags` ⊆
  // kNodeTerminal|kNodeDeleted|kNodeGatewayed|kNodeExplicitGateways replaces those
  // bits (everything else is preserved) and `adjust` replaces the accumulated bias —
  // dead{a} / delete{a} / adjust{a(n)} / gatewayed{a} edits patch through here.
  void SetHostState(Node* node, uint32_t decl_flags, Cost adjust);
  // Retires a node no remaining declaration references: marks it deleted and drops
  // its adjacency.  The node object survives (NameIds and shadow chains are stable);
  // ReviveNode restores it to the state CreateNode would have produced.
  void RetireNode(Node* node);
  void ReviveNode(Node* node);
  // True if `id`'s shadow chain holds more than one node or a private node — the
  // name-keyed declaration diffing the patcher does is only sound without shadows.
  bool HasShadowedName(NameId id) const {
    const Node* head = ChainHead(id);
    return head != nullptr && (head->shadow != nullptr || head->is_private());
  }

  // In-link index: off until the first TrackInLinks() call, which indexes every link
  // by its target in one pass over the adjacency lists; from then on every link the
  // graph adds or removes keeps it current.  Mapper::Patch turns it on so it can
  // seed from the links into its dirty region without scanning every node.
  void TrackInLinks();
  // The source of each link into `node`, one entry per link, in no fixed order.
  // Empty unless TrackInLinks() was called.
  std::span<Node* const> InLinkSources(const Node* node) const {
    return static_cast<size_t>(node->order) < in_links_.size()
               ? std::span<Node* const>(in_links_[node->order])
               : std::span<Node* const>();
  }

  // NAME = op{members}(cost): placeholder node, member→net at `cost`, net→member at 0.
  Node* DeclareNet(Node* net, const std::vector<Node*>& members, Cost cost, char op,
                   bool right_syntax, SourcePos pos);

  // --- keyword declarations ---

  void DeclarePrivate(NameId id, SourcePos pos);
  void DeclarePrivate(std::string_view name, SourcePos pos);
  void MarkDeadHost(Node* host, SourcePos pos);
  void MarkDeadLink(Node* from, Node* to, SourcePos pos);
  void DeleteHost(Node* host, SourcePos pos);
  void AdjustHost(Node* host, Cost amount, SourcePos pos);
  void MarkGatewayed(Node* net, SourcePos pos);
  // Declares `gateway` a sanctioned entry into `net`: flags the gateway→net link,
  // creating it at zero cost if the map never declared one.
  void MarkGatewayLink(Node* net, Node* gateway, SourcePos pos);

  // --- the distinguished source vertex ---

  // Names the local host (the Dijkstra source).  Creates the node if the map never
  // mentioned it (with a warning: routes will then only cover the local host itself).
  Node* SetLocal(std::string_view name);
  Node* local() const { return local_; }

  // --- introspection ---

  std::span<Node* const> nodes() const { return nodes_; }
  size_t node_count() const { return nodes_.size(); }
  size_t link_count() const { return link_count_; }
  // Links carrying kLinkInvented (back links).  Maintained so Mapper::Patch can
  // check that it found every invented link without rescanning all adjacency.
  size_t invented_link_count() const { return invented_link_count_; }

  Arena& arena() { return arena_; }
  Diagnostics& diag() { return *diag_; }

 private:
  Node* CreateNode(NameId id, bool is_private);
  std::string Describe(const Node* from, const Node* to) const;
  bool Visible(const Node* node) const {
    return !node->is_private() || node->private_file == current_file_;
  }
  // Shadow-chain head for `id`, or nullptr.  The id-indexed vector replaces the old
  // name-keyed hash table: the interner did the only string hash at tokenization.
  Node* ChainHead(NameId id) const {
    return id < by_name_.size() ? by_name_[id] : nullptr;
  }
  // In-link index upkeep (no-ops until TrackInLinks()).
  void NoteLinkAdded(Node* from, const Node* to);
  void NoteLinkRemoved(Node* from, const Node* to);

  Diagnostics* diag_;
  Options options_;
  Arena arena_;
  NameInterner names_;
  std::vector<Node*> by_name_;  // NameId -> shadow-chain head (private first)
  std::vector<Node*> nodes_;
  // By target node order: the source of every link into it (see TrackInLinks).
  std::vector<std::vector<Node*>> in_links_;
  bool tracking_in_links_ = false;
  std::vector<std::string> files_;
  size_t link_count_ = 0;
  size_t invented_link_count_ = 0;
  int current_file_ = -1;
  Node* local_ = nullptr;
};

}  // namespace pathalias

#endif  // SRC_GRAPH_GRAPH_H_
