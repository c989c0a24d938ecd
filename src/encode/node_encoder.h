/// The one node encoder: every place that turns an element into stored rows
/// — the streaming Encoder (encoder.h) and the mutation planner
/// (reshare.h) — runs these pieces, so shares, masks and columns are derived
/// identically wherever they are written.
///
///  * ColState and its folds: the five bottom-up accumulators every stored
///    aggregate column (DESIGN.md §8) is a projection of.
///  * NodePoly: the §3 recurrence f(node) = (x − t)·Π f(children) in the
///    coefficient domain.
///  * NodeEncoder: a SAX handler running NodePoly and the column folds over
///    a document or fragment and handing each closed node to a sink.
///  * NodeSplitter: one node polynomial and its plain columns → the m stored
///    rows (§5 share split, §8 column masks, §9 verification track and §4
///    sealed payload on slice 0).

#ifndef SSDB_ENCODE_NODE_ENCODER_H_
#define SSDB_ENCODE_NODE_ENCODER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "agg/columns.h"
#include "gf/ring.h"
#include "mapping/tag_map.h"
#include "prg/prg.h"
#include "storage/node_store.h"
#include "trie/trie.h"
#include "util/statusor.h"
#include "xml/sax.h"

namespace ssdb::encode {

// A node's aggregate accumulators, indexed by value rank; empty vectors
// when aggregate columns are off.
struct ColState {
  uint32_t own_index = 0;  // rank of the node's tag among mapped values
  std::vector<agg::Word> mult;           // subtree tag histogram (incl. self)
  std::vector<agg::Word> child_equal;    // per-tag direct-child count
  std::vector<agg::Word> child_contain;  // children whose subtree contains τ
  std::vector<agg::Word> desc_contain;   // descendants whose subtree contains τ
  std::vector<agg::Word> desc_mult;      // Σ over descendants of their mult
};

ColState ZeroState(size_t value_count);
// Folds a closed child into its parent's accumulators.
void AddChild(ColState* parent, const ColState& child);
// Exact inverse of AddChild (counts are unsigned; the true values never go
// negative because the child really is accounted in the parent).
void RemoveChild(ColState* parent, const ColState& child);
// The seven stored columns (agg/columns.h layout) of a closed node.
std::vector<agg::Word> StoredColumns(const ColState& state);
// Inverse of StoredColumns; Corruption when EqualSelf is not one-hot.
StatusOr<ColState> RecoverState(const std::vector<agg::Word>& plain);

// The client-held §9 keys α_τ, one per mapped value.
std::vector<uint64_t> VerifyKeys(const prg::Prg& prg, size_t value_count);

// f(node) = (x − t)·Π f(children), reduced: Fold each child's polynomial,
// then Close with the node's tag value. A child costs one sparse ring
// product (the first none) and the close one O(n) shift-multiply.
class NodePoly {
 public:
  explicit NodePoly(const gf::Ring& ring) : ring_(&ring) {}
  void Fold(const gf::RingElem& child);
  gf::RingElem Close(gf::Elem tag) const;

 private:
  const gf::Ring* ring_;
  gf::RingElem children_;  // product of the folded children
  bool empty_ = true;
};

// One closed element, numbered within the parsed text: pre and post count
// from 1, parent is 0 at the top level.
struct EncodedNode {
  uint32_t pre = 0;
  uint32_t post = 0;
  uint32_t parent = 0;
  gf::RingElem poly;     // (x − t)·Π children, reduced
  ColState state;        // closed: own tag already counted in mult
  std::string tag_name;  // kept only with keep_text
  std::string text;      // direct text, kept only with keep_text
};

class NodeEncoder : public xml::SaxHandler {
 public:
  struct Options {
    bool columns = true;     // build ColState (§8)
    bool keep_text = false;  // keep tag name and direct text (for sealing)
    bool trie = false;       // §4: expand text into single-character nodes
  };
  // Called once per element in post order, after the node was folded into
  // its parent; a non-OK status stops the parse.
  using Sink = std::function<Status(EncodedNode&&)>;

  NodeEncoder(const gf::Ring& ring, const mapping::TagMap& map,
              Options options, Sink sink);

  Status StartElement(std::string_view name,
                      const xml::AttributeList& attributes) override;
  Status EndElement(std::string_view name) override;
  Status Characters(std::string_view text) override;

  uint64_t node_count() const { return post_counter_; }
  uint64_t max_depth() const { return max_depth_; }

 private:
  struct Frame {
    EncodedNode node;
    gf::Elem tag_value = 0;
    NodePoly poly;
  };

  Status Open(std::string_view name);
  Status Close();
  Status EmitTrie(const trie::TrieNode& node);

  const gf::Ring& ring_;
  const mapping::TagMap& map_;
  Options options_;
  Sink sink_;
  std::vector<Frame> stack_;
  uint32_t pre_counter_ = 0;
  uint32_t post_counter_ = 0;
  uint64_t max_depth_ = 0;
};

class NodeSplitter {
 public:
  // `slices` is the server count m; `alpha` the §9 keys (VerifyKeys), empty
  // when the database carries no verification track.
  NodeSplitter(const gf::Ring& ring, const prg::Prg& prg, size_t slices,
               std::vector<uint64_t> alpha);

  // rows[i] is slice i's row of the node. Every share, mask and seal is
  // drawn at PRG position `nonce`; `stored_nonce` is what the rows record
  // (0 at encode time, where the position is the pre itself). Slices
  // i >= 1 are PRG-derived and slice 0 is the remainder, so
  // poly = client share + Σ slices, and the plain columns split the same way
  // in Z_2^32 after the client's mask. `plain_cols` empty means no §8
  // columns; `sealed_plain` null means no sealed payload.
  std::vector<storage::NodeRow> Split(uint32_t pre, uint32_t post,
                                      uint32_t parent, uint64_t stored_nonce,
                                      uint64_t nonce, const gf::RingElem& poly,
                                      std::vector<agg::Word> plain_cols,
                                      const std::string* sealed_plain) const;

 private:
  const gf::Ring& ring_;
  const prg::Prg& prg_;
  size_t slices_;
  std::vector<uint64_t> alpha_;
};

}  // namespace ssdb::encode

#endif  // SSDB_ENCODE_NODE_ENCODER_H_
