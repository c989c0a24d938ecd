#include "encode/node_encoder.h"

#include <algorithm>
#include <utility>

namespace ssdb::encode {

ColState ZeroState(size_t value_count) {
  ColState state;
  state.mult.assign(value_count, 0);
  state.child_equal.assign(value_count, 0);
  state.child_contain.assign(value_count, 0);
  state.desc_contain.assign(value_count, 0);
  state.desc_mult.assign(value_count, 0);
  return state;
}

void AddChild(ColState* parent, const ColState& child) {
  parent->child_equal[child.own_index] += 1;
  const size_t T = parent->mult.size();
  for (size_t t = 0; t < T; ++t) {
    agg::Word contains = child.mult[t] > 0 ? 1 : 0;
    parent->child_contain[t] += contains;
    parent->desc_contain[t] += child.desc_contain[t] + contains;
    parent->desc_mult[t] += child.desc_mult[t] + child.mult[t];
    parent->mult[t] += child.mult[t];
  }
}

void RemoveChild(ColState* parent, const ColState& child) {
  parent->child_equal[child.own_index] -= 1;
  const size_t T = parent->mult.size();
  for (size_t t = 0; t < T; ++t) {
    agg::Word contains = child.mult[t] > 0 ? 1 : 0;
    parent->child_contain[t] -= contains;
    parent->desc_contain[t] -= child.desc_contain[t] + contains;
    parent->desc_mult[t] -= child.desc_mult[t] + child.mult[t];
    parent->mult[t] -= child.mult[t];
  }
}

std::vector<agg::Word> StoredColumns(const ColState& state) {
  const size_t T = state.mult.size();
  std::vector<agg::Word> out(agg::WordsPerNode(T), 0);
  auto col = [&](agg::Col c) { return out.data() + agg::WordIndex(c, T, 0); };
  col(agg::Col::kEqualSelf)[state.own_index] = 1;
  for (size_t t = 0; t < T; ++t) {
    col(agg::Col::kEqualChild)[t] = state.child_equal[t];
    col(agg::Col::kEqualDesc)[t] =
        state.mult[t] - (t == state.own_index ? 1 : 0);
    col(agg::Col::kContainSelf)[t] = state.mult[t] > 0 ? 1 : 0;
    col(agg::Col::kContainChild)[t] = state.child_contain[t];
    col(agg::Col::kContainDesc)[t] = state.desc_contain[t];
    col(agg::Col::kMultDesc)[t] = state.desc_mult[t];
  }
  return out;
}

StatusOr<ColState> RecoverState(const std::vector<agg::Word>& plain) {
  const size_t T = plain.size() / agg::kColCount;
  ColState state = ZeroState(T);
  size_t ones = 0;
  for (size_t t = 0; t < T; ++t) {
    agg::Word self = plain[agg::WordIndex(agg::Col::kEqualSelf, T, t)];
    if (self == 1) {
      state.own_index = static_cast<uint32_t>(t);
      ++ones;
    } else if (self != 0) {
      ones = 2;  // force the corruption path
      break;
    }
  }
  if (ones != 1) {
    return Status::Corruption(
        "node aggregate columns are corrupt: EqualSelf is not one-hot");
  }
  for (size_t t = 0; t < T; ++t) {
    state.mult[t] = plain[agg::WordIndex(agg::Col::kEqualDesc, T, t)] +
                    plain[agg::WordIndex(agg::Col::kEqualSelf, T, t)];
    state.child_equal[t] = plain[agg::WordIndex(agg::Col::kEqualChild, T, t)];
    state.child_contain[t] =
        plain[agg::WordIndex(agg::Col::kContainChild, T, t)];
    state.desc_contain[t] = plain[agg::WordIndex(agg::Col::kContainDesc, T, t)];
    state.desc_mult[t] = plain[agg::WordIndex(agg::Col::kMultDesc, T, t)];
  }
  return state;
}

std::vector<uint64_t> VerifyKeys(const prg::Prg& prg, size_t value_count) {
  std::vector<uint64_t> alpha;
  alpha.reserve(value_count);
  for (uint32_t t = 0; t < value_count; ++t) {
    alpha.push_back(prg.AggVerifyKey(t));
  }
  return alpha;
}

void NodePoly::Fold(const gf::RingElem& child) {
  children_ = empty_ ? child : ring_->Mul(children_, child);
  empty_ = false;
}

gf::RingElem NodePoly::Close(gf::Elem tag) const {
  return empty_ ? ring_->XMinus(tag) : ring_->MulXMinus(children_, tag);
}

NodeEncoder::NodeEncoder(const gf::Ring& ring, const mapping::TagMap& map,
                         Options options, Sink sink)
    : ring_(ring), map_(map), options_(options), sink_(std::move(sink)) {}

Status NodeEncoder::StartElement(std::string_view name,
                                 const xml::AttributeList&) {
  return Open(name);
}

Status NodeEncoder::EndElement(std::string_view) { return Close(); }

Status NodeEncoder::Characters(std::string_view text) {
  if (options_.keep_text && !stack_.empty()) {
    stack_.back().node.text += std::string(text);
  }
  if (!options_.trie) return Status::OK();  // §3 scheme: tags only
  // §4 scheme: expand the text into a trie of single-character elements.
  trie::Trie built = trie::BuildTrieFromText(text, /*compressed=*/true);
  return EmitTrie(*built.root());
}

Status NodeEncoder::Open(std::string_view name) {
  StatusOr<gf::Elem> value = map_.Lookup(name);
  if (!value.ok()) {
    return Status::InvalidArgument("tag not covered by the map file: " +
                                   std::string(name));
  }
  Frame frame{EncodedNode(), *value, NodePoly(ring_)};
  EncodedNode& node = frame.node;
  node.pre = ++pre_counter_;
  node.parent = stack_.empty() ? 0 : stack_.back().node.pre;
  if (options_.keep_text) node.tag_name = std::string(name);
  if (options_.columns) {
    StatusOr<uint32_t> index = map_.ValueIndex(*value);
    SSDB_RETURN_IF_ERROR(index.status());
    node.state = ZeroState(map_.size());
    node.state.own_index = *index;
  }
  stack_.push_back(std::move(frame));
  max_depth_ = std::max<uint64_t>(max_depth_, stack_.size());
  return Status::OK();
}

Status NodeEncoder::Close() {
  Frame frame = std::move(stack_.back());
  stack_.pop_back();
  EncodedNode& node = frame.node;
  node.post = ++post_counter_;
  node.poly = frame.poly.Close(frame.tag_value);
  if (options_.columns) node.state.mult[node.state.own_index] += 1;
  if (!stack_.empty()) {
    Frame& parent = stack_.back();
    parent.poly.Fold(node.poly);
    if (options_.columns) AddChild(&parent.node.state, node.state);
  }
  return sink_(std::move(node));
}

// Emits a trie as nested virtual elements (depth-first).
Status NodeEncoder::EmitTrie(const trie::TrieNode& node) {
  for (const auto& [key, child] : node.children) {
    (void)key;
    SSDB_RETURN_IF_ERROR(Open(child->label));
    SSDB_RETURN_IF_ERROR(EmitTrie(*child));
    SSDB_RETURN_IF_ERROR(Close());
  }
  return Status::OK();
}

NodeSplitter::NodeSplitter(const gf::Ring& ring, const prg::Prg& prg,
                           size_t slices, std::vector<uint64_t> alpha)
    : ring_(ring), prg_(prg), slices_(slices), alpha_(std::move(alpha)) {}

std::vector<storage::NodeRow> NodeSplitter::Split(
    uint32_t pre, uint32_t post, uint32_t parent, uint64_t stored_nonce,
    uint64_t nonce, const gf::RingElem& poly,
    std::vector<agg::Word> plain_cols, const std::string* sealed_plain) const {
  std::vector<storage::NodeRow> rows(slices_);
  for (storage::NodeRow& row : rows) {
    row.pre = pre;
    row.post = post;
    row.parent = parent;
    row.nonce = stored_nonce;
  }
  const bool columns = !plain_cols.empty();
  // Verification track (DESIGN.md §9), built from the still-plain words:
  // per word w the wide share ŵ (zero-extended) and the keyed checksum
  // α_τ·ŵ mod 2^64 (τ = w mod T in the column-major layout), each masked
  // only by the client's bit-61 stream — the track is independent of the
  // server count and lives on slice 0 alone.
  if (columns && !alpha_.empty()) {
    std::vector<uint64_t> wide(plain_cols.size());
    std::vector<uint64_t> proof(plain_cols.size());
    prg::Prg::Stream vmask = prg_.StreamForVerifyColumns(nonce);
    for (size_t w = 0; w < plain_cols.size(); ++w) {
      uint64_t plain = plain_cols[w];
      wide[w] = plain - vmask.NextUint64();
      proof[w] = alpha_[w % alpha_.size()] * plain - vmask.NextUint64();
    }
    rows[0].verify = agg::SerializeVerify(wide, proof);
  }
  // Mask with the client's PRG stream: every stored word carries an
  // independent uniform pad, so any subset of server slices is jointly
  // uniform — the aggregate analog of the polynomial split.
  if (columns) {
    prg::Prg::Stream mask = prg_.StreamForAggColumns(nonce, 0);
    for (agg::Word& word : plain_cols) word -= mask.NextUint32();
  }
  // Split: the client share is the PRG stream at `nonce`; server slices
  // i >= 1 are further PRG streams (one slice materialized at a time); slice
  // 0 is the remainder, so f = c + s_0 + ... + s_{m-1} (DESIGN.md §5).
  gf::RingElem remainder = ring_.Sub(poly, prg_.ClientShare(ring_, nonce));
  for (size_t i = slices_; i-- > 1;) {
    const uint32_t index = static_cast<uint32_t>(i);
    gf::RingElem slice = prg_.ServerSliceShare(ring_, nonce, index);
    rows[i].share = ring_.Serialize(slice);
    remainder = ring_.Sub(remainder, slice);
    if (columns) {
      prg::Prg::Stream slice_mask = prg_.StreamForAggColumns(nonce, index);
      std::vector<agg::Word> slice_words(plain_cols.size());
      for (size_t w = 0; w < slice_words.size(); ++w) {
        slice_words[w] = slice_mask.NextUint32();
        plain_cols[w] -= slice_words[w];
      }
      rows[i].agg = agg::SerializeWords(slice_words);
    }
  }
  rows[0].share = ring_.Serialize(remainder);
  if (columns) rows[0].agg = agg::SerializeWords(plain_cols);
  if (sealed_plain != nullptr) {
    rows[0].sealed = prg_.SealPayload(nonce, *sealed_plain);
  }
  return rows;
}

}  // namespace ssdb::encode
