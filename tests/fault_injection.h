// Reusable byzantine-server fault injection (DESIGN.md §9 test assets).
//
// TamperingServerFilter wraps one backend of a deployment and corrupts what
// it returns — the "one compromised host" adversary of DESIGN.md §5/§9 —
// configurable by fault kind, surface (evaluations, shares, aggregate
// partials), word offset, bit position, and firing probability (driven by a
// deterministic PRNG so failures replay). ByzantineChannel does the same at
// the transport layer, flipping frame bits on the wire.
//
// Shared by multi_server_test.cc (share/eval tampering caught by full
// verification), agg_test.cc (aggregate partial perturbation), and
// verified_agg_test.cc (the §9 tamper battery: every fault kind must be
// detected AND attributed to the wrapped server).

#ifndef SSDB_TESTS_FAULT_INJECTION_H_
#define SSDB_TESTS_FAULT_INJECTION_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "filter/server_filter.h"
#include "gf/ring.h"
#include "rpc/channel.h"

namespace ssdb::testing_helpers {

// What the compromised server does to a reply it fires on.
enum class Fault {
  kNone,        // honest passthrough (the control arm)
  kAddOne,      // field/word increment — the classic lying-server tamper
  kBitFlip,     // XOR 1 << bit into the word at `offset`
  kWordSwap,    // swap the words at `offset` and `offset` + 1
  kStaleReplay, // answer with the previous reply to the same operation
  kGroupDrop,   // drop the last group from aggregate replies
  kProofOnly,   // corrupt only the §9 wide/proof track, words stay honest
};

// What the compromised server does to the public skeleton.
enum class SkeletonFault {
  kNone,   // honest pages
  kFail,   // every page answers Unavailable
  kForge,  // pages arrive with a node that is its own parent
};

struct FaultConfig {
  Fault fault = Fault::kNone;
  // Surfaces the fault applies to. Evaluation and share replies always use
  // field arithmetic (+1), whatever the fault kind says about words.
  bool on_eval = false;       // EvalAt / EvalAtBatch / EvalPointsBatch /
                              // EvalGrid
  bool on_share = false;      // FetchShare / FetchShareBatch
  bool on_aggregate = false;  // PartialAggregate / PartialAggregateVerified
  // What the server does to Skeleton pages (DESIGN.md §6): answers them,
  // loses them (Unavailable), or forges a malformed one.
  SkeletonFault skeleton = SkeletonFault::kNone;
  size_t offset = 0;          // word/group index the fault targets
  uint32_t bit = 0;           // bit position for kBitFlip / kProofOnly
  double probability = 1.0;   // chance a reply is corrupted at all
  uint64_t rng_seed = 1;      // deterministic firing + replay decisions
};

// xorshift64: tiny deterministic PRNG for firing decisions (test code must
// replay bit-exactly; never use real randomness here).
class FaultRng {
 public:
  explicit FaultRng(uint64_t seed) : state_(seed ? seed : 0x9e3779b97f4a7c15) {}
  uint64_t Next() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }
  bool Fire(double probability) {
    if (probability >= 1.0) return true;
    if (probability <= 0.0) return false;
    return static_cast<double>(Next() >> 11) * 0x1.0p-53 < probability;
  }

 private:
  uint64_t state_;
};

// Delegating ServerFilter that corrupts selected replies of one backend.
class TamperingServerFilter : public filter::ServerFilter {
 public:
  TamperingServerFilter(const gf::Ring& ring, filter::ServerFilter* inner,
                        FaultConfig config)
      : ring_(ring),
        inner_(inner),
        config_(config),
        rng_(config.rng_seed) {}

  // Replies corrupted so far — tests assert the fault actually fired.
  uint64_t faults_injected() const { return faults_injected_; }
  FaultConfig& config() { return config_; }

  // --- honest structure plane (the adversary model leaves pre/post/parent
  // in the clear; DESIGN.md §3) ---
  StatusOr<filter::NodeMeta> Root() override { return inner_->Root(); }
  StatusOr<filter::NodeMeta> GetNode(uint32_t pre) override {
    return inner_->GetNode(pre);
  }
  StatusOr<std::vector<filter::NodeMeta>> Children(uint32_t pre) override {
    return inner_->Children(pre);
  }
  StatusOr<std::vector<std::vector<filter::NodeMeta>>> ChildrenBatch(
      const std::vector<uint32_t>& pres) override {
    return inner_->ChildrenBatch(pres);
  }
  StatusOr<std::vector<filter::NodeMeta>> DescendantsBatch(
      const std::vector<filter::NodeMeta>& roots,
      uint32_t resume_after) override {
    return inner_->DescendantsBatch(roots, resume_after);
  }
  StatusOr<std::vector<filter::NodeMeta>> NodesBatch(
      const std::vector<uint32_t>& pres) override {
    return inner_->NodesBatch(pres);
  }
  StatusOr<filter::SkeletonPage> Skeleton(uint32_t after_pre) override {
    SSDB_ASSIGN_OR_RETURN(filter::SkeletonPage page,
                          inner_->Skeleton(after_pre));
    if (config_.skeleton == SkeletonFault::kFail) {
      ++faults_injected_;
      return Status::Unavailable("connection lost");
    }
    if (config_.skeleton == SkeletonFault::kForge && page.nodes.size() > 1) {
      // Node 2 claims to be its own parent: no document has that shape.
      ++faults_injected_;
      page.nodes[1].parent = page.nodes[1].pre;
    }
    return page;
  }
  StatusOr<uint64_t> CommittedVersion() override {
    return inner_->CommittedVersion();
  }
  void StampVersion(uint64_t version) override {
    inner_->StampVersion(version);
  }
  bool StampsRequests() const override { return inner_->StampsRequests(); }
  StatusOr<uint64_t> OpenDescendantCursor(uint32_t pre,
                                          uint32_t post) override {
    return inner_->OpenDescendantCursor(pre, post);
  }
  StatusOr<std::vector<filter::NodeMeta>> NextNodes(
      uint64_t cursor, size_t max_batch) override {
    return inner_->NextNodes(cursor, max_batch);
  }
  Status CloseCursor(uint64_t cursor) override {
    return inner_->CloseCursor(cursor);
  }
  StatusOr<std::string> FetchSealed(uint32_t pre) override {
    return inner_->FetchSealed(pre);
  }
  StatusOr<std::vector<std::string>> FetchSealedBatch(
      const std::vector<uint32_t>& pres) override {
    return inner_->FetchSealedBatch(pres);
  }
  StatusOr<std::vector<storage::MutationState>> MutationStates() override {
    return inner_->MutationStates();
  }
  StatusOr<uint64_t> NodeCount() override { return inner_->NodeCount(); }
  uint64_t RoundTrips() const override { return inner_->RoundTrips(); }

  // --- evaluation plane ---
  StatusOr<gf::Elem> EvalAt(uint32_t pre, gf::Elem t) override {
    SSDB_ASSIGN_OR_RETURN(gf::Elem value, inner_->EvalAt(pre, t));
    return MaybePerturbElem(value);
  }
  StatusOr<std::vector<gf::Elem>> EvalAtBatch(
      const std::vector<uint32_t>& pres, gf::Elem t) override {
    SSDB_ASSIGN_OR_RETURN(std::vector<gf::Elem> values,
                          inner_->EvalAtBatch(pres, t));
    for (gf::Elem& value : values) value = MaybePerturbElem(value);
    return values;
  }
  StatusOr<std::vector<gf::Elem>> EvalPointsBatch(
      uint32_t pre, const std::vector<gf::Elem>& points) override {
    SSDB_ASSIGN_OR_RETURN(std::vector<gf::Elem> values,
                          inner_->EvalPointsBatch(pre, points));
    for (gf::Elem& value : values) value = MaybePerturbElem(value);
    return values;
  }

  StatusOr<std::vector<gf::Elem>> EvalGrid(
      const std::vector<uint32_t>& pres,
      const std::vector<gf::Elem>& points) override {
    SSDB_ASSIGN_OR_RETURN(std::vector<gf::Elem> values,
                          inner_->EvalGrid(pres, points));
    for (gf::Elem& value : values) value = MaybePerturbElem(value);
    return values;
  }

  // --- share plane ---
  StatusOr<gf::RingElem> FetchShare(uint32_t pre) override {
    SSDB_ASSIGN_OR_RETURN(gf::RingElem share, inner_->FetchShare(pre));
    MaybePerturbShare(&share);
    return share;
  }
  StatusOr<std::vector<gf::RingElem>> FetchShareBatch(
      const std::vector<uint32_t>& pres) override {
    SSDB_ASSIGN_OR_RETURN(std::vector<gf::RingElem> shares,
                          inner_->FetchShareBatch(pres));
    for (gf::RingElem& share : shares) MaybePerturbShare(&share);
    return shares;
  }

  // --- aggregate plane (DESIGN.md §8/§9) ---
  StatusOr<std::vector<agg::Word>> PartialAggregate(
      const agg::Spec& spec) override {
    SSDB_ASSIGN_OR_RETURN(std::vector<agg::Word> partials,
                          inner_->PartialAggregate(spec));
    if (config_.on_aggregate && config_.fault == Fault::kStaleReplay) {
      if (last_plain_.has_value() && rng_.Fire(config_.probability)) {
        ++faults_injected_;
        return *last_plain_;
      }
      last_plain_ = partials;
      return partials;
    }
    if (config_.on_aggregate && rng_.Fire(config_.probability)) {
      ApplyWordFault(&partials);
    }
    return partials;
  }
  StatusOr<std::vector<agg::VerifiedPartial>> PartialAggregateVerified(
      const agg::Spec& spec) override {
    SSDB_ASSIGN_OR_RETURN(std::vector<agg::VerifiedPartial> partials,
                          inner_->PartialAggregateVerified(spec));
    if (!config_.on_aggregate) return partials;
    if (config_.fault == Fault::kStaleReplay) {
      if (last_verified_.has_value() && rng_.Fire(config_.probability)) {
        ++faults_injected_;
        return *last_verified_;
      }
      last_verified_ = partials;
      return partials;
    }
    if (!rng_.Fire(config_.probability)) return partials;
    for (agg::VerifiedPartial& partial : partials) {
      ApplyVerifiedFault(&partial);
    }
    return partials;
  }

 private:
  gf::Elem MaybePerturbElem(gf::Elem value) {
    if (config_.fault == Fault::kNone || !config_.on_eval ||
        !rng_.Fire(config_.probability)) {
      return value;
    }
    ++faults_injected_;
    return ring_.field().Add(value, 1);
  }
  void MaybePerturbShare(gf::RingElem* share) {
    if (config_.fault == Fault::kNone || !config_.on_share ||
        share->empty() || !rng_.Fire(config_.probability)) {
      return;
    }
    ++faults_injected_;
    size_t at = config_.offset % share->size();
    (*share)[at] = ring_.field().Add((*share)[at], 1);
  }
  void ApplyWordFault(std::vector<agg::Word>* words) {
    if (words->empty() || config_.fault == Fault::kNone ||
        config_.fault == Fault::kProofOnly) {
      return;
    }
    ++faults_injected_;
    size_t at = config_.offset % words->size();
    switch (config_.fault) {
      case Fault::kAddOne:
        for (agg::Word& word : *words) word += 1;
        break;
      case Fault::kBitFlip:
        (*words)[at] ^= agg::Word{1} << (config_.bit % 32);
        break;
      case Fault::kWordSwap:
        if (words->size() > 1) {
          std::swap((*words)[at], (*words)[(at + 1) % words->size()]);
        } else {
          (*words)[at] += 1;  // degenerate swap still tampers
        }
        break;
      case Fault::kGroupDrop:
        words->pop_back();
        break;
      default:
        break;
    }
  }
  void ApplyVerifiedFault(agg::VerifiedPartial* partial) {
    if (config_.fault == Fault::kProofOnly) {
      // Words stay honest; only the §9 track is corrupted. A no-op on
      // slices that carry no track (they have nothing to corrupt).
      if (partial->proof.empty()) return;
      ++faults_injected_;
      size_t at = config_.offset % partial->proof.size();
      partial->proof[at] ^= uint64_t{1} << (config_.bit % 64);
      return;
    }
    if (config_.fault == Fault::kGroupDrop) {
      if (partial->words.empty()) return;
      ++faults_injected_;
      partial->words.pop_back();
      if (!partial->wide.empty()) {
        partial->wide.pop_back();
        partial->proof.pop_back();
      }
      return;
    }
    ApplyWordFault(&partial->words);
  }

  const gf::Ring& ring_;
  filter::ServerFilter* inner_;
  FaultConfig config_;
  FaultRng rng_;
  uint64_t faults_injected_ = 0;
  std::optional<std::vector<agg::Word>> last_plain_;
  std::optional<std::vector<agg::VerifiedPartial>> last_verified_;
};

// Channel wrapper that flips frame bits on receive — byzantine behaviour at
// the transport layer, below the RPC codec. Whatever lands must surface as
// a decode error or a verification failure, never a silently wrong answer.
class ByzantineChannel : public rpc::Channel {
 public:
  ByzantineChannel(std::unique_ptr<rpc::Channel> inner, double probability,
                   uint64_t rng_seed)
      : inner_(std::move(inner)), probability_(probability), rng_(rng_seed) {}

  uint64_t corruptions() const { return corruptions_; }

  Status Send(std::string_view message) override {
    return inner_->Send(message);
  }
  StatusOr<std::string> Receive() override {
    SSDB_ASSIGN_OR_RETURN(std::string message, inner_->Receive());
    if (!message.empty() && rng_.Fire(probability_)) {
      ++corruptions_;
      uint64_t r = rng_.Next();
      message[r % message.size()] ^=
          static_cast<char>(1u << ((r >> 32) % 8));
    }
    return message;
  }
  void Close() override { inner_->Close(); }
  uint64_t bytes_sent() const override { return inner_->bytes_sent(); }
  uint64_t bytes_received() const override {
    return inner_->bytes_received();
  }
  uint64_t messages_sent() const override { return inner_->messages_sent(); }

 private:
  std::unique_ptr<rpc::Channel> inner_;
  double probability_;
  FaultRng rng_;
  uint64_t corruptions_ = 0;
};

}  // namespace ssdb::testing_helpers

#endif  // SSDB_TESTS_FAULT_INJECTION_H_
