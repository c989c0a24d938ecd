/// RemoteServerFilter: client-side stub implementing ServerFilter over a
/// Channel — the drop-in replacement for the paper's RMI remote object.
/// Streams large batches in bounded chunks so round trips stay
/// O(batch / chunk) under the frame cap (DESIGN.md §6). In an m-server
/// deployment one stub per channel sits behind a MultiServerFilter
/// (DESIGN.md §5, src/rpc/multi_session.h).

#ifndef SSDB_RPC_CLIENT_H_
#define SSDB_RPC_CLIENT_H_

#include <memory>
#include <optional>

#include "filter/server_filter.h"
#include "gf/ring.h"
#include "rpc/channel.h"
#include "rpc/protocol.h"

namespace ssdb::rpc {

// One kPing round trip over an already-connected channel (DESIGN.md §11):
// returns the server's build/uptime/stats-epoch, or the dial/decode error.
// The health monitor's default probe comes through here.
StatusOr<PingInfo> Ping(Channel* channel);

class RemoteServerFilter : public filter::ServerFilter {
 public:
  RemoteServerFilter(gf::Ring ring, std::unique_ptr<Channel> channel)
      : ring_(std::move(ring)), channel_(std::move(channel)) {}

  StatusOr<filter::NodeMeta> Root() override;
  StatusOr<filter::NodeMeta> GetNode(uint32_t pre) override;
  StatusOr<std::vector<filter::NodeMeta>> Children(uint32_t pre) override;
  StatusOr<std::vector<std::vector<filter::NodeMeta>>> ChildrenBatch(
      const std::vector<uint32_t>& pres) override;
  StatusOr<std::vector<filter::NodeMeta>> DescendantsBatch(
      const std::vector<filter::NodeMeta>& roots,
      uint32_t resume_after) override;
  // Streams pres in chunks of kChildrenChunk, like ChildrenBatch.
  StatusOr<std::vector<filter::NodeMeta>> NodesBatch(
      const std::vector<uint32_t>& pres) override;
  StatusOr<filter::SkeletonPage> Skeleton(uint32_t after_pre) override;
  // Stamps every later value request (DESIGN.md §12).
  void StampVersion(uint64_t version) override { stamp_ = version; }
  bool StampsRequests() const override { return true; }
  StatusOr<uint64_t> OpenDescendantCursor(uint32_t pre,
                                          uint32_t post) override;
  StatusOr<std::vector<filter::NodeMeta>> NextNodes(uint64_t cursor,
                                                    size_t max_batch) override;
  Status CloseCursor(uint64_t cursor) override;
  StatusOr<gf::Elem> EvalAt(uint32_t pre, gf::Elem t) override;
  StatusOr<std::vector<gf::Elem>> EvalAtBatch(
      const std::vector<uint32_t>& pres, gf::Elem t) override;
  StatusOr<std::vector<gf::Elem>> EvalPointsBatch(
      uint32_t pre, const std::vector<gf::Elem>& points) override;
  // Streams pres in chunks of kGridChunk / |points| (at least one), so
  // every reply fits the frame cap.
  StatusOr<std::vector<gf::Elem>> EvalGrid(
      const std::vector<uint32_t>& pres,
      const std::vector<gf::Elem>& points) override;
  StatusOr<gf::RingElem> FetchShare(uint32_t pre) override;
  StatusOr<std::vector<gf::RingElem>> FetchShareBatch(
      const std::vector<uint32_t>& pres) override;
  // Partial sums are additive, so a frontier larger than one frame streams
  // in chunks whose per-chunk partials just sum client-side (DESIGN.md §8).
  StatusOr<std::vector<agg::Word>> PartialAggregate(
      const agg::Spec& spec) override;
  // Verified variant (DESIGN.md §9): one VerifiedPartial for this slice
  // server; words/wide/proof from successive chunks sum like the plain op.
  StatusOr<std::vector<agg::VerifiedPartial>> PartialAggregateVerified(
      const agg::Spec& spec) override;
  StatusOr<std::string> FetchSealed(uint32_t pre) override;
  StatusOr<std::vector<std::string>> FetchSealedBatch(
      const std::vector<uint32_t>& pres) override;
  StatusOr<uint64_t> NodeCount() override;
  // Mutations (DESIGN.md §12): this stub serves one slice, so
  // MutationStates() returns one entry and PrepareMutation accepts exactly
  // one plan, serialized onto the kind-specific op with phase kPrepare.
  StatusOr<std::vector<storage::MutationState>> MutationStates() override;
  Status PrepareMutation(
      uint64_t txn,
      const std::vector<storage::MutationPlan>& plans) override;
  Status CommitMutation(uint64_t txn) override;
  Status AbortMutation(uint64_t txn) override;
  StatusOr<std::vector<storage::ColumnBlobs>> FetchColumnsBatch(
      const std::vector<uint32_t>& pres) override;
  uint64_t RoundTrips() const override { return round_trips_; }

  // Asks the server to stop serving, then closes the channel.
  Status Shutdown();

  uint64_t round_trips() const { return round_trips_; }
  const Channel& channel() const { return *channel_; }

  // Large batches are streamed in bounded chunks of this many nodes per
  // request frame, keeping any single frame well under kMaxFrameBytes while
  // still costing O(batch / chunk) round trips instead of O(batch).
  static constexpr size_t kEvalChunk = 16384;
  static constexpr size_t kGridChunk = 65536;   // grid values per frame
  static constexpr size_t kShareChunk = 2048;   // full polynomials are wide
  static constexpr size_t kChildrenChunk = 8192;
  static constexpr size_t kAggChunk = 32768;    // frontier pres per frame
  static constexpr size_t kColumnsChunk = 256;  // column blobs are wide (§12)
  static constexpr size_t kSealedChunk = 1024;  // sealed payloads per frame

 private:
  // Sends one request, stamped when its op CarriesVersion and a version
  // was set, and returns the response payload.
  StatusOr<std::string> Call(Request& request);

  gf::Ring ring_;
  std::unique_ptr<Channel> channel_;
  uint64_t round_trips_ = 0;
  std::optional<uint64_t> stamp_;  // the client's skeleton version
  // Which mutation op the in-flight two-phase txn rides on; set by prepare,
  // reused for commit/abort (the server ignores the kind past prepare, so a
  // recovery-driven commit with no prior prepare on this stub is fine too).
  Op mutation_op_ = Op::kUpdate;
};

}  // namespace ssdb::rpc

#endif  // SSDB_RPC_CLIENT_H_
