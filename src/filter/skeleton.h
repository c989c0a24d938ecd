/// SkeletonCache (DESIGN.md §6, §11, §12): the client's copy of the public
/// skeleton — every node's pre, post, parent and share nonce — held at one
/// committed document version. The servers keep these columns in the clear
/// (paper §5.2) and they change only when a mutation commits, so the client
/// fetches them once per version and answers every structure step (the
/// root, children, parents, descendants) locally, in time proportional to
/// the output.
///
/// A fetched skeleton is validated before use: pres are dense from 1 in pre
/// order, the root alone has parent 0, every other parent precedes its
/// child and is still open in pre order, and post is exactly the node's
/// post-order rank, so the pre/post intervals nest properly. Anything else
/// is refused as Corruption naming server 0, the primary that served it.

#ifndef SSDB_FILTER_SKELETON_H_
#define SSDB_FILTER_SKELETON_H_

#include <cstdint>
#include <vector>

#include "filter/server_filter.h"
#include "storage/mutation.h"
#include "util/statusor.h"

namespace ssdb::filter {

class SkeletonCache {
 public:
  // An empty, unloaded cache.
  SkeletonCache() = default;

  // Pages the whole skeleton out of `server` (the primary): one exchange
  // per kSkeletonPage nodes. A commit that lands between pages shows as
  // two versions; the fetch then starts over once before it gives up.
  static StatusOr<SkeletonCache> Fetch(ServerFilter* server);
  // Validates `rows` (pre order) and indexes them at `version`.
  static StatusOr<SkeletonCache> FromRows(std::vector<NodeMeta> rows,
                                          uint64_t version);

  bool loaded() const { return !nodes_.empty(); }
  uint64_t version() const { return version_; }
  size_t size() const { return nodes_.size(); }

  const NodeMeta& root() const { return nodes_.front(); }
  // Null when no node has this pre.
  const NodeMeta* Find(uint32_t pre) const {
    return pre >= 1 && pre <= nodes_.size() ? &nodes_[pre - 1] : nullptr;
  }
  // Appends the children of `pre` (which must exist), in pre order.
  void AppendChildren(uint32_t pre, std::vector<NodeMeta>* out) const;
  // The proper descendants of `pre` are the pres (pre, LastDescendant].
  uint32_t LastDescendant(uint32_t pre) const { return last_[pre - 1]; }

  // Applies a mutation plan that committed at `version` (DESIGN.md §12):
  // the erase window, the shift and the upserted rows, in the stores'
  // order (storage/mutation.h). The result is validated like a fetch.
  Status Apply(const storage::MutationPlan& plan, uint64_t version);

  // Field for field, nonces and version included.
  bool operator==(const SkeletonCache& other) const;

 private:
  // Checks the invariants above and builds last_.
  Status Index();

  std::vector<NodeMeta> nodes_;  // pre order: nodes_[i] has pre i + 1
  std::vector<uint32_t> last_;   // last_[pre - 1]: last descendant's pre
  uint64_t version_ = 0;
};

}  // namespace ssdb::filter

#endif  // SSDB_FILTER_SKELETON_H_
