/// Mutator (DESIGN.md §12): the client-side planner for secret-shared
/// INSERT/UPDATE/DELETE. A mutation re-shares only the touched subtree plus
/// its root path — every re-shared node draws a fresh PRG nonce from the
/// document's watermark, gets a freshly split polynomial, rebuilt aggregate
/// columns (§8), a rebuilt verification track (§9, slice 0) and a re-sealed
/// payload — and ships as one storage::MutationPlan per share slice, applied
/// through the stores' two-phase prepare/commit protocol.
///
/// The planner reads structure — the root path and the path nodes'
/// children — off the client's skeleton (DESIGN.md §6), and the rest
/// through the server view: the path's column blobs (unmasked client-side
/// with the PRG) and sealed payloads, one batched exchange each, and the
/// polynomials of the path nodes' children, so planning costs a fixed
/// number of exchanges and O(subtree + Σ fanout along the path) server
/// work — never O(document).

#ifndef SSDB_ENCODE_RESHARE_H_
#define SSDB_ENCODE_RESHARE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "filter/client_filter.h"
#include "gf/ring.h"
#include "mapping/tag_map.h"
#include "prg/prg.h"
#include "storage/mutation.h"
#include "util/statusor.h"

namespace ssdb::encode {

// What a planned mutation touched — the proportionality contract: cost
// scales with the mutated subtree and its root path, not the document.
struct MutateStats {
  uint64_t path_nodes = 0;        // root-path nodes re-shared
  uint64_t subtree_nodes = 0;     // nodes inserted / deleted (1 for UPDATE)
  uint64_t children_fetched = 0;  // sibling polynomials reconstructed
  uint64_t reshared_bytes = 0;    // upsert payload bytes across all slices
};

// A fully planned mutation, ready for the two-phase drive: txn is
// base_version + 1 and plans[i] goes to share slice i.
struct PlannedMutation {
  uint64_t txn = 0;
  std::vector<storage::MutationPlan> plans;
  MutateStats stats;
};

class Mutator {
 public:
  // `map` and `client` must outlive the mutator. The client holds the
  // skeleton the planner reads structure from; its server view — a fan-out
  // for m > 1, whose MutationStates() tells the planner how many slices to
  // build plans for — answers the rest. Planning against a skeleton whose
  // version is not the slices' committed one answers StaleVersion, before
  // any value request (DESIGN.md §12).
  Mutator(gf::Ring ring, const mapping::TagMap& map, prg::Prg prg,
          filter::ClientFilter* client);

  // Re-tags node `pre` to `new_tag` (empty = keep the tag) and/or replaces
  // its text (sealed-content databases only). Re-shares the root path; when
  // the tag actually changes, ancestor polynomials are rebuilt from their
  // children's, so the cost is Σ fanout along the path.
  StatusOr<PlannedMutation> PlanUpdate(
      uint32_t pre, std::string_view new_tag,
      const std::optional<std::string>& new_text);

  // Parses `fragment_xml` (one rooted element) and plans its insertion as
  // the LAST child of node `parent_pre`. Following nodes shift right by the
  // fragment size; shifted rows keep their shares (addressed by their
  // recorded nonce), so only the fragment and the root path are re-shared.
  StatusOr<PlannedMutation> PlanInsert(uint32_t parent_pre,
                                       std::string_view fragment_xml);

  // Plans removal of the whole subtree rooted at `pre` (not the document
  // root). Following nodes shift left by the subtree size.
  StatusOr<PlannedMutation> PlanDelete(uint32_t pre);

 private:
  gf::Ring ring_;
  const mapping::TagMap& map_;
  prg::Prg prg_;
  filter::ClientFilter* client_;
};

}  // namespace ssdb::encode

#endif  // SSDB_ENCODE_RESHARE_H_
