/// Streaming encoder — the paper's MySQLEncode (§5.1). Parses XML with the
/// SAX parser (memory proportional to tree depth), assigns pre/post/parent
/// numbers, builds each node's polynomial bottom-up, splits it into a
/// pseudorandom client share (discarded — regenerable from the seed) and
/// one server share per configured server, and inserts rows
/// (pre, post, parent, share) into each server's NodeStore.
///
/// The per-node work is the shared node encoder (node_encoder.h), the same
/// code the mutation planner runs: a coefficient-domain recurrence
/// f = (x - t)·Π children (one O(n) shift-multiply per node, one sparse
/// ring product per child) and the one node-split kernel.
///
/// Multi-server fan-out (DESIGN.md §5): with m stores, slice i >= 1 of each
/// node polynomial is PRG-derived (never more than one slice materialized at
/// a time) and slice 0 is the remainder, so f = c + s_0 + ... + s_{m-1}.
/// Structure columns are replicated to every store; the sealed payload (§4
/// extension) lives only on the primary (slice 0). With one store the
/// output is bit-identical to the classic 2-party split.

#ifndef SSDB_ENCODE_ENCODER_H_
#define SSDB_ENCODE_ENCODER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "gf/ring.h"
#include "mapping/tag_map.h"
#include "prg/prg.h"
#include "storage/node_store.h"
#include "util/statusor.h"

namespace ssdb::encode {

struct EncodeOptions {
  // Apply the §4 trie transformation to text content first (data becomes
  // searchable). Off: text nodes are ignored, as in the paper's §3 scheme.
  bool trie = false;
  // §4 extension: store "tag-name \n direct-text", stream-encrypted under
  // the seed, alongside each node's share so matched nodes can be revealed
  // client-side. The server sees only ciphertext.
  bool seal_content = false;
  // DESIGN.md §8: store each node's masked aggregate-column slice (7 uint32
  // words per mapped tag value, agg/columns.h) so servers can answer
  // COUNT/SUM/EXISTS/GROUP-BY with one word per group instead of the client
  // fetching the candidate set. Costs 28·|map| bytes per node per slice;
  // disable for minimal storage or very large maps on the disk backend.
  bool aggregate_columns = true;
  // DESIGN.md §9: additionally store the aggregate *verification track* on
  // slice 0 — per aggregate word a masked wide share (uint64) and a masked
  // keyed-checksum share (uint64), so verified aggregate replies carry proof
  // words a tampering server cannot forge (failure probability ≤ 2⁻³²).
  // Costs 112·|map| bytes per node on slice 0 only, which exceeds the 4 KiB
  // disk page for large maps — hence opt-in (`ssdb_encode --verify-agg`).
  // Requires aggregate_columns.
  bool verify_aggregate = false;
};

struct EncodeResult {
  uint64_t node_count = 0;
  uint64_t max_depth = 0;
  uint64_t input_bytes = 0;
  uint64_t share_bytes = 0;   // serialized polynomial payload, all slices
  uint64_t agg_bytes = 0;     // aggregate-column payload, all slices (§8)
  uint64_t verify_bytes = 0;  // verification-track payload, slice 0 (§9)
};

class Encoder {
 public:
  // `store` must be empty; the map must cover every tag in the document
  // (plus the trie alphabet when options.trie is set).
  Encoder(gf::Ring ring, const mapping::TagMap& map, prg::Prg prg,
          storage::NodeStore* store, const EncodeOptions& options = {});

  // m-server variant: writes share slice i of every node polynomial to
  // stores[i] (all must be empty). stores.size() is m; a single store is
  // the classic split.
  Encoder(gf::Ring ring, const mapping::TagMap& map, prg::Prg prg,
          std::vector<storage::NodeStore*> stores,
          const EncodeOptions& options = {});

  StatusOr<EncodeResult> EncodeString(std::string_view xml);
  StatusOr<EncodeResult> EncodeFile(const std::string& path);

 private:
  gf::Ring ring_;
  const mapping::TagMap& map_;
  prg::Prg prg_;
  std::vector<storage::NodeStore*> stores_;  // stores_[i] holds slice i
  EncodeOptions options_;
};

}  // namespace ssdb::encode

#endif  // SSDB_ENCODE_ENCODER_H_
