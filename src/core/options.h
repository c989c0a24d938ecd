// Top-level configuration for the encrypted XML database.

#ifndef SSDB_CORE_OPTIONS_H_
#define SSDB_CORE_OPTIONS_H_

#include <cstdint>
#include <string>

#include "encode/encoder.h"

namespace ssdb::core {

// Upper bound on DatabaseOptions::servers — far below the PRG's 2^16-slice
// nonce space, and a sanity guard against a typo'd flag allocating
// thousands of stores.
inline constexpr uint32_t kMaxServers = 256;

enum class Backend {
  kMemory,  // in-RAM store (tests, algorithm benchmarks)
  kDisk,    // paged B+tree engine (the paper's MySQL role)
};

enum class EngineKind {
  kSimple,    // §5.3 SimpleQuery
  kAdvanced,  // §5.3 AdvancedQuery (look-ahead)
};

struct DatabaseOptions {
  // Field parameters; the paper uses p=83, e=1 for tag search and p=29 for
  // the trie cost analysis.
  uint32_t p = 83;
  uint32_t e = 1;

  Backend backend = Backend::kMemory;
  std::string disk_path;          // required for Backend::kDisk
  size_t buffer_pool_pages = 1024;

  // Number of servers the additive share is split across (DESIGN.md §5):
  // f = c + s_0 + ... + s_{m-1}. With 1 (the default) the classic 2-party
  // split is produced, bit-identical to earlier versions. With m > 1 and a
  // disk backend, slice i is written to ShareSlicePath(disk_path, i, m).
  // At most kMaxServers: slice indices must stay inside the PRG's
  // dedicated nonce bits (src/prg/prg.h).
  uint32_t servers = 1;

  encode::EncodeOptions encode;
};

// How a shard router opens and queries a multi-document corpus
// (src/shard/router.h, DESIGN.md §10). One options block covers every
// document: the corpus shares a tag map and field parameters, while each
// document keeps its own server group and (optionally) its own seed.
struct CorpusOptions {
  uint32_t p = 83;
  uint32_t e = 1;

  // Interpret catalog slice endpoints as local slice *files* (opened with
  // the disk backend) instead of unix sockets — single-machine corpora,
  // tests, and benches.
  bool local = false;

  EngineKind engine = EngineKind::kAdvanced;

  // Verified aggregation (DESIGN.md §9) on every aggregate the router
  // merges; failures name the document, group, and server.
  bool verify_aggregate = false;

  // Degraded-mode corpus queries (DESIGN.md §11): when set, a document
  // whose server group is unreachable — at open or mid-query — is recorded
  // in CorpusResult::missing instead of failing the whole corpus; the
  // query errors only when EVERY document fails. QueryDoc against a
  // missing document still fails, fast, with the recorded error.
  bool partial_ok = false;
};

// File naming for share slices: the base path itself for a single server,
// "<base>.s<i>of<m>" for slice i of an m-server split.
inline std::string ShareSlicePath(const std::string& base, uint32_t index,
                                  uint32_t servers) {
  if (servers <= 1) return base;
  return base + ".s" + std::to_string(index) + "of" + std::to_string(servers);
}

}  // namespace ssdb::core

#endif  // SSDB_CORE_OPTIONS_H_
