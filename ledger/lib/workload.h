// The ledger's four workloads and the deployments they run against.
//
// Every workload talks to real rpc::ConcurrentServer slice servers (the
// class ssdb_server wraps) over unix sockets, through the entry points a
// user calls: core::EncryptedXmlDatabase::ConnectRemoteMulti for nav, agg
// and rw-disk, shard::Router::Open for corpus. A workload is a fixed
// *cycle* of steps, each belonging to one op class; clients run the cycle
// in a closed loop (each waits for its reply), and every answer is checked
// against the plaintext oracle.
//
//   nav      256 KiB, memory, m=2, 1 client   fetch mix: both engines,
//            both match modes, child chains, //, *, [pred], ..
//   agg      512 KiB, memory, m=2 + verify track, 2 clients (4 conns)
//            plain and verified aggregates with large frontiers
//   rw-disk  256 KiB, disk (1024-page pools), m=2 + verify track, 1 client
//            INSERT / probe / DELETE / probe / UPDATE x2 / fetch / count
//   corpus   2 docs x 256 KiB, 2 groups x m=2 = 4 servers, 1 client
//            corpus aggregates (verified) and QueryDoc fetches
//
// The seed drives XMark generation, the PRG keys, the class order and the
// mutation fragment; the program sees only the generated inputs.

#ifndef SSDB_LEDGER_LIB_WORKLOAD_H_
#define SSDB_LEDGER_LIB_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/database.h"
#include "lib/traced.h"
#include "query/engine.h"
#include "query/xpath.h"
#include "rpc/concurrent_server.h"
#include "shard/router.h"
#include "xml/dom.h"

namespace ssdb::ledger {

enum class OpKind : uint8_t {
  kFetch,      // facade Query, plain form
  kAggregate,  // facade Query, aggregate form
  kInsert,     // facade Insert
  kDelete,     // facade Delete
  kUpdate,     // facade Update
  kCorpus,     // Router::QueryCorpus (aggregate form)
  kDocFetch,   // Router::QueryDoc (plain form)
};

bool IsMutation(OpKind kind);

struct OpClass {
  std::string name;
  OpKind kind = OpKind::kFetch;
  std::string xpath;  // empty for mutations
  query::Query parsed;
  core::EngineKind engine = core::EngineKind::kAdvanced;
  query::MatchMode mode = query::MatchMode::kEquality;
  bool verified = false;  // verified aggregation (DESIGN.md §9)
};

// What a step must answer. Fetches compare pres; aggregates compare the
// group names and values; mutations compare the touched-subtree size.
struct Expected {
  std::vector<uint32_t> truth;      // plaintext EvaluateGroundTruth pres
  std::vector<uint32_t> reference;  // in-process answer (containment)
  agg::Result aggregate;            // aggregates: exact reference answer
  uint64_t subtree_nodes = 0;       // insert / delete
};

struct Step {
  size_t cls = 0;           // index into Workload::classes
  uint32_t doc = 0;         // kDocFetch target document
  uint32_t pre = 0;         // mutation target (parent for kInsert)
  std::string tag;          // kUpdate: the new tag
  std::string fragment;     // kInsert / kDelete: the subtree's XML
  int64_t delta = 0;        // rw-disk probes: expected = reference + delta
  Expected expected;        // filled by ComputeExpected
};

struct DocInput {
  uint64_t seed = 0;
  std::string xml;
  xml::Document dom;  // AnnotatePrePost'ed
};

struct Workload {
  std::string name;
  std::string why;
  core::Backend backend = core::Backend::kMemory;
  uint64_t doc_bytes = 0;
  uint32_t servers = 2;        // share slices per document
  size_t server_threads = 2;   // ConcurrentServer worker pool per server
  bool verify_track = false;   // encode the §9 verification track
  size_t clients = 1;          // closed-loop clients in the timed window
  std::vector<DocInput> docs;  // one per document (corpus: two)
  std::vector<OpClass> classes;
  std::vector<Step> cycle;
  mapping::TagMap map;

  bool corpus() const { return docs.size() > 1; }
  uint64_t xml_bytes() const;
};

const std::vector<std::string>& WorkloadNames();

// Generates the inputs of workload `name` from `seed`: the documents, the
// class list, and the seed-shuffled cycle (expected answers still empty).
StatusOr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

// What one executed step cost and whether it answered correctly.
struct OpRecord {
  size_t cls = 0;
  bool ok = false;       // the call succeeded and matched the oracle
  std::string error;     // why not, when !ok
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t round_trips = 0;  // straggler-counted
  uint64_t bytes = 0;        // wire bytes sent + received, all channels
  query::QueryStats stats;   // queries only
  uint64_t docs = 1;         // documents that answered
  uint64_t reshared_bytes = 0;  // mutations only
  uint64_t proof_words = 0;
  // Canonical answer, for the decorator-fidelity selftest.
  std::vector<uint32_t> pres;
  std::vector<uint64_t> values;

  double latency_ms() const {
    return static_cast<double>(end_ns - start_ns) / 1e6;
  }
};

// One deployed copy of a workload: the encoded documents (the servers'
// state, also used in-process for reference answers), one ConcurrentServer
// per share slice, and the connected clients.
class Deployment {
 public:
  struct Timing {
    double total_s = 0;
    double encode_s = 0;
  };

  // Encodes every document under `dir` (disk backend), starts the slice
  // servers on sockets in `dir`, and connects `clients` clients. With
  // `traced`, servers serve TracedServerFilter(LocalServerFilter(
  // TracedNodeStore(store))) and clients talk through TracedChannels.
  static StatusOr<std::unique_ptr<Deployment>> Start(const Workload& workload,
                                                     const std::string& dir,
                                                     bool traced,
                                                     size_t clients,
                                                     Timing* timing);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  // Fills every step's Expected from the plaintext DOMs and the encoded
  // documents' in-process stacks.
  Status ComputeExpected(Workload* workload);

  // Runs one step on client `client` and checks it against the oracle.
  OpRecord Run(size_t client, const Workload& workload, const Step& step);

  // Σ over all slice stores of the bytes they occupy: the file footprint on
  // disk, the serialized rows in memory.
  uint64_t StoredBytes();
  // Open descendant cursors across every slice server's filter.
  uint64_t OpenCursors() const;
  // Deepest per-worker ready queue seen by any slice server.
  uint64_t QueueDepthPeak() const;
  // The primary slices' replay log (traced deployments only).
  ReplayLog* replay() { return &replay_; }

  // Stops the servers, disconnects the clients and deletes `dir`.
  void Shutdown();

 private:
  struct Client {
    std::unique_ptr<core::EncryptedXmlDatabase> facade;
    std::vector<rpc::Channel*> channels;  // owned by the facade
  };
  // What one slice server serves: LocalServerFilter(store), or in a traced
  // deployment TracedServerFilter(LocalServerFilter(TracedNodeStore(store))).
  struct Slice {
    std::unique_ptr<TracedNodeStore> traced_store;  // traced only
    std::unique_ptr<filter::ServerFilter> filter;
  };

  Deployment() = default;
  uint64_t WireBytes(size_t client) const;
  uint64_t RoundTrips(size_t client) const;

  std::string dir_;
  std::vector<std::unique_ptr<core::EncryptedXmlDatabase>> docs_;
  std::vector<Slice> slices_;
  std::vector<std::unique_ptr<rpc::ConcurrentServer>> servers_;
  std::vector<Client> clients_;
  // Corpus: the router, and (traced) the remote stubs it was built over.
  std::vector<std::unique_ptr<rpc::RemoteServerFilter>> remotes_;
  std::vector<rpc::Channel*> router_channels_;
  std::unique_ptr<shard::Router> router_;
  ReplayLog replay_;
};

}  // namespace ssdb::ledger

#endif  // SSDB_LEDGER_LIB_WORKLOAD_H_
