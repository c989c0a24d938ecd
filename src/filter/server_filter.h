/// ServerFilter (paper §5.2): the operations an untrusted server exposes.
/// It sees only pre/post/parent (stored in the clear, as in the paper's
/// MySQL schema) and *server shares* of the node polynomials — never tag
/// names, the map, the seed, or reconstructed polynomials. See DESIGN.md §3
/// for the matching rules built on top and §6 for the batch entry points.
///
/// LocalServerFilter runs against a NodeStore in-process; RemoteServerFilter
/// (src/rpc/client.h) speaks the same interface over a channel, replacing
/// the paper's Java RMI; MultiServerFilter (src/filter/multi_server_filter.h,
/// DESIGN.md §5) fans out to m share-slice servers and sums their replies.
///
/// Concurrency (DESIGN.md §7): one LocalServerFilter is shared by every
/// connection a concurrent transport dispatches. Share/structure reads are
/// stateless and embarrassingly parallel (the store serializes internally);
/// the only server-side state — the descendant-cursor registry — is a
/// mutexed table keyed by (session, cursor id), so cursors opened on one
/// connection are invisible to every other and are reclaimed by EndSession
/// when a connection dies.

#ifndef SSDB_FILTER_SERVER_FILTER_H_
#define SSDB_FILTER_SERVER_FILTER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "agg/columns.h"
#include "gf/ring.h"
#include "storage/mutation.h"
#include "storage/node_store.h"
#include "util/statusor.h"

namespace ssdb::filter {

// Structure-only view of a node (no polynomial data). `nonce` is the PRG
// nonce the node's shares are derived from: 0 means "the pre number", the
// unmutated default; re-shared or shifted rows carry an explicit nonce
// (DESIGN.md §12). Equality deliberately ignores it — two metas describe
// the same structural node regardless of how often it was re-shared.
struct NodeMeta {
  uint32_t pre = 0;
  uint32_t post = 0;
  uint32_t parent = 0;
  uint64_t nonce = 0;

  uint64_t ShareNonce() const { return nonce != 0 ? nonce : pre; }

  bool operator==(const NodeMeta& other) const {
    return pre == other.pre && post == other.post && parent == other.parent;
  }
  bool operator<(const NodeMeta& other) const { return pre < other.pre; }
};

inline NodeMeta MetaOf(const storage::NodeRow& row) {
  return NodeMeta{row.pre, row.post, row.parent, row.nonce};
}

// Reduces a node set to its covering ancestors, sorted by pre: drops
// duplicates and every node nested inside another's subtree, so the
// subtrees left are disjoint and their union is unchanged.
std::vector<NodeMeta> CoveringSet(std::vector<NodeMeta> nodes);

// Most nodes one DescendantsBatch page carries, and most roots the client
// puts in one request (DESIGN.md §6), so both frames stay bounded.
inline constexpr size_t kDescendantsPage = 8192;

// Point grids (DESIGN.md §3, §6). A grid asks for every pre at every point;
// its points are distinct, non-zero and at most kMaxGridPoints (F_q has at
// most 2^16 - 1 non-zero elements), and it carries at most kMaxGridValues
// pres × points, so a reply stays a bounded fraction of the frame cap.
inline constexpr size_t kMaxGridPoints = 65535;
inline constexpr size_t kMaxGridValues = size_t{1} << 22;

// InvalidArgument unless `pre_count` pres at `points` form a valid grid.
// Field-agnostic: the wire decoder and every server run it before they
// allocate a reply or read a row; a server also checks each point is in
// its F_q.
Status ValidateGrid(size_t pre_count, const std::vector<gf::Elem>& points);

// Identity of the connection issuing a cursor operation (DESIGN.md §7).
// Session 0 is the implicit session of the single-connection entry points;
// the concurrent transport passes each connection's id. A strong type so
// the session can never be confused with a pre number or cursor id.
struct SessionId {
  uint64_t value = 0;
};

class ServerFilter {
 public:
  virtual ~ServerFilter() = default;

  // The unique node with parent == 0.
  virtual StatusOr<NodeMeta> Root() = 0;
  virtual StatusOr<NodeMeta> GetNode(uint32_t pre) = 0;
  virtual StatusOr<std::vector<NodeMeta>> Children(uint32_t pre) = 0;
  // Children of many nodes at once; out[i] are the children of pres[i].
  // One round trip remotely — the step-level expansion of the batched
  // query pipeline.
  virtual StatusOr<std::vector<std::vector<NodeMeta>>> ChildrenBatch(
      const std::vector<uint32_t>& pres) = 0;

  // The paper's nextNode() pipeline: the server buffers the intermediate
  // result (descendants of a subtree) and the thin client pulls batches.
  virtual StatusOr<uint64_t> OpenDescendantCursor(uint32_t pre,
                                                  uint32_t post) = 0;
  // Empty batch means the cursor is exhausted (and auto-closed).
  virtual StatusOr<std::vector<NodeMeta>> NextNodes(uint64_t cursor,
                                                    size_t max_batch) = 0;
  virtual Status CloseCursor(uint64_t cursor) = 0;

  // Stateless set-at-a-time structure reads (DESIGN.md §6): one exchange
  // serves a whole query step. The defaults are built from the calls above,
  // so a decorator that forwards only those still answers them;
  // LocalServerFilter overrides both with one store pass per root or pre.
  //
  // The union of the roots' proper descendants in pre order, each node
  // once: the page of at most kDescendantsPage nodes whose pres follow
  // `resume_after`. Roots may nest or repeat. A shorter page is the last.
  virtual StatusOr<std::vector<NodeMeta>> DescendantsBatch(
      const std::vector<NodeMeta>& roots, uint32_t resume_after);
  // The nodes at `pres`; out[i] is node pres[i]. NotFound if any is absent.
  virtual StatusOr<std::vector<NodeMeta>> NodesBatch(
      const std::vector<uint32_t>& pres);

  // Session-scoped cursor entry points used by the concurrent transport
  // (DESIGN.md §7): a cursor is only visible to the session that opened it.
  // The defaults drop the session — correct for client-side stubs, where
  // the remote server scopes sessions by connection.
  virtual StatusOr<uint64_t> OpenDescendantCursor(SessionId session,
                                                  uint32_t pre,
                                                  uint32_t post) {
    (void)session;
    return OpenDescendantCursor(pre, post);
  }
  virtual StatusOr<std::vector<NodeMeta>> NextNodes(SessionId session,
                                                    uint64_t cursor,
                                                    size_t max_batch) {
    (void)session;
    return NextNodes(cursor, max_batch);
  }
  virtual Status CloseCursor(SessionId session, uint64_t cursor) {
    (void)session;
    return CloseCursor(cursor);
  }
  // Reclaims everything the session left behind (open cursors); called by
  // the transport when a connection closes, however it closed.
  virtual void EndSession(SessionId session) { (void)session; }
  // Open cursors across all sessions (leak detection in tests).
  virtual uint64_t OpenCursorCount() const { return 0; }

  // Evaluates the stored server share of node `pre` at point t.
  virtual StatusOr<gf::Elem> EvalAt(uint32_t pre, gf::Elem t) = 0;
  // Batched variants (one round trip remotely): many nodes at one point,
  // and one node at many points.
  virtual StatusOr<std::vector<gf::Elem>> EvalAtBatch(
      const std::vector<uint32_t>& pres, gf::Elem t) = 0;
  virtual StatusOr<std::vector<gf::Elem>> EvalPointsBatch(
      uint32_t pre, const std::vector<gf::Elem>& points) = 0;
  // Every pre at every point (DESIGN.md §6): out[i * points.size() + j] is
  // the share of pres[i] at points[j]. Stateless; the grid must pass
  // ValidateGrid. The default asks EvalAtBatch once per point, so a
  // decorator that forwards only that still answers it;
  // LocalServerFilter reads each row once for all points.
  virtual StatusOr<std::vector<gf::Elem>> EvalGrid(
      const std::vector<uint32_t>& pres, const std::vector<gf::Elem>& points);

  // Full server share: the equality test's whole-vector path (DESIGN.md
  // §3).
  virtual StatusOr<gf::RingElem> FetchShare(uint32_t pre) = 0;
  // Many full shares in one round trip (batched equality tests).
  virtual StatusOr<std::vector<gf::RingElem>> FetchShareBatch(
      const std::vector<uint32_t>& pres) = 0;

  // Partial aggregate (DESIGN.md §8): folds the selected aggregate columns
  // of the frontier nodes into one masked Z_{2^32} word per group — the
  // server *computes* on its additive slice instead of shipping shares, so
  // the response is O(groups) however large the candidate set. Stateless
  // and thread-safe; the default rejects so transports over pre-§8 stores
  // and test fakes fail loudly instead of answering garbage.
  virtual StatusOr<std::vector<agg::Word>> PartialAggregate(
      const agg::Spec& spec) {
    (void)spec;
    return Status::Unimplemented("server does not support aggregation");
  }
  // Session-scoped variant used by the concurrent transport; aggregation
  // holds no per-session state, so the default drops the session.
  virtual StatusOr<std::vector<agg::Word>> PartialAggregate(
      SessionId session, const agg::Spec& spec) {
    (void)session;
    return PartialAggregate(spec);
  }

  // Verified partial aggregate (DESIGN.md §9): like PartialAggregate, but
  // every represented slice answers *separately* (one VerifiedPartial per
  // slice, slice order preserved) so the client can attribute a bad word to
  // a server, and the slice holding the verification track additionally
  // returns the wide and keyed-proof partials. The default rejects like the
  // unverified op.
  virtual StatusOr<std::vector<agg::VerifiedPartial>> PartialAggregateVerified(
      const agg::Spec& spec) {
    (void)spec;
    return Status::Unimplemented(
        "server does not support verified aggregation");
  }
  virtual StatusOr<std::vector<agg::VerifiedPartial>> PartialAggregateVerified(
      SessionId session, const agg::Spec& spec) {
    (void)session;
    return PartialAggregateVerified(spec);
  }

  // Sealed payload bytes (ciphertext; §4 extension). Empty when the
  // database was encoded without sealing.
  virtual StatusOr<std::string> FetchSealed(uint32_t pre) = 0;

  // --- Mutations (DESIGN.md §12) --------------------------------------------
  // Two-phase secret-shared INSERT/UPDATE/DELETE. The coordinator (the
  // client's Mutator) builds one MutationPlan per share slice, prepares them
  // all, then commits; a fan-out filter routes plans[i] to backend i, a
  // single-server filter requires exactly one plan. The defaults reject so
  // read-only transports and test fakes fail loudly.

  // One MutationState per backend slice, in slice order.
  virtual StatusOr<std::vector<storage::MutationState>> MutationStates() {
    return Status::Unimplemented("server does not support mutations");
  }
  virtual Status PrepareMutation(uint64_t txn,
                                 const std::vector<storage::MutationPlan>&
                                     plans) {
    (void)txn;
    (void)plans;
    return Status::Unimplemented("server does not support mutations");
  }
  virtual Status CommitMutation(uint64_t txn) {
    (void)txn;
    return Status::Unimplemented("server does not support mutations");
  }
  virtual Status AbortMutation(uint64_t txn) {
    (void)txn;
    return Status::Unimplemented("server does not support mutations");
  }

  // Aggregate + verification blobs of many nodes in one round trip; out[i]
  // belongs to pres[i]. Used by the mutation planner to rebuild the root
  // path's column state client-side (DESIGN.md §12).
  virtual StatusOr<std::vector<storage::ColumnBlobs>> FetchColumnsBatch(
      const std::vector<uint32_t>& pres) {
    (void)pres;
    return Status::Unimplemented("server does not support column fetches");
  }

  virtual StatusOr<uint64_t> NodeCount() = 0;

  // Number of server exchanges so far. Locally this counts filter calls;
  // remotely it counts actual wire round trips (a chunked batch counts one
  // trip per chunk). A multi-server fan-out counts the straggler only —
  // concurrent exchanges cost one step of latency (DESIGN.md §5). The
  // batched pipeline's win is measured against it.
  virtual uint64_t RoundTrips() const = 0;

  // How many backends answer this filter (1 unless it is a fan-out).
  virtual size_t ServerCount() const { return 1; }

  // Per-backend wire exchanges; single-server filters report {RoundTrips()}.
  virtual std::vector<uint64_t> PerServerRoundTrips() const {
    return {RoundTrips()};
  }

  // Accumulated wall time of the slowest backend across concurrent
  // fan-outs; 0 for single-server filters.
  virtual double StragglerSeconds() const { return 0.0; }
};

// Thread-safe: any number of connections may call concurrently. Reads are
// lock-free here (the store serializes internally); the cursor registry is
// the one mutexed structure (DESIGN.md §7).
class LocalServerFilter : public ServerFilter {
 public:
  // `store` must outlive the filter.
  LocalServerFilter(gf::Ring ring, storage::NodeStore* store)
      : ring_(std::move(ring)), store_(store) {}

  StatusOr<NodeMeta> Root() override;
  StatusOr<NodeMeta> GetNode(uint32_t pre) override;
  StatusOr<std::vector<NodeMeta>> Children(uint32_t pre) override;
  StatusOr<std::vector<std::vector<NodeMeta>>> ChildrenBatch(
      const std::vector<uint32_t>& pres) override;
  StatusOr<std::vector<NodeMeta>> DescendantsBatch(
      const std::vector<NodeMeta>& roots, uint32_t resume_after) override;
  StatusOr<std::vector<NodeMeta>> NodesBatch(
      const std::vector<uint32_t>& pres) override;
  StatusOr<uint64_t> OpenDescendantCursor(uint32_t pre,
                                          uint32_t post) override;
  StatusOr<std::vector<NodeMeta>> NextNodes(uint64_t cursor,
                                            size_t max_batch) override;
  Status CloseCursor(uint64_t cursor) override;
  StatusOr<uint64_t> OpenDescendantCursor(SessionId session, uint32_t pre,
                                          uint32_t post) override;
  StatusOr<std::vector<NodeMeta>> NextNodes(SessionId session,
                                            uint64_t cursor,
                                            size_t max_batch) override;
  Status CloseCursor(SessionId session, uint64_t cursor) override;
  void EndSession(SessionId session) override;
  uint64_t OpenCursorCount() const override;
  StatusOr<gf::Elem> EvalAt(uint32_t pre, gf::Elem t) override;
  StatusOr<std::vector<gf::Elem>> EvalAtBatch(
      const std::vector<uint32_t>& pres, gf::Elem t) override;
  StatusOr<std::vector<gf::Elem>> EvalPointsBatch(
      uint32_t pre, const std::vector<gf::Elem>& points) override;
  StatusOr<std::vector<gf::Elem>> EvalGrid(
      const std::vector<uint32_t>& pres,
      const std::vector<gf::Elem>& points) override;
  StatusOr<gf::RingElem> FetchShare(uint32_t pre) override;
  StatusOr<std::vector<gf::RingElem>> FetchShareBatch(
      const std::vector<uint32_t>& pres) override;
  StatusOr<std::vector<agg::Word>> PartialAggregate(
      const agg::Spec& spec) override;
  StatusOr<std::vector<agg::VerifiedPartial>> PartialAggregateVerified(
      const agg::Spec& spec) override;
  StatusOr<std::string> FetchSealed(uint32_t pre) override;
  StatusOr<std::vector<storage::MutationState>> MutationStates() override;
  Status PrepareMutation(
      uint64_t txn,
      const std::vector<storage::MutationPlan>& plans) override;
  Status CommitMutation(uint64_t txn) override;
  Status AbortMutation(uint64_t txn) override;
  StatusOr<std::vector<storage::ColumnBlobs>> FetchColumnsBatch(
      const std::vector<uint32_t>& pres) override;
  StatusOr<uint64_t> NodeCount() override;
  uint64_t RoundTrips() const override {
    return round_trips_.load(std::memory_order_relaxed);
  }

  const gf::Ring& ring() const { return ring_; }

 private:
  struct Cursor {
    uint64_t session = 0;            // owning connection
    std::vector<NodeMeta> buffered;  // server-side buffering (§5.2)
    size_t offset = 0;
  };

  void CountTrip() { round_trips_.fetch_add(1, std::memory_order_relaxed); }

  // Share reads through the store's zero-copy visit path: only the share
  // bytes are touched, the row's other payloads are never copied.
  // ReadShare unpacks them for a full-share fetch (and for one share at
  // many points); EvalRowAt evaluates them in place against a power table
  // built once per point (DESIGN.md §2); EvalGrid unpacks each row once
  // for all of its points.
  StatusOr<gf::RingElem> ReadShare(uint32_t pre);
  StatusOr<gf::Elem> EvalRowAt(uint32_t pre, const gf::PowerTable& powers);
  // A point that arrived from a client: InvalidArgument unless t is in
  // F_q, so it never indexes past the field's tables. PowersAt checks it
  // and builds its power table.
  Status CheckPoint(gf::Elem t) const;
  StatusOr<gf::PowerTable> PowersAt(gf::Elem t) const;

  gf::Ring ring_;
  storage::NodeStore* store_;
  // Guards cursors_ and next_cursor_; cursor ids are unique across
  // sessions, ownership is checked on every access.
  mutable std::mutex cursors_mu_;
  std::map<uint64_t, Cursor> cursors_;
  uint64_t next_cursor_ = 1;
  std::atomic<uint64_t> round_trips_{0};
};

}  // namespace ssdb::filter

#endif  // SSDB_FILTER_SERVER_FILTER_H_
