/// ClientFilter (paper §5.2): the trusted side. Holds the secret seed (via
/// the PRG) and regenerates client shares per node position; combines them
/// with server evaluations so that only the *sum* — which equals the true
/// polynomial's evaluation — is ever learned, and only by the client.
///
/// Two matching rules (DESIGN.md §3):
///  * containment test — one joint evaluation at map(tag); zero sum means
///    the tag occurs somewhere in the node's subtree. Constant cost.
///  * equality test    — evaluates the node polynomial and all child
///    polynomials at a few points, divides out the child product and checks
///    the remaining monomial is (x - map(tag)). Cost grows with the number
///    of children.
///
/// The batch entry points are the primary path (DESIGN.md §6): they
/// regenerate the client shares for a whole candidate set and issue one
/// joint server exchange, so a query step costs O(1) round trips instead of
/// O(candidates). The scalar methods are thin wrappers over batches of one.
/// The filter is deployment-agnostic: behind the ServerFilter it talks to
/// may sit one server or an m-server fan-out (DESIGN.md §5) — the share sums
/// it computes are the same either way.

#ifndef SSDB_FILTER_CLIENT_FILTER_H_
#define SSDB_FILTER_CLIENT_FILTER_H_

#include <cstdint>
#include <vector>

#include "filter/server_filter.h"
#include "gf/dft.h"
#include "gf/ring.h"
#include "prg/prg.h"
#include "util/statusor.h"

namespace ssdb::filter {

// Cost counters; `evaluations` is the unit plotted in the paper's fig. 5
// (one per containment test; 1 + #children per equality test, i.e. one per
// polynomial that must be processed).
struct EvalStats {
  uint64_t evaluations = 0;
  uint64_t containment_tests = 0;
  uint64_t equality_tests = 0;
  uint64_t shares_fetched = 0;     // full polynomials pulled for equality
  uint64_t nodes_visited = 0;      // navigation volume
  uint64_t server_calls = 0;       // logical ServerFilter invocations
  uint64_t round_trips = 0;        // wire exchanges (chunked batches count
                                   // one per chunk), accumulated from the
                                   // server's RoundTrips() deltas; straggler
                                   // semantics under multi-server fan-out
  uint64_t batched_evaluations = 0;  // evaluations that rode a batch call
  uint64_t aggregate_ops = 0;        // server-side partial-aggregate folds
                                     // (DESIGN.md §8), one per exchange
  uint64_t verified_aggregate_ops = 0;  // groups that came home with proofs
                                        // and passed verification (§9)
  uint64_t proof_words = 0;             // verification words received and
                                        // checked (wide + proof, §9)
  // Multi-server fan-out (DESIGN.md §5): raw wire exchanges per backend
  // (empty or size-1 for single-server deployments) and the wall time spent
  // waiting on the slowest server across concurrent fan-outs.
  std::vector<uint64_t> per_server_round_trips;
  double straggler_seconds = 0;

  void Reset() { *this = EvalStats{}; }

  // Corpus-level merge (DESIGN.md §10): folds the stats of a query that ran
  // *concurrently* with this one (a shard router fans per-document queries
  // out to their server groups in parallel). Work counters (evaluations,
  // server calls, bytes-shaped fields) sum; latency-shaped fields
  // (round_trips, straggler_seconds) take the straggler's maximum, because
  // concurrent fan-outs cost one step of wall clock — the same semantics
  // MultiServerFilter uses across slices, lifted across groups. The
  // per-server vectors concatenate: every group's servers are distinct.
  void MergeConcurrent(const EvalStats& other);
};

class ClientFilter {
 public:
  // `server` must outlive the filter. The PRG embeds the secret seed.
  ClientFilter(gf::Ring ring, prg::Prg prg, ServerFilter* server);

  // --- Navigation (structure is public; calls are counted) ---
  StatusOr<NodeMeta> Root();
  StatusOr<NodeMeta> GetNode(uint32_t pre);
  StatusOr<std::vector<NodeMeta>> Children(const NodeMeta& node);
  // Children of every node in one server exchange; out[i] belongs to
  // nodes[i].
  StatusOr<std::vector<std::vector<NodeMeta>>> ChildrenBatch(
      const std::vector<NodeMeta>& nodes);
  // The distinct parents of `nodes`, sorted by pre, in one server exchange
  // (a whole '..' step). The root has no parent and drops out; any server
  // failure is returned, never a short answer.
  StatusOr<std::vector<NodeMeta>> Parents(const std::vector<NodeMeta>& nodes);
  // The union of the nodes' proper descendants, each once, in pre order:
  // one server exchange per kDescendantsPage nodes (or covering roots).
  StatusOr<std::vector<NodeMeta>> DescendantsBatch(
      const std::vector<NodeMeta>& nodes);

  // --- Aggregation (DESIGN.md §8) ---
  // Runs a server-side partial aggregate over the spec's frontier and
  // removes the client's PRG masks, returning the *true* Z_{2^32} aggregate
  // per group — the aggregate analog of combining share evaluations. One
  // server exchange however large the frontier; O(groups) response bytes.
  StatusOr<std::vector<agg::Word>> Aggregate(const agg::Spec& spec);

  // Verified aggregation (DESIGN.md §9): like Aggregate, but every server's
  // words come home separately alongside wide and keyed-proof partials from
  // the slice storing the verification track. The client checks
  //   * slices i >= 1 against their PRG expectation (exact, deterministic),
  //   * the keyed checksum Q = α_τ·D̂ over the track (forgery survives with
  //     probability <= 2⁻³²),
  //   * the 32-bit answer against the wide answer D̂ mod 2^32,
  // so a tampering server is *identified*: the returned Corruption status
  // names "server i". FailedPrecondition when the database was encoded
  // without the track (ssdb_encode --verify-agg).
  struct VerifiedAggregate {
    std::vector<agg::Word> totals;  // the true aggregate per group
    uint64_t proof_words = 0;       // verification words checked
  };
  StatusOr<VerifiedAggregate> AggregateVerified(const agg::Spec& spec);

  // --- Matching rules (batch-first) ---
  // out[i] != 0 iff the subtree rooted at nodes[i] contains the mapped
  // value t. One joint server exchange for the whole set.
  StatusOr<std::vector<uint8_t>> ContainsValueBatch(
      const std::vector<NodeMeta>& nodes, gf::Elem t);
  // out[i] != 0 iff nodes[i]'s subtree contains *all* of `values`. One
  // server exchange for the whole set: a grid of every node at every
  // distinct value.
  StatusOr<std::vector<uint8_t>> ContainsAllValuesBatch(
      const std::vector<NodeMeta>& nodes, const std::vector<gf::Elem>& values);
  // out[i] != 0 iff nodes[i]'s own tag is exactly t (strict checking).
  // See RecoverOwnValueBatch for the exchanges.
  StatusOr<std::vector<uint8_t>> EqualsValueBatch(
      const std::vector<NodeMeta>& nodes, gf::Elem t);
  // Recovers each node's own mapped tag value (the equality test's core,
  // DESIGN.md §3). Two server exchanges for the whole set: the children,
  // then a grid of node and children at kGridPoints fresh random points.
  // Whole vectors cost one more: they serve full-verification mode, the
  // document root, and any node whose child product vanishes at every
  // drawn point.
  StatusOr<std::vector<gf::Elem>> RecoverOwnValueBatch(
      const std::vector<NodeMeta>& nodes);

  // --- Scalar wrappers over the batch path ---
  // Does the subtree rooted at `node` contain the mapped value t?
  StatusOr<bool> ContainsValue(const NodeMeta& node, gf::Elem t);
  // Does it contain *all* of `values`?
  StatusOr<bool> ContainsAllValues(const NodeMeta& node,
                                   const std::vector<gf::Elem>& values);
  // Is the node's own tag exactly t? (strict checking)
  StatusOr<bool> EqualsValue(const NodeMeta& node, gf::Elem t);
  // Recovers the node's own mapped tag value; exposed for diagnostics and
  // tests.
  StatusOr<gf::Elem> RecoverOwnValue(const NodeMeta& node);

  // §4 extension: fetches and decrypts the node's sealed payload.
  // Returns {tag name, direct text}; FailedPrecondition when the database
  // was encoded without sealing.
  struct RevealedNode {
    std::string name;
    std::string text;
  };
  StatusOr<RevealedNode> Reveal(const NodeMeta& node);

  EvalStats& stats() { return stats_; }
  const gf::Ring& ring() const { return ring_; }

  // Integrity mode: verify the equality-test division at every point of the
  // evaluation domain (O(n^2) per test, from whole vectors) instead of at a
  // handful of sampled points. Sampled verification already catches
  // inconsistent shares with probability 1 - (1/q)^k; full verification is
  // for tamper-evidence tests.
  void set_full_verification(bool on) { full_verification_ = on; }

  // The equality test divides at one point and checks the division at
  // kVerifyPoints more: a grid has kGridPoints distinct non-zero points
  // (all n of them on a field with fewer).
  static constexpr uint32_t kVerifyPoints = 4;
  static constexpr uint32_t kGridPoints = 1 + kVerifyPoints;

 private:
  // Accumulates the server's round-trip delta over one logical call into
  // stats_.round_trips, so the counter resets and deltas like every other
  // EvalStats field. Instantiated only by methods that talk to the server
  // directly (wrappers would double-count).
  class TripScope {
   public:
    explicit TripScope(ClientFilter* filter)
        : filter_(filter),
          multi_(filter->server_->ServerCount() > 1),
          before_(filter->server_->RoundTrips()) {
      // The per-server vectors cost an allocation per capture; only a
      // fan-out filter has anything beyond RoundTrips() to report.
      if (multi_) {
        per_server_before_ = filter->server_->PerServerRoundTrips();
        straggler_before_ = filter->server_->StragglerSeconds();
      }
    }
    ~TripScope() {
      EvalStats& stats = filter_->stats_;
      stats.round_trips += filter_->server_->RoundTrips() - before_;
      if (!multi_) return;
      stats.straggler_seconds +=
          filter_->server_->StragglerSeconds() - straggler_before_;
      std::vector<uint64_t> after = filter_->server_->PerServerRoundTrips();
      if (stats.per_server_round_trips.size() < after.size()) {
        stats.per_server_round_trips.resize(after.size(), 0);
      }
      for (size_t i = 0;
           i < after.size() && i < per_server_before_.size(); ++i) {
        stats.per_server_round_trips[i] += after[i] - per_server_before_[i];
      }
    }
    TripScope(const TripScope&) = delete;
    TripScope& operator=(const TripScope&) = delete;

   private:
    ClientFilter* filter_;
    bool multi_;
    uint64_t before_;
    std::vector<uint64_t> per_server_before_;
    double straggler_before_ = 0;
  };

  // eval(client_share(node), t) against t's power table — the share is
  // regenerated from the PRG (keyed by the node's share nonce, DESIGN.md
  // §12), never stored.
  gf::Elem EvalClientShare(const NodeMeta& node, const gf::PowerTable& powers);
  // The next grid's points: kGridPoints distinct non-zero elements from the
  // grid-point stream of the next request number, so they depend on the
  // seed and the request count only, never on the query.
  std::vector<gf::Elem> DrawGridPoints();
  // One grid exchange, with the client's shares added: out[r * k + j] is
  // the polynomial of pres[r] (client share keyed by nonces[r]) at
  // points[j], k = points.size().
  StatusOr<std::vector<gf::Elem>> GridValues(
      const std::vector<uint32_t>& pres, const std::vector<uint64_t>& nonces,
      const std::vector<gf::Elem>& points);
  // The equality test of nodes[i] for every i in `which`, into (*out)[i],
  // given each candidate's children. RecoverAtGrid runs one grid exchange
  // and returns the candidates whose child product vanished at every
  // point; RecoverFromShares fetches whole vectors in one exchange.
  StatusOr<std::vector<size_t>> RecoverAtGrid(
      const std::vector<NodeMeta>& nodes,
      const std::vector<std::vector<NodeMeta>>& child_lists,
      const std::vector<size_t>& which, std::vector<gf::Elem>* out);
  Status RecoverFromShares(
      const std::vector<NodeMeta>& nodes,
      const std::vector<std::vector<NodeMeta>>& child_lists,
      const std::vector<size_t>& which, std::vector<gf::Elem>* out);

  gf::Ring ring_;
  gf::Evaluator evaluator_;
  prg::Prg prg_;
  ServerFilter* server_;
  EvalStats stats_;
  bool full_verification_ = false;
  uint64_t grid_requests_ = 0;  // grids drawn so far (DrawGridPoints)
};

}  // namespace ssdb::filter

#endif  // SSDB_FILTER_CLIENT_FILTER_H_
