#include "filter/server_filter.h"

#include <algorithm>

namespace ssdb::filter {
namespace {

// Index of the first covering root whose subtree can still hold pres after
// `resume_after`: the last root at or before it. Every earlier root's
// subtree ends before the next root starts, so it is drained.
size_t FirstOpenRoot(const std::vector<NodeMeta>& covering,
                     uint32_t resume_after) {
  auto after = std::upper_bound(
      covering.begin(), covering.end(), resume_after,
      [](uint32_t pre, const NodeMeta& root) { return pre < root.pre; });
  return after == covering.begin()
             ? 0
             : static_cast<size_t>(after - covering.begin()) - 1;
}

// Where root i's scan must stop: the next covering root's pre. An honest
// subtree always ends before it; a forged post cannot make one root's scan
// run into the next, so a page stays strictly increasing whatever it asks.
uint64_t ScanEnd(const std::vector<NodeMeta>& covering, size_t i) {
  return i + 1 < covering.size() ? covering[i + 1].pre : UINT64_MAX;
}

}  // namespace

Status ValidateGrid(size_t pre_count, const std::vector<gf::Elem>& points) {
  if (points.empty()) return Status::InvalidArgument("grid has no points");
  if (points.size() > kMaxGridPoints) {
    return Status::InvalidArgument("grid has " +
                                   std::to_string(points.size()) +
                                   " points, more than F_q has");
  }
  if (pre_count > kMaxGridValues / points.size()) {
    return Status::InvalidArgument(
        "grid of " + std::to_string(pre_count) + " pres x " +
        std::to_string(points.size()) + " points exceeds the reply cap");
  }
  std::vector<gf::Elem> sorted = points;
  std::sort(sorted.begin(), sorted.end());
  if (sorted.front() == 0) {
    return Status::InvalidArgument("grid point 0 is not a ring point");
  }
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    return Status::InvalidArgument("grid repeats a point");
  }
  return Status::OK();
}

std::vector<NodeMeta> CoveringSet(std::vector<NodeMeta> nodes) {
  // pre/post numbering: a is an ancestor of b iff pre(a) < pre(b) and
  // post(a) > post(b). In pre order, non-descendants have strictly
  // increasing post, so one running maximum finds every nested node.
  std::sort(nodes.begin(), nodes.end());
  std::vector<NodeMeta> covering;
  covering.reserve(nodes.size());
  for (const NodeMeta& node : nodes) {
    if (covering.empty() || node.post > covering.back().post) {
      covering.push_back(node);
    }
  }
  return covering;
}

StatusOr<std::vector<NodeMeta>> ServerFilter::DescendantsBatch(
    const std::vector<NodeMeta>& roots, uint32_t resume_after) {
  const std::vector<NodeMeta> covering = CoveringSet(roots);
  std::vector<NodeMeta> page;
  for (size_t i = FirstOpenRoot(covering, resume_after);
       i < covering.size() && page.size() < kDescendantsPage; ++i) {
    // The cursor opens at the resume point, so nodes earlier pages carried
    // are not read again; a cursor buffers the rest of its subtree, though,
    // so a page here costs that rest, not one page (DESIGN.md §6).
    SSDB_ASSIGN_OR_RETURN(
        uint64_t cursor,
        OpenDescendantCursor(std::max(covering[i].pre, resume_after),
                             covering[i].post));
    // Pull until the cursor drains (and closes itself) or the page fills;
    // a cursor left open is closed before returning, on error too.
    const uint64_t end = ScanEnd(covering, i);
    Status status = Status::OK();
    bool drained = false;
    bool past_end = false;
    while (page.size() < kDescendantsPage && !past_end) {
      StatusOr<std::vector<NodeMeta>> batch =
          NextNodes(cursor, kDescendantsPage - page.size());
      if (!batch.ok()) {
        status = batch.status();
        break;
      }
      if (batch->empty()) {
        drained = true;
        break;
      }
      for (const NodeMeta& node : *batch) {
        past_end = past_end || node.pre >= end;
        if (!past_end && page.size() < kDescendantsPage) page.push_back(node);
      }
    }
    if (!drained) {
      Status closed = CloseCursor(cursor);
      if (status.ok()) status = closed;
    }
    SSDB_RETURN_IF_ERROR(status);
  }
  return page;
}

StatusOr<std::vector<NodeMeta>> ServerFilter::NodesBatch(
    const std::vector<uint32_t>& pres) {
  std::vector<NodeMeta> out;
  out.reserve(pres.size());
  for (uint32_t pre : pres) {
    SSDB_ASSIGN_OR_RETURN(NodeMeta node, GetNode(pre));
    out.push_back(node);
  }
  return out;
}

StatusOr<SkeletonPage> ServerFilter::Skeleton(uint32_t after_pre) {
  SSDB_ASSIGN_OR_RETURN(uint64_t version, CommittedVersion());
  SSDB_ASSIGN_OR_RETURN(NodeMeta root, Root());
  SkeletonPage page;
  if (after_pre < root.pre) page.nodes.push_back(root);
  SSDB_ASSIGN_OR_RETURN(
      std::vector<NodeMeta> rest,
      DescendantsBatch({root}, std::max(root.pre, after_pre)));
  const size_t room = kSkeletonPage - page.nodes.size();
  if (rest.size() > room) rest.resize(room);
  page.nodes.insert(page.nodes.end(), rest.begin(), rest.end());
  // A commit between the reads would mix two versions in one page.
  SSDB_ASSIGN_OR_RETURN(page.version, CommittedVersion());
  if (page.version != version) {
    return Status::Unavailable("document changed during the skeleton read");
  }
  return page;
}

StatusOr<uint64_t> ServerFilter::CommittedVersion() {
  StatusOr<std::vector<storage::MutationState>> states = MutationStates();
  if (states.status().code() == StatusCode::kUnimplemented) return 0;
  SSDB_RETURN_IF_ERROR(states.status());
  if (states->empty()) return Status::Internal("no mutation state reported");
  return (*states)[0].version;
}

StatusOr<std::vector<std::string>> ServerFilter::FetchSealedBatch(
    const std::vector<uint32_t>& pres) {
  std::vector<std::string> out;
  out.reserve(pres.size());
  for (uint32_t pre : pres) {
    SSDB_ASSIGN_OR_RETURN(std::string sealed, FetchSealed(pre));
    out.push_back(std::move(sealed));
  }
  return out;
}

StatusOr<std::vector<gf::Elem>> ServerFilter::EvalGrid(
    const std::vector<uint32_t>& pres, const std::vector<gf::Elem>& points) {
  SSDB_RETURN_IF_ERROR(ValidateGrid(pres.size(), points));
  const size_t k = points.size();
  std::vector<gf::Elem> out(pres.size() * k);
  for (size_t j = 0; j < k; ++j) {
    SSDB_ASSIGN_OR_RETURN(std::vector<gf::Elem> column,
                          EvalAtBatch(pres, points[j]));
    if (column.size() != pres.size()) {
      return Status::Internal("EvalAtBatch size mismatch");
    }
    for (size_t i = 0; i < pres.size(); ++i) out[i * k + j] = column[i];
  }
  return out;
}

StatusOr<NodeMeta> LocalServerFilter::Root() {
  CountTrip();
  SSDB_ASSIGN_OR_RETURN(storage::NodeRow row, store_->GetRoot());
  return MetaOf(row);
}

StatusOr<NodeMeta> LocalServerFilter::GetNode(uint32_t pre) {
  CountTrip();
  NodeMeta meta;
  SSDB_RETURN_IF_ERROR(store_->VisitByPre(
      pre, [&](const storage::NodeRow& row) { meta = MetaOf(row); }));
  return meta;
}

StatusOr<std::vector<NodeMeta>> LocalServerFilter::Children(uint32_t pre) {
  CountTrip();
  std::vector<NodeMeta> out;
  SSDB_RETURN_IF_ERROR(store_->VisitChildren(
      pre, [&](const storage::NodeRow& row) { out.push_back(MetaOf(row)); }));
  return out;
}

StatusOr<std::vector<std::vector<NodeMeta>>> LocalServerFilter::ChildrenBatch(
    const std::vector<uint32_t>& pres) {
  CountTrip();
  std::vector<std::vector<NodeMeta>> out;
  out.reserve(pres.size());
  for (uint32_t pre : pres) {
    std::vector<NodeMeta> metas;
    SSDB_RETURN_IF_ERROR(store_->VisitChildren(
        pre,
        [&](const storage::NodeRow& row) { metas.push_back(MetaOf(row)); }));
    out.push_back(std::move(metas));
  }
  return out;
}

StatusOr<std::vector<NodeMeta>> LocalServerFilter::DescendantsBatch(
    const std::vector<NodeMeta>& roots, uint32_t resume_after) {
  CountTrip();
  const std::vector<NodeMeta> covering = CoveringSet(roots);
  std::vector<NodeMeta> page;
  // One seek per root: the scan resumes right after `resume_after` (or at
  // the root) and stops where the root's subtree ends or the page fills.
  for (size_t i = FirstOpenRoot(covering, resume_after);
       i < covering.size() && page.size() < kDescendantsPage; ++i) {
    const uint64_t end = ScanEnd(covering, i);
    SSDB_RETURN_IF_ERROR(store_->ScanDescendants(
        std::max(covering[i].pre, resume_after), covering[i].post,
        [&](const storage::NodeRow& row) {
          if (row.pre >= end) return false;
          page.push_back(MetaOf(row));
          return page.size() < kDescendantsPage;
        }));
  }
  return page;
}

StatusOr<std::vector<NodeMeta>> LocalServerFilter::NodesBatch(
    const std::vector<uint32_t>& pres) {
  CountTrip();
  std::vector<NodeMeta> out;
  out.reserve(pres.size());
  for (uint32_t pre : pres) {
    SSDB_RETURN_IF_ERROR(store_->VisitByPre(
        pre, [&](const storage::NodeRow& row) { out.push_back(MetaOf(row)); }));
  }
  return out;
}

StatusOr<SkeletonPage> LocalServerFilter::Skeleton(uint32_t after_pre) {
  CountTrip();
  SSDB_ASSIGN_OR_RETURN(uint64_t version, CommittedVersion());
  SSDB_ASSIGN_OR_RETURN(storage::NodeRow root, store_->GetRoot());
  SkeletonPage page;
  if (after_pre < root.pre) page.nodes.push_back(MetaOf(root));
  if (page.nodes.size() < kSkeletonPage) {
    SSDB_RETURN_IF_ERROR(store_->ScanDescendants(
        std::max(root.pre, after_pre), root.post,
        [&](const storage::NodeRow& row) {
          page.nodes.push_back(MetaOf(row));
          return page.nodes.size() < kSkeletonPage;
        }));
  }
  // A commit between the reads would mix two versions in one page.
  SSDB_ASSIGN_OR_RETURN(page.version, CommittedVersion());
  if (page.version != version) {
    return Status::Unavailable("document changed during the skeleton read");
  }
  return page;
}

StatusOr<uint64_t> LocalServerFilter::CommittedVersion() {
  StatusOr<storage::MutationState> state = store_->GetMutationState();
  if (state.status().code() == StatusCode::kUnimplemented) return 0;
  SSDB_RETURN_IF_ERROR(state.status());
  return state->version;
}

StatusOr<uint64_t> LocalServerFilter::OpenDescendantCursor(uint32_t pre,
                                                           uint32_t post) {
  return OpenDescendantCursor(SessionId{0}, pre, post);
}

StatusOr<std::vector<NodeMeta>> LocalServerFilter::NextNodes(
    uint64_t cursor_id, size_t max_batch) {
  return NextNodes(SessionId{0}, cursor_id, max_batch);
}

Status LocalServerFilter::CloseCursor(uint64_t cursor_id) {
  return CloseCursor(SessionId{0}, cursor_id);
}

StatusOr<uint64_t> LocalServerFilter::OpenDescendantCursor(SessionId session,
                                                           uint32_t pre,
                                                           uint32_t post) {
  CountTrip();
  Cursor cursor;
  cursor.session = session.value;
  SSDB_RETURN_IF_ERROR(store_->ScanDescendants(
      pre, post, [&](const storage::NodeRow& row) {
        cursor.buffered.push_back(MetaOf(row));
        return true;
      }));
  std::lock_guard<std::mutex> lock(cursors_mu_);
  uint64_t id = next_cursor_++;
  cursors_.emplace(id, std::move(cursor));
  return id;
}

StatusOr<std::vector<NodeMeta>> LocalServerFilter::NextNodes(
    SessionId session, uint64_t cursor_id, size_t max_batch) {
  CountTrip();
  std::lock_guard<std::mutex> lock(cursors_mu_);
  auto it = cursors_.find(cursor_id);
  // A cursor opened by another connection must look exactly like a cursor
  // that does not exist (DESIGN.md §7).
  if (it == cursors_.end() || it->second.session != session.value) {
    return Status::NotFound("no such cursor");
  }
  Cursor& cursor = it->second;
  std::vector<NodeMeta> batch;
  while (cursor.offset < cursor.buffered.size() && batch.size() < max_batch) {
    batch.push_back(cursor.buffered[cursor.offset++]);
  }
  if (batch.empty()) {
    cursors_.erase(it);  // exhausted cursors self-close
  }
  return batch;
}

Status LocalServerFilter::CloseCursor(SessionId session, uint64_t cursor_id) {
  CountTrip();
  std::lock_guard<std::mutex> lock(cursors_mu_);
  auto it = cursors_.find(cursor_id);
  if (it != cursors_.end() && it->second.session == session.value) {
    cursors_.erase(it);
  }
  return Status::OK();
}

void LocalServerFilter::EndSession(SessionId session) {
  std::lock_guard<std::mutex> lock(cursors_mu_);
  for (auto it = cursors_.begin(); it != cursors_.end();) {
    if (it->second.session == session.value) {
      it = cursors_.erase(it);
    } else {
      ++it;
    }
  }
}

uint64_t LocalServerFilter::OpenCursorCount() const {
  std::lock_guard<std::mutex> lock(cursors_mu_);
  return cursors_.size();
}

StatusOr<gf::RingElem> LocalServerFilter::ReadShare(uint32_t pre) {
  StatusOr<gf::RingElem> share = Status::Internal("unset");
  SSDB_RETURN_IF_ERROR(store_->VisitByPre(
      pre, [&](const storage::NodeRow& row) {
        share = ring_.Deserialize(row.share);
      }));
  return share;
}

StatusOr<gf::Elem> LocalServerFilter::EvalRowAt(
    uint32_t pre, const gf::PowerTable& powers) {
  StatusOr<gf::Elem> value = Status::Internal("unset");
  SSDB_RETURN_IF_ERROR(store_->VisitByPre(
      pre, [&](const storage::NodeRow& row) {
        value = ring_.EvalAt(powers, row.share);
      }));
  return value;
}

Status LocalServerFilter::CheckPoint(gf::Elem t) const {
  if (!ring_.field().IsValid(t)) {
    return Status::InvalidArgument("evaluation point " + std::to_string(t) +
                                   " is not in F_" +
                                   std::to_string(ring_.field().q()));
  }
  return Status::OK();
}

StatusOr<gf::PowerTable> LocalServerFilter::PowersAt(gf::Elem t) const {
  SSDB_RETURN_IF_ERROR(CheckPoint(t));
  return ring_.Powers(t);
}

StatusOr<gf::Elem> LocalServerFilter::EvalAt(uint32_t pre, gf::Elem t) {
  CountTrip();
  SSDB_ASSIGN_OR_RETURN(gf::PowerTable powers, PowersAt(t));
  return EvalRowAt(pre, powers);
}

StatusOr<std::vector<gf::Elem>> LocalServerFilter::EvalAtBatch(
    const std::vector<uint32_t>& pres, gf::Elem t) {
  CountTrip();
  SSDB_ASSIGN_OR_RETURN(const gf::PowerTable powers, PowersAt(t));
  std::vector<gf::Elem> out;
  out.reserve(pres.size());
  for (uint32_t pre : pres) {
    SSDB_ASSIGN_OR_RETURN(gf::Elem value, EvalRowAt(pre, powers));
    out.push_back(value);
  }
  return out;
}

StatusOr<std::vector<gf::Elem>> LocalServerFilter::EvalPointsBatch(
    uint32_t pre, const std::vector<gf::Elem>& points) {
  CountTrip();
  // The list comes off the wire and may be as long as a frame allows:
  // check it whole before any work, then evaluate the one share by Horner,
  // so memory beyond the reply stays one share whatever the list length.
  for (gf::Elem t : points) SSDB_RETURN_IF_ERROR(CheckPoint(t));
  SSDB_ASSIGN_OR_RETURN(gf::RingElem share, ReadShare(pre));
  std::vector<gf::Elem> out;
  out.reserve(points.size());
  for (gf::Elem t : points) {
    out.push_back(ring_.Eval(share, t));
  }
  return out;
}

StatusOr<std::vector<gf::Elem>> LocalServerFilter::EvalGrid(
    const std::vector<uint32_t>& pres, const std::vector<gf::Elem>& points) {
  CountTrip();
  // The whole shape is checked before any table, reply or row.
  SSDB_RETURN_IF_ERROR(ValidateGrid(pres.size(), points));
  for (gf::Elem t : points) SSDB_RETURN_IF_ERROR(CheckPoint(t));
  const size_t k = points.size();
  std::vector<gf::Elem> out(pres.size() * k);
  // Power tables are built once per request, at most kTableElems elements
  // of them at a time: a long point list over a large field is served in
  // blocks of points, one pass over the rows each, so its memory stays
  // the reply plus one block (799 points at p = 83).
  constexpr size_t kTableElems = size_t{1} << 16;
  const size_t block = std::max<size_t>(1, kTableElems / ring_.n());
  std::vector<gf::PowerTable> tables;
  gf::RingElem unpacked;
  for (size_t first = 0; first < k; first += block) {
    const size_t last = std::min(k, first + block);
    tables.clear();
    for (size_t j = first; j < last; ++j) {
      tables.push_back(ring_.Powers(points[j]));
    }
    for (size_t i = 0; i < pres.size(); ++i) {
      Status status = Status::OK();
      SSDB_RETURN_IF_ERROR(store_->VisitByPre(
          pres[i], [&](const storage::NodeRow& row) {
            status = ring_.EvalAtPoints(tables, row.share, &unpacked,
                                        &out[i * k + first]);
          }));
      SSDB_RETURN_IF_ERROR(status);
    }
  }
  return out;
}

StatusOr<gf::RingElem> LocalServerFilter::FetchShare(uint32_t pre) {
  CountTrip();
  return ReadShare(pre);
}

StatusOr<std::vector<gf::RingElem>> LocalServerFilter::FetchShareBatch(
    const std::vector<uint32_t>& pres) {
  CountTrip();
  std::vector<gf::RingElem> out;
  out.reserve(pres.size());
  for (uint32_t pre : pres) {
    SSDB_ASSIGN_OR_RETURN(gf::RingElem share, ReadShare(pre));
    out.push_back(std::move(share));
  }
  return out;
}

StatusOr<std::vector<agg::Word>> LocalServerFilter::PartialAggregate(
    const agg::Spec& spec) {
  CountTrip();
  SSDB_RETURN_IF_ERROR(agg::ValidateSpec(spec));
  std::vector<agg::Word> partials(spec.value_indexes.size(), 0);
  // Duplicate frontier entries would double-count; dedup defensively (the
  // client canonicalizes, but the server must not trust it for its own
  // arithmetic to stay meaningful).
  std::vector<uint32_t> pres = spec.pres;
  std::sort(pres.begin(), pres.end());
  pres.erase(std::unique(pres.begin(), pres.end()), pres.end());
  for (uint32_t pre : pres) {
    // Column blobs come through the store's dedicated path (DESIGN.md §12):
    // on the column-store layout the heap row no longer carries them.
    SSDB_ASSIGN_OR_RETURN(storage::ColumnBlobs cols, store_->GetColumns(pre));
    size_t value_count = agg::BlobValueCount(cols.agg);
    if (value_count == 0) {
      return Status::FailedPrecondition(
          "node has no aggregate columns (database encoded without "
          "them, DESIGN.md §8)");
    }
    for (size_t g = 0; g < spec.value_indexes.size(); ++g) {
      uint32_t index = spec.value_indexes[g];
      if (index >= value_count) {
        return Status::InvalidArgument(
            "aggregate value index " + std::to_string(index) +
            " out of range (store has " + std::to_string(value_count) +
            " mapped values)");
      }
      for (size_t c = 0; c < agg::kColCount; ++c) {
        if ((spec.columns & (1u << c)) == 0) continue;
        partials[g] += agg::BlobWord(
            cols.agg,
            agg::WordIndex(static_cast<agg::Col>(c), value_count, index));
      }
    }
  }
  return partials;
}

StatusOr<std::vector<agg::VerifiedPartial>>
LocalServerFilter::PartialAggregateVerified(const agg::Spec& spec) {
  CountTrip();
  SSDB_RETURN_IF_ERROR(agg::ValidateSpec(spec));
  agg::VerifiedPartial partial;
  partial.words.assign(spec.value_indexes.size(), 0);
  // Whether this store carries the verification track is decided by the
  // first frontier row: a slice either stores it for every node (slice 0 of
  // a --verify-agg database) or for none. Mixed stores are corruption.
  bool decided = false;
  bool has_track = false;
  std::vector<uint32_t> pres = spec.pres;
  std::sort(pres.begin(), pres.end());
  pres.erase(std::unique(pres.begin(), pres.end()), pres.end());
  for (uint32_t pre : pres) {
    SSDB_ASSIGN_OR_RETURN(storage::ColumnBlobs cols, store_->GetColumns(pre));
    size_t value_count = agg::BlobValueCount(cols.agg);
    if (value_count == 0) {
      return Status::FailedPrecondition(
          "node has no aggregate columns (database encoded without "
          "them, DESIGN.md §8)");
    }
    size_t verify_count = agg::VerifyBlobValueCount(cols.verify);
    if (!decided) {
      decided = true;
      has_track = verify_count > 0;
      if (has_track) {
        partial.wide.assign(spec.value_indexes.size(), 0);
        partial.proof.assign(spec.value_indexes.size(), 0);
      }
    }
    if (has_track && verify_count != value_count) {
      return Status::Corruption(
          "node verification track disagrees with its aggregate "
          "columns (DESIGN.md §9)");
    }
    for (size_t g = 0; g < spec.value_indexes.size(); ++g) {
      uint32_t index = spec.value_indexes[g];
      if (index >= value_count) {
        return Status::InvalidArgument(
            "aggregate value index " + std::to_string(index) +
            " out of range (store has " + std::to_string(value_count) +
            " mapped values)");
      }
      for (size_t c = 0; c < agg::kColCount; ++c) {
        if ((spec.columns & (1u << c)) == 0) continue;
        size_t w =
            agg::WordIndex(static_cast<agg::Col>(c), value_count, index);
        partial.words[g] += agg::BlobWord(cols.agg, w);
        if (has_track) {
          partial.wide[g] += agg::BlobWide(cols.verify, w);
          partial.proof[g] += agg::BlobProof(cols.verify, w);
        }
      }
    }
  }
  std::vector<agg::VerifiedPartial> out;
  out.push_back(std::move(partial));
  return out;
}

StatusOr<std::vector<storage::MutationState>>
LocalServerFilter::MutationStates() {
  CountTrip();
  SSDB_ASSIGN_OR_RETURN(storage::MutationState state,
                        store_->GetMutationState());
  return std::vector<storage::MutationState>{state};
}

Status LocalServerFilter::PrepareMutation(
    uint64_t txn, const std::vector<storage::MutationPlan>& plans) {
  CountTrip();
  if (plans.size() != 1) {
    return Status::InvalidArgument(
        "single-server filter expects exactly one mutation plan, got " +
        std::to_string(plans.size()));
  }
  return store_->PrepareMutation(txn, plans[0]);
}

Status LocalServerFilter::CommitMutation(uint64_t txn) {
  CountTrip();
  return store_->CommitMutation(txn);
}

Status LocalServerFilter::AbortMutation(uint64_t txn) {
  CountTrip();
  return store_->AbortMutation(txn);
}

StatusOr<std::vector<storage::ColumnBlobs>>
LocalServerFilter::FetchColumnsBatch(const std::vector<uint32_t>& pres) {
  CountTrip();
  std::vector<storage::ColumnBlobs> out;
  out.reserve(pres.size());
  for (uint32_t pre : pres) {
    SSDB_ASSIGN_OR_RETURN(storage::ColumnBlobs cols, store_->GetColumns(pre));
    out.push_back(std::move(cols));
  }
  return out;
}

StatusOr<std::string> LocalServerFilter::FetchSealed(uint32_t pre) {
  CountTrip();
  std::string sealed;
  SSDB_RETURN_IF_ERROR(store_->VisitByPre(
      pre, [&](const storage::NodeRow& row) { sealed = row.sealed; }));
  return sealed;
}

StatusOr<std::vector<std::string>> LocalServerFilter::FetchSealedBatch(
    const std::vector<uint32_t>& pres) {
  CountTrip();
  std::vector<std::string> out;
  out.reserve(pres.size());
  for (uint32_t pre : pres) {
    SSDB_RETURN_IF_ERROR(store_->VisitByPre(
        pre, [&](const storage::NodeRow& row) { out.push_back(row.sealed); }));
  }
  return out;
}

StatusOr<uint64_t> LocalServerFilter::NodeCount() {
  CountTrip();
  return store_->NodeCount();
}

}  // namespace ssdb::filter
