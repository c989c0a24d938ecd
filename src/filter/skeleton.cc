#include "filter/skeleton.h"

#include <algorithm>
#include <string>
#include <utility>

namespace ssdb::filter {
namespace {

// A skeleton the primary served that cannot be a document's.
Status Refuse(const std::string& what) {
  return Status::Corruption("server 0: skeleton " + what);
}

}  // namespace

StatusOr<SkeletonCache> SkeletonCache::Fetch(ServerFilter* server) {
  Status mixed;
  for (int attempt = 0; attempt < 2; ++attempt) {
    std::vector<NodeMeta> rows;
    uint64_t version = 0;
    mixed = Status::OK();
    for (;;) {
      const uint32_t after = rows.empty() ? 0 : rows.back().pre;
      SSDB_ASSIGN_OR_RETURN(SkeletonPage page, server->Skeleton(after));
      if (page.nodes.size() > kSkeletonPage) {
        return Refuse("page of " + std::to_string(page.nodes.size()) +
                      " rows exceeds the " + std::to_string(kSkeletonPage) +
                      "-row page");
      }
      if (rows.empty()) {
        version = page.version;
      } else if (page.version != version) {
        mixed = Refuse("pages disagree on the document version (" +
                       std::to_string(version) + " then " +
                       std::to_string(page.version) + ")");
        break;
      }
      // Each page must continue the dense pre sequence, so pages advance
      // and the walk ends.
      for (const NodeMeta& node : page.nodes) {
        if (node.pre != rows.size() + 1) {
          return Refuse("row has pre " + std::to_string(node.pre) + " where " +
                        std::to_string(rows.size() + 1) +
                        " was due; pres must be dense in pre order");
        }
        rows.push_back(node);
      }
      if (page.nodes.size() < kSkeletonPage) break;
    }
    if (!mixed.ok()) continue;  // a commit landed between pages
    StatusOr<SkeletonCache> built = FromRows(std::move(rows), version);
    if (!built.ok()) {
      return Status(built.status().code(),
                    "server 0: " + built.status().message());
    }
    return built;
  }
  return mixed;
}

StatusOr<SkeletonCache> SkeletonCache::FromRows(std::vector<NodeMeta> rows,
                                                uint64_t version) {
  SkeletonCache cache;
  cache.nodes_ = std::move(rows);
  cache.version_ = version;
  SSDB_RETURN_IF_ERROR(cache.Index());
  return cache;
}

Status SkeletonCache::Index() {
  const size_t n = nodes_.size();
  if (n == 0) return Status::Corruption("skeleton has no nodes");
  last_.assign(n, 0);
  // Walk in pre order with the open ancestors on a stack: a node's parent
  // must be open, and nodes close in post order, so each post must be the
  // next rank. That is exactly a properly nested pre/post numbering.
  std::vector<uint32_t> open;
  uint32_t post = 0;
  auto close = [&](uint32_t last) -> Status {
    const NodeMeta& node = nodes_[open.back() - 1];
    if (node.post != ++post) {
      return Status::Corruption(
          "skeleton node " + std::to_string(node.pre) + " has post " +
          std::to_string(node.post) + " but closes at rank " +
          std::to_string(post) + "; pre/post intervals do not nest");
    }
    last_[node.pre - 1] = last;
    open.pop_back();
    return Status::OK();
  };
  for (size_t i = 0; i < n; ++i) {
    const NodeMeta& node = nodes_[i];
    const uint32_t pre = static_cast<uint32_t>(i + 1);
    if (node.pre != pre) {
      return Status::Corruption("skeleton row has pre " +
                                std::to_string(node.pre) + " where " +
                                std::to_string(pre) + " was due");
    }
    if (i == 0) {
      if (node.parent != 0) {
        return Status::Corruption("skeleton root has parent " +
                                  std::to_string(node.parent));
      }
    } else {
      if (node.parent == 0 || node.parent >= pre) {
        return Status::Corruption(
            "skeleton node " + std::to_string(pre) + " has parent " +
            std::to_string(node.parent) + "; a parent must precede it");
      }
      while (!open.empty() && open.back() != node.parent) {
        SSDB_RETURN_IF_ERROR(close(pre - 1));
      }
      if (open.empty()) {
        return Status::Corruption(
            "skeleton node " + std::to_string(pre) + "'s parent " +
            std::to_string(node.parent) +
            " closed before it; subtrees must be contiguous in pre order");
      }
    }
    open.push_back(pre);
  }
  while (!open.empty()) {
    SSDB_RETURN_IF_ERROR(close(static_cast<uint32_t>(n)));
  }
  return Status::OK();
}

void SkeletonCache::AppendChildren(uint32_t pre,
                                   std::vector<NodeMeta>* out) const {
  const uint32_t last = last_[pre - 1];
  for (uint32_t child = pre + 1; child <= last; child = last_[child - 1] + 1) {
    out->push_back(nodes_[child - 1]);
  }
}

Status SkeletonCache::Apply(const storage::MutationPlan& plan,
                            uint64_t version) {
  std::vector<NodeMeta> rows;
  rows.reserve(nodes_.size() + plan.upserts.size());
  for (NodeMeta node : nodes_) {
    if (plan.erase_lo <= plan.erase_hi && node.pre >= plan.erase_lo &&
        node.pre <= plan.erase_hi) {
      continue;
    }
    if (plan.shift_delta != 0 && node.pre > plan.shift_pre_gt) {
      // A shifted row keeps its shares under the pre they were drawn at.
      if (node.nonce == 0) node.nonce = node.pre;
      node.pre = static_cast<uint32_t>(node.pre + plan.shift_delta);
      node.post = static_cast<uint32_t>(node.post + plan.shift_delta);
      if (node.parent > plan.shift_pre_gt) {
        node.parent = static_cast<uint32_t>(node.parent + plan.shift_delta);
      }
    }
    rows.push_back(node);
  }
  // Erase and shift keep pre order; upserts replace rows in place or fill
  // the gap an insert's shift opened.
  const auto kept = static_cast<std::ptrdiff_t>(rows.size());
  for (const storage::NodeRow& row : plan.upserts) {
    const NodeMeta meta = MetaOf(row);
    auto it = std::lower_bound(rows.begin(), rows.begin() + kept, meta);
    if (it != rows.begin() + kept && it->pre == meta.pre) {
      *it = meta;
    } else {
      rows.push_back(meta);
    }
  }
  std::sort(rows.begin() + kept, rows.end());
  std::inplace_merge(rows.begin(), rows.begin() + kept, rows.end());
  SSDB_ASSIGN_OR_RETURN(SkeletonCache next, FromRows(std::move(rows), version));
  *this = std::move(next);
  return Status::OK();
}

bool SkeletonCache::operator==(const SkeletonCache& other) const {
  if (version_ != other.version_ || nodes_.size() != other.nodes_.size()) {
    return false;
  }
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (!(nodes_[i] == other.nodes_[i]) ||
        nodes_[i].nonce != other.nodes_[i].nonce) {
      return false;
    }
  }
  return true;
}

}  // namespace ssdb::filter
