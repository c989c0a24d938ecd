#include "encode/encoder.h"

#include <vector>

#include "encode/node_encoder.h"
#include "util/file_util.h"
#include "xml/sax.h"

namespace ssdb::encode {

Encoder::Encoder(gf::Ring ring, const mapping::TagMap& map, prg::Prg prg,
                 storage::NodeStore* store, const EncodeOptions& options)
    : Encoder(ring, map, std::move(prg),
              std::vector<storage::NodeStore*>{store}, options) {}

Encoder::Encoder(gf::Ring ring, const mapping::TagMap& map, prg::Prg prg,
                 std::vector<storage::NodeStore*> stores,
                 const EncodeOptions& options)
    : ring_(ring),
      map_(map),
      prg_(std::move(prg)),
      stores_(std::move(stores)),
      options_(options) {}

StatusOr<EncodeResult> Encoder::EncodeString(std::string_view xml) {
  if (stores_.empty()) {
    return Status::InvalidArgument("encoder needs at least one store");
  }
  for (storage::NodeStore* store : stores_) {
    SSDB_ASSIGN_OR_RETURN(uint64_t existing, store->NodeCount());
    if (existing != 0) {
      return Status::FailedPrecondition("target store is not empty");
    }
  }
  const bool columns = options_.aggregate_columns;
  NodeSplitter splitter(ring_, prg_, stores_.size(),
                        columns && options_.verify_aggregate
                            ? VerifyKeys(prg_, map_.size())
                            : std::vector<uint64_t>());
  EncodeResult result;
  // Each closed node is split at its own pre position (stored nonce 0) and
  // rows[i] lands in stores_[i].
  auto store_node = [&](EncodedNode&& node) -> Status {
    std::string sealed;
    if (options_.seal_content) sealed = node.tag_name + "\n" + node.text;
    std::vector<storage::NodeRow> rows = splitter.Split(
        node.pre, node.post, node.parent, /*stored_nonce=*/0, node.pre,
        node.poly, columns ? StoredColumns(node.state)
                           : std::vector<agg::Word>(),
        options_.seal_content ? &sealed : nullptr);
    for (size_t i = 0; i < rows.size(); ++i) {
      result.share_bytes += rows[i].share.size();
      result.agg_bytes += rows[i].agg.size();
      result.verify_bytes += rows[i].verify.size();
      SSDB_RETURN_IF_ERROR(stores_[i]->Insert(rows[i]));
    }
    return Status::OK();
  };
  NodeEncoder handler(ring_, map_,
                      {columns, options_.seal_content, options_.trie},
                      store_node);
  xml::SaxParser parser;
  SSDB_RETURN_IF_ERROR(parser.Parse(xml, &handler));
  for (storage::NodeStore* store : stores_) {
    SSDB_RETURN_IF_ERROR(store->Flush());
  }
  result.node_count = handler.node_count();
  result.max_depth = handler.max_depth();
  result.input_bytes = xml.size();
  return result;
}

StatusOr<EncodeResult> Encoder::EncodeFile(const std::string& path) {
  SSDB_ASSIGN_OR_RETURN(std::string contents, ReadFileToString(path));
  return EncodeString(contents);
}

}  // namespace ssdb::encode
