// ssdb_encode: the paper's MySQLEncode as a command-line tool (§5.1) —
// "acts on three files which are provided on the command-line: a map file,
// a seed file, the original XML document".
//
//   ssdb_encode --map map.properties --seed seed.key --xml doc.xml
//               --out db.ssdb [--p 83] [--e 1] [--trie]
//               [--servers m] [--no-agg] [--verify-agg]
//
// --verify-agg additionally stores the aggregate verification track
// (DESIGN.md §9) on slice 0, letting ssdb_query --verify-agg detect and
// attribute a tampering server. Costs 112·|map| bytes per node.
//
// With --servers m > 1 the additive share is split across m slice files
// (DESIGN.md §5): db.ssdb.s0ofm ... db.ssdb.s(m-1)ofm, one per untrusted
// server. Each slice alone is uniformly random.

#include <cstdio>
#include <string>

#include "core/database.h"
#include "tools/tool_util.h"
#include "util/file_util.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

int main(int argc, char** argv) {
  using namespace ssdb;
  tools::FlagSet flags("ssdb_encode",
                       "--map MAP --seed SEED --xml DOC.xml --out DB.ssdb");
  const std::string* map_path =
      flags.String("map", "map.properties", "tag map file (key material)");
  const std::string* seed_path =
      flags.String("seed", "seed.key", "PRG seed file (key material)");
  const std::string* xml_path =
      flags.String("xml", "", "XML document to encode (required)");
  const std::string* out_path =
      flags.String("out", "db.ssdb", "output database (or slice base) path");
  const uint32_t* p = flags.Uint("p", 83, "field characteristic");
  const uint32_t* e = flags.Uint("e", 1, "field extension degree");
  const uint32_t* servers =
      flags.Uint("servers", 1, "split the share across m slice files");
  const bool* trie = flags.Bool("trie", "trie-encode tag values");
  const bool* no_agg = flags.Bool(
      "no-agg", "drop the aggregate columns (DESIGN.md §8; saves 28·|map| "
                "bytes per node per slice in the side column store — but "
                "disables aggregates and mutations, DESIGN.md §12)");
  const bool* verify_agg = flags.Bool(
      "verify-agg", "store the aggregate verification track (DESIGN.md §9; "
                    "costs 112·|map| bytes per node in slice 0's column "
                    "store; any tag-map size fits — blobs live outside the "
                    "4 KiB heap row, DESIGN.md §12)");

  Status parsed = flags.Parse(argc, argv);
  if (flags.help_requested()) {
    std::fputs(flags.Help().c_str(), stdout);
    return tools::kExitOk;
  }
  if (!parsed.ok()) return tools::UsageError(flags, parsed);
  if (xml_path->empty()) return tools::UsageError(flags, "--xml is required");
  if (*servers == 0) {
    return tools::UsageError(flags, "--servers must be >= 1");
  }
  if (*verify_agg && *no_agg) {
    return tools::UsageError(
        flags, "--verify-agg needs the aggregate columns (drop --no-agg)");
  }

  auto field = gf::Field::Make(*p, *e);
  if (!field.ok()) return tools::Fail(field.status());
  auto map = mapping::TagMap::FromFile(*map_path, *field);
  if (!map.ok()) return tools::Fail(map.status());
  auto seed = prg::Seed::LoadFromFile(*seed_path);
  if (!seed.ok()) return tools::Fail(seed.status());
  auto xml = ReadFileToString(*xml_path);
  if (!xml.ok()) return tools::Fail(xml.status());

  core::DatabaseOptions options;
  options.p = *p;
  options.e = *e;
  options.backend = core::Backend::kDisk;
  options.disk_path = *out_path;
  options.encode.trie = *trie;
  options.encode.aggregate_columns = !*no_agg;
  options.encode.verify_aggregate = *verify_agg;
  options.servers = *servers;

  Stopwatch watch;
  auto db = core::EncryptedXmlDatabase::Encode(*xml, *map, *seed, options);
  if (!db.ok()) return tools::Fail(db.status());
  double seconds = watch.ElapsedSeconds();

  auto stats = (*db)->store()->Stats();
  if (!stats.ok()) return tools::Fail(stats.status());
  std::printf("encoded %llu nodes from %s (%s) in %.2fs\n",
              (unsigned long long)stats->node_count, xml_path->c_str(),
              HumanBytes(xml->size()).c_str(), seconds);
  if (options.encode.verify_aggregate) {
    std::printf("verification track (DESIGN.md §9): %s on slice 0\n",
                HumanBytes((*db)->encode_result().verify_bytes).c_str());
  }
  for (uint32_t i = 0; i < *servers; ++i) {
    std::string path = core::ShareSlicePath(*out_path, i, *servers);
    auto slice_stats = (*db)->slice_store(i)->Stats();
    if (!slice_stats.ok()) return tools::Fail(slice_stats.status());
    std::printf("%s %s: data %s, indexes %s, file %s\n",
                *servers > 1 ? "slice" : "database", path.c_str(),
                HumanBytes(slice_stats->data_bytes).c_str(),
                HumanBytes(slice_stats->index_bytes).c_str(),
                HumanBytes(slice_stats->file_bytes).c_str());
  }
  return tools::kExitOk;
}
