// Client/server deployment (fig. 3): the server process holds only the
// encrypted store (pre/post/parent + server shares) and serves the filter
// protocol over a unix socket; the client holds the seed + map and runs
// queries remotely — the paper's RMI architecture, minus Java.
//
//   $ ./remote_demo

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "core/database.h"
#include "rpc/socket_channel.h"
#include "util/hex.h"
#include "xmark/generator.h"

int main() {
  using namespace ssdb;

  // --- "Server machine": encode and serve. ---
  xmark::GeneratorOptions gen;
  gen.target_bytes = 64 << 10;
  auto generated = xmark::GenerateAuctionDocument(gen);

  auto field = *gf::Field::Make(83);
  auto map = *core::EncryptedXmlDatabase::TagMapForDtd(xmark::AuctionDtd(),
                                                       field, false);
  prg::Seed seed = prg::Seed::Generate();

  auto server_db = core::EncryptedXmlDatabase::Encode(
      generated.xml, map, seed, core::DatabaseOptions{});
  if (!server_db.ok()) {
    std::fprintf(stderr, "%s\n", server_db.status().ToString().c_str());
    return 1;
  }

  // Show what the server actually sees: structure plus opaque shares.
  {
    auto row = (*server_db)->store()->GetByPre(2);
    if (row.ok()) {
      std::printf("server's view of node pre=2: post=%u parent=%u share=%s"
                  "...\n\n",
                  row->post, row->parent,
                  HexEncode(row->share.substr(0, 16)).c_str());
    }
  }

  std::string socket_path =
      "/tmp/ssdb_remote_demo_" + std::to_string(::getpid()) + ".sock";
  auto listener = rpc::UnixServerSocket::Listen(socket_path);
  if (!listener.ok()) {
    std::fprintf(stderr, "%s\n", listener.status().ToString().c_str());
    return 1;
  }
  std::thread server_thread([&] {
    auto channel = (*listener)->Accept();
    if (!channel.ok()) return;
    (*server_db)->Serve(channel->get());
  });

  // --- "Client machine": connect with seed + map only. ---
  auto channel = rpc::ConnectUnix(socket_path);
  if (!channel.ok()) {
    std::fprintf(stderr, "%s\n", channel.status().ToString().c_str());
    return 1;
  }
  std::vector<std::unique_ptr<rpc::Channel>> channels;
  channels.push_back(std::move(*channel));
  auto client_db = core::EncryptedXmlDatabase::ConnectRemoteMulti(
      std::move(channels), map, seed, 83, 1);
  if (!client_db.ok()) {
    std::fprintf(stderr, "%s\n", client_db.status().ToString().c_str());
    return 1;
  }

  for (const char* q : {"/site/people/person", "/site/*/person//city",
                        "//bidder/date"}) {
    auto result = (*client_db)
                      ->Query(q, core::EngineKind::kAdvanced,
                              query::MatchMode::kEquality);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    std::printf("remote query %-28s -> %zu result(s), %llu server calls\n",
                q, result->nodes.size(),
                (unsigned long long)result->stats.eval.server_calls);
  }

  // Drop the client (closes the channel); the server loop exits on EOF.
  client_db->reset();
  server_thread.join();
  std::printf("\nserver shut down cleanly; it never saw a tag name, a\n"
              "query string, or a result.\n");
  return 0;
}
