// Concurrency battery for the multi-client transport (DESIGN.md §7) and
// its epoll readiness backend (rpc/event_poller.h):
//  * N client threads hammer one ConcurrentServer with mixed scalar and
//    batch ops against a shared XMark database; every thread's query
//    results must equal the plaintext ground truth;
//  * a 256-connection soak: mostly-idle connections with a rotating hot
//    subset, ground-truth results throughout, and the idle sweep
//    reclaiming every abandoned session afterwards;
//  * cursors opened on one connection are invisible to every other;
//  * a client that disconnects mid-batch must not wedge the accept loop or
//    leak cursor-table entries;
//  * the accept loop pauses at the max_connections budget (backpressure)
//    and resumes as connections close;
//  * a client that stops *reading* parks its response tail on the session
//    (buffered write path), never a worker; a reader stalled past the
//    max_write_buffer budget is closed and its cursors reclaimed; drained
//    tails arrive byte-identical;
//  * graceful shutdown drains and closes every connection.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "filter/client_filter.h"
#include "query/advanced_engine.h"
#include "query/ground_truth.h"
#include "query/simple_engine.h"
#include "rpc/client.h"
#include "rpc/concurrent_server.h"
#include "rpc/protocol.h"
#include "rpc/socket_channel.h"
#include "test_helpers.h"
#include "util/varint.h"
#include "xmark/generator.h"

namespace ssdb::rpc {
namespace {

using testing_helpers::BuildTestDb;
using testing_helpers::TestDb;

std::string SocketPath(const char* name) {
  return "/tmp/ssdb_concurrent_" + std::to_string(::getpid()) + "_" + name +
         ".sock";
}

// Shared XMark database plus a running ConcurrentServer over it.
struct ServerFixture {
  std::unique_ptr<TestDb> db;
  std::unique_ptr<ConcurrentServer> server;
  std::string path;

  explicit ServerFixture(const char* name,
                         ConcurrentServerOptions options = {}) {
    xmark::GeneratorOptions gen;
    gen.target_bytes = 16 << 10;
    gen.seed = 7;
    db = BuildTestDb(xmark::GenerateAuctionDocument(gen).xml);
    path = SocketPath(name);
    auto listener = UnixServerSocket::Listen(path);
    SSDB_CHECK(listener.ok());
    if (options.threads == 0) options.threads = 4;
    server = std::make_unique<ConcurrentServer>(
        db->ring, db->server.get(), std::move(*listener), options);
    SSDB_CHECK(server->Start().ok());
  }

  std::unique_ptr<RemoteServerFilter> Connect() {
    auto channel = ConnectUnix(path);
    SSDB_CHECK(channel.ok());
    return std::make_unique<RemoteServerFilter>(db->ring,
                                                std::move(*channel));
  }
};

// Spin until the server-side cursor table drains (close processing is
// asynchronous: the dispatcher must notice the dead fd first).
bool WaitForCursorCount(TestDb* db, uint64_t want, int rounds = 500) {
  for (int i = 0; i < rounds; ++i) {
    if (db->server->OpenCursorCount() == want) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return db->server->OpenCursorCount() == want;
}

bool WaitForOpenConnections(ConcurrentServer* server, size_t want,
                            int rounds = 1000) {
  for (int i = 0; i < rounds; ++i) {
    if (server->Snapshot().open_connections == want) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return server->Snapshot().open_connections == want;
}

template <typename Fn>
bool WaitForAtLeast(Fn value, uint64_t want, int rounds = 1000) {
  for (int i = 0; i < rounds; ++i) {
    if (value() >= want) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return value() >= want;
}

class ConcurrentServerTest : public ::testing::Test {};

TEST_F(ConcurrentServerTest, ManyClientsMatchGroundTruth) {
  ServerFixture fixture("hammer");
  const std::vector<std::string> queries = {
      "/site//person", "/site/people/person//city", "/site//bidder",
      "/site/*"};

  // Plaintext expectations, computed once up front.
  std::vector<std::set<uint32_t>> expected;
  for (const std::string& text : queries) {
    auto parsed = query::ParseQuery(text);
    ASSERT_TRUE(parsed.ok()) << text;
    auto truth = query::EvaluateGroundTruth(*parsed, fixture.db->doc);
    ASSERT_TRUE(truth.ok()) << text;
    expected.emplace_back(truth->begin(), truth->end());
  }
  // Scalar/batch baselines from the local filter (thread-safe by design).
  filter::ServerFilter* local = fixture.db->server.get();
  std::vector<gf::Elem> base_evals = *local->EvalAtBatch({1, 2, 3, 4}, 5);
  gf::RingElem base_share = *local->FetchShare(2);

  constexpr int kClients = 6;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto remote = fixture.Connect();
      filter::ClientFilter client(fixture.db->ring,
                                  prg::Prg(fixture.db->seed), remote.get());
      query::SimpleEngine simple(&client, &fixture.db->map);
      query::AdvancedEngine advanced(&client, &fixture.db->map);
      for (int round = 0; round < 2; ++round) {
        for (size_t qi = 0; qi < queries.size(); ++qi) {
          query::Query q = *query::ParseQuery(queries[qi]);
          query::QueryEngine* engine =
              (c + round) % 2 == 0
                  ? static_cast<query::QueryEngine*>(&simple)
                  : static_cast<query::QueryEngine*>(&advanced);
          auto result =
              engine->Execute(q, query::MatchMode::kEquality, nullptr);
          ASSERT_TRUE(result.ok()) << queries[qi];
          std::set<uint32_t> actual;
          for (const auto& node : *result) actual.insert(node.pre);
          EXPECT_EQ(actual, expected[qi])
              << "client " << c << " diverged on " << queries[qi];
        }
        // Mixed scalar + batch ops interleaved with the engine traffic.
        EXPECT_EQ(*remote->EvalAtBatch({1, 2, 3, 4}, 5), base_evals);
        EXPECT_EQ(*remote->EvalAt(2, 5), base_evals[1]);
        EXPECT_EQ(*remote->FetchShare(2), base_share);
        EXPECT_EQ((*remote->FetchShareBatch({2, 2}))[1], base_share);
        EXPECT_FALSE(remote->GetNode(1u << 30).ok());  // errors transport
      }
      ASSERT_TRUE(remote->Shutdown().ok());
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(fixture.server->Snapshot().connections_accepted, (uint64_t)kClients);
  // Every client shut its own connection down; the server must survive all
  // of them and still accept new work.
  auto late = fixture.Connect();
  EXPECT_EQ(*late->NodeCount(), *local->NodeCount());
  ASSERT_TRUE(late->Shutdown().ok());
  fixture.server->Shutdown();
  EXPECT_EQ(fixture.server->Snapshot().connections_accepted,
            fixture.server->Snapshot().connections_closed);
}

// The high-connection soak: 256 mostly-idle connections, a rotating hot
// subset doing real share ops, ground truth throughout; afterwards the
// idle sweep must reclaim every session (cursors included) without any
// client closing cleanly.
TEST_F(ConcurrentServerTest, HighConnectionSoakAndIdleSweep) {
  ConcurrentServerOptions options;
  options.idle_timeout_seconds = 1;
  ServerFixture fixture("soak", options);
  constexpr size_t kConnections = 256;
  constexpr size_t kHot = 32;

  filter::ServerFilter* local = fixture.db->server.get();
  std::vector<gf::Elem> base_evals = *local->EvalAtBatch({1, 2, 3, 4}, 5);
  gf::RingElem base_share = *local->FetchShare(2);
  auto q = *query::ParseQuery("/site//person");
  auto truth = query::EvaluateGroundTruth(q, fixture.db->doc);
  ASSERT_TRUE(truth.ok());

  std::vector<std::unique_ptr<RemoteServerFilter>> conns;
  conns.reserve(kConnections);
  for (size_t i = 0; i < kConnections; ++i) {
    conns.push_back(fixture.Connect());
  }
  // Rotating hot subset: each round touches a different window of the
  // connection set while the rest stay parked in the poller. A window
  // that sat idle past the sweep may have been reclaimed — that is the
  // sweep doing its job; the op is retried on a fresh connection and the
  // ground truth must still hold.
  for (size_t round = 0; round < kConnections / kHot; ++round) {
    for (size_t i = round * kHot; i < (round + 1) * kHot; ++i) {
      auto evals = conns[i]->EvalAtBatch({1, 2, 3, 4}, 5);
      if (!evals.ok()) {
        conns[i] = fixture.Connect();
        evals = conns[i]->EvalAtBatch({1, 2, 3, 4}, 5);
      }
      ASSERT_TRUE(evals.ok()) << "connection " << i;
      EXPECT_EQ(*evals, base_evals) << "connection " << i;
      auto share = conns[i]->FetchShare(2);
      if (!share.ok()) {  // swept between the two ops on a stalled runner
        conns[i] = fixture.Connect();
        share = conns[i]->FetchShare(2);
      }
      ASSERT_TRUE(share.ok()) << "connection " << i;
      EXPECT_EQ(*share, base_share) << "connection " << i;
    }
    // One full engine query per round, against the plaintext answer.
    filter::ClientFilter client(fixture.db->ring, prg::Prg(fixture.db->seed),
                                conns[round * kHot].get());
    query::AdvancedEngine engine(&client, &fixture.db->map);
    auto result = engine.Execute(q, query::MatchMode::kEquality, nullptr);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->size(), truth->size()) << "round " << round;
  }

  // Park cursors on a few fresh connections and abandon everything: the
  // idle sweep alone must close all sessions and reclaim the cursors.
  auto root = *local->Root();
  std::vector<std::unique_ptr<RemoteServerFilter>> cursor_conns;
  for (int i = 0; i < 4; ++i) {
    cursor_conns.push_back(fixture.Connect());
    auto cursor =
        cursor_conns.back()->OpenDescendantCursor(root.pre, root.post);
    ASSERT_TRUE(cursor.ok());
    ASSERT_TRUE(cursor_conns.back()->NextNodes(*cursor, 2).ok());
  }
  EXPECT_GE(fixture.db->server->OpenCursorCount(), 4u);

  EXPECT_TRUE(WaitForOpenConnections(fixture.server.get(), 0));
  EXPECT_TRUE(WaitForCursorCount(fixture.db.get(), 0));
  EXPECT_GE(fixture.server->Snapshot().connections_idle_closed, kConnections);

  // The server survived sweeping its whole connection set and still
  // accepts new clients.
  auto survivor = fixture.Connect();
  EXPECT_EQ(*survivor->NodeCount(), *local->NodeCount());
  ASSERT_TRUE(survivor->Shutdown().ok());
  fixture.server->Shutdown();
  EXPECT_EQ(fixture.server->Snapshot().connections_accepted,
            fixture.server->Snapshot().connections_closed);
}

TEST_F(ConcurrentServerTest, BackpressurePausesAcceptAtBudget) {
  ConcurrentServerOptions options;
  options.threads = 2;
  options.max_connections = 2;
  ServerFixture fixture("budget", options);

  auto a = fixture.Connect();
  auto b = fixture.Connect();
  ASSERT_TRUE(a->Root().ok());
  ASSERT_TRUE(b->Root().ok());
  EXPECT_EQ(fixture.server->Snapshot().open_connections, 2u);

  // A third client connects at the socket level (listen backlog) but must
  // not be accepted while the budget is spent; its first request blocks.
  std::atomic<bool> served{false};
  std::thread third([&] {
    auto remote = fixture.Connect();
    auto root = remote->Root();
    EXPECT_TRUE(root.ok());
    served.store(true);
    EXPECT_TRUE(remote->Shutdown().ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(fixture.server->Snapshot().open_connections, 2u);
  EXPECT_FALSE(served.load());

  // Freeing one slot resumes the accept loop and the queued client gets
  // served.
  ASSERT_TRUE(a->Shutdown().ok());
  third.join();
  EXPECT_TRUE(served.load());
  ASSERT_TRUE(b->Shutdown().ok());
  fixture.server->Shutdown();
  EXPECT_EQ(fixture.server->Snapshot().connections_accepted, 3u);
  EXPECT_EQ(fixture.server->Snapshot().connections_closed, 3u);
}

TEST_F(ConcurrentServerTest, CursorsAreInvisibleAcrossConnections) {
  ServerFixture fixture("cursors");
  auto a = fixture.Connect();
  auto b = fixture.Connect();
  auto root = a->Root();
  ASSERT_TRUE(root.ok());

  auto cursor_a = a->OpenDescendantCursor(root->pre, root->post);
  ASSERT_TRUE(cursor_a.ok());
  auto cursor_b = b->OpenDescendantCursor(root->pre, root->post);
  ASSERT_TRUE(cursor_b.ok());

  // The other connection's cursor id must look like a cursor that does not
  // exist — not readable, not closable.
  auto stolen = b->NextNodes(*cursor_a, 4);
  EXPECT_FALSE(stolen.ok());
  EXPECT_TRUE(stolen.status().IsNotFound());
  EXPECT_TRUE(b->CloseCursor(*cursor_a).ok());  // silently ignored
  auto own = a->NextNodes(*cursor_a, 4);
  ASSERT_TRUE(own.ok());
  EXPECT_FALSE(own->empty());

  // Both cursors drain fully and independently.
  size_t streamed_a = own->size();
  for (;;) {
    auto nodes = a->NextNodes(*cursor_a, 16);
    ASSERT_TRUE(nodes.ok());
    if (nodes->empty()) break;
    streamed_a += nodes->size();
  }
  size_t streamed_b = 0;
  for (;;) {
    auto nodes = b->NextNodes(*cursor_b, 16);
    ASSERT_TRUE(nodes.ok());
    if (nodes->empty()) break;
    streamed_b += nodes->size();
  }
  EXPECT_EQ(streamed_a, *fixture.db->server->NodeCount() - 1);
  EXPECT_EQ(streamed_a, streamed_b);
  EXPECT_EQ(fixture.db->server->OpenCursorCount(), 0u);
  ASSERT_TRUE(a->Shutdown().ok());
  ASSERT_TRUE(b->Shutdown().ok());
}

TEST_F(ConcurrentServerTest, MidBatchDisconnectCleansUpAndKeepsServing) {
  ServerFixture fixture("disconnect");
  auto root = *fixture.db->server->Root();

  // Ten clients in a row abandon a half-read cursor by dying abruptly —
  // no CloseCursor, no shutdown handshake.
  for (int i = 0; i < 10; ++i) {
    auto doomed = fixture.Connect();
    auto cursor = doomed->OpenDescendantCursor(root.pre, root.post);
    ASSERT_TRUE(cursor.ok());
    ASSERT_TRUE(doomed->NextNodes(*cursor, 2).ok());
    EXPECT_GE(fixture.db->server->OpenCursorCount(), 1u);
    doomed.reset();  // closes the socket with the cursor still open
  }

  // The server must reclaim every abandoned cursor...
  EXPECT_TRUE(WaitForCursorCount(fixture.db.get(), 0));
  // ...and the accept loop must still be alive for new clients.
  auto survivor = fixture.Connect();
  filter::ClientFilter client(fixture.db->ring, prg::Prg(fixture.db->seed),
                              survivor.get());
  query::AdvancedEngine engine(&client, &fixture.db->map);
  auto q = *query::ParseQuery("/site//person");
  auto result = engine.Execute(q, query::MatchMode::kEquality, nullptr);
  ASSERT_TRUE(result.ok());
  auto truth = query::EvaluateGroundTruth(q, fixture.db->doc);
  ASSERT_TRUE(truth.ok());
  EXPECT_EQ(result->size(), truth->size());
  ASSERT_TRUE(survivor->Shutdown().ok());

  EXPECT_EQ(fixture.server->Snapshot().connections_accepted, 11u);
  fixture.server->Shutdown();
  EXPECT_EQ(fixture.server->Snapshot().connections_closed, 11u);
}

TEST_F(ConcurrentServerTest, ShutdownUnblocksWorkerStalledOnPartialFrame) {
  ConcurrentServerOptions options;
  options.threads = 2;
  ServerFixture fixture("stall", options);
  auto channel = ConnectUnix(fixture.path);
  ASSERT_TRUE(channel.ok());
  // Two of the four frame-header bytes, then silence: the dispatcher hands
  // off the readable fd and the worker blocks awaiting the rest of the
  // frame.
  int fd = (*channel)->PollFd();
  const char partial[2] = {0x10, 0x00};
  ASSERT_EQ(::write(fd, partial, sizeof(partial)), 2);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Drain must not wait for the stalled client (or its 30s io timeout):
  // SHUT_RD turns the worker's blocked read into an immediate EOF.
  auto start = std::chrono::steady_clock::now();
  fixture.server->Shutdown();
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            5);
  EXPECT_EQ(fixture.server->Snapshot().connections_accepted, 1u);
  EXPECT_EQ(fixture.server->Snapshot().connections_closed, 1u);
}

// A client that stops reading its response must not park a worker: the
// unsent tail parks on the session (the EPOLLOUT buffered write path)
// while every worker keeps serving hot clients; a reader stalled past
// max_write_buffer is closed — cursors reclaimed — instead of buffering
// without bound; and a tail the client eventually drains arrives
// byte-identical, with the session re-armed for reads afterwards.
TEST_F(ConcurrentServerTest, SlowReaderBuffersThenBudgetCloses) {
  ConcurrentServerOptions options;
  options.threads = 2;
  options.so_sndbuf = 4096;            // tiny socket: force short writes
  options.max_write_buffer = 1 << 20;  // 1 MiB budget
  ServerFixture fixture("slowreader", options);
  filter::ServerFilter* local = fixture.db->server.get();
  auto root = *local->Root();
  gf::RingElem base_share = *local->FetchShare(2);
  std::vector<gf::Elem> base_evals = *local->EvalAtBatch({1, 2, 3, 4}, 5);

  // One encoded share entry, to size batches and verify flushed bytes.
  std::string entry;
  PutLengthPrefixed(&entry, fixture.db->ring.Serialize(base_share));
  // Overflows the socket buffer (stalls the write) but fits the budget...
  const size_t stall_count = (128 << 10) / entry.size() + 1;
  // ...and blows well past the budget at stall time.
  const size_t budget_count = (4 << 20) / entry.size() + 1;

  // Stalled reader: requests a large share batch, then reads nothing.
  Request fetch;
  fetch.op = Op::kFetchShareBatch;
  fetch.pres.assign(stall_count, 2);
  auto stalled = ConnectUnix(fixture.path);
  ASSERT_TRUE(stalled.ok());
  ASSERT_TRUE((*stalled)->Send(EncodeRequest(fetch)).ok());
  ASSERT_TRUE(
      WaitForAtLeast([&] { return fixture.server->Snapshot().write_stalls; }, 1));
  EXPECT_GT(fixture.server->Snapshot().bytes_buffered_peak, 0u);

  // With the stall outstanding, as many concurrent hot clients as there
  // are workers all get ground-truth answers — so no worker is parked on
  // the non-reading peer.
  std::vector<std::thread> hot;
  for (int c = 0; c < 2; ++c) {
    hot.emplace_back([&] {
      auto remote = fixture.Connect();
      for (int i = 0; i < 50; ++i) {
        auto evals = remote->EvalAtBatch({1, 2, 3, 4}, 5);
        ASSERT_TRUE(evals.ok());
        EXPECT_EQ(*evals, base_evals);
      }
      ASSERT_TRUE(remote->Shutdown().ok());
    });
  }
  for (std::thread& t : hot) t.join();

  // Budget hog: parks a cursor, then requests a batch whose unsent tail
  // exceeds max_write_buffer — the server closes it rather than buffer
  // without bound, and the close reclaims the cursor.
  auto hog = ConnectUnix(fixture.path);
  ASSERT_TRUE(hog.ok());
  Request open;
  open.op = Op::kOpenCursor;
  open.pre = root.pre;
  open.post = root.post;
  ASSERT_TRUE((*hog)->Send(EncodeRequest(open)).ok());
  ASSERT_TRUE((*hog)->Receive().ok());  // small response; read it
  EXPECT_GE(fixture.db->server->OpenCursorCount(), 1u);
  fetch.pres.assign(budget_count, 2);
  ASSERT_TRUE((*hog)->Send(EncodeRequest(fetch)).ok());
  ASSERT_TRUE(WaitForAtLeast(
      [&] { return fixture.server->Snapshot().write_budget_closed; }, 1));
  EXPECT_TRUE(WaitForCursorCount(fixture.db.get(), 0));

  // The stalled reader finally drains: every buffered byte arrives,
  // intact and in order.
  auto response = (*stalled)->Receive();
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->size(), 1 + stall_count * entry.size());
  EXPECT_EQ(static_cast<uint8_t>((*response)[0]), 1u);  // ok envelope
  for (size_t i = 0; i < stall_count; ++i) {
    ASSERT_EQ(response->compare(1 + i * entry.size(), entry.size(), entry), 0)
        << "entry " << i;
  }
  // The drained session is re-armed for reads: the same connection can
  // stall again — and this second park recycles the frame buffer the
  // first drain returned to the pool (the drain's Release strictly
  // precedes the read re-arm, which precedes the next request).
  fetch.pres.assign(stall_count, 2);
  ASSERT_TRUE((*stalled)->Send(EncodeRequest(fetch)).ok());
  ASSERT_TRUE(
      WaitForAtLeast([&] { return fixture.server->Snapshot().write_stalls; }, 3));
  response = (*stalled)->Receive();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->size(), 1 + stall_count * entry.size());
  Request count;
  count.op = Op::kNodeCount;
  ASSERT_TRUE((*stalled)->Send(EncodeRequest(count)).ok());
  EXPECT_TRUE((*stalled)->Receive().ok());

  (*stalled)->Close();
  fixture.server->Shutdown();
  EXPECT_EQ(fixture.server->Snapshot().connections_accepted,
            fixture.server->Snapshot().connections_closed);
  EXPECT_GE(fixture.server->Snapshot().write_stalls, 3u);
  EXPECT_EQ(fixture.server->Snapshot().bytes_buffered, 0u);
  EXPECT_GT(fixture.server->Snapshot().frames_reused, 0u);
}

// Soak (labelled slow): K stalled readers hold buffered response tails
// for the whole run while hot clients hammer; every hot op returns
// ground truth, nothing hangs, and all K tails drain intact at the end.
TEST_F(ConcurrentServerTest, SlowReaderSoakKeepsHotClientsServed) {
  ConcurrentServerOptions options;
  options.threads = 2;
  options.so_sndbuf = 4096;
  options.max_write_buffer = 8 << 20;
  ServerFixture fixture("slowsoak", options);
  filter::ServerFilter* local = fixture.db->server.get();
  gf::RingElem base_share = *local->FetchShare(2);
  std::vector<gf::Elem> base_evals = *local->EvalAtBatch({1, 2, 3, 4}, 5);

  std::string entry;
  PutLengthPrefixed(&entry, fixture.db->ring.Serialize(base_share));
  const size_t stall_count = (256 << 10) / entry.size() + 1;

  constexpr size_t kStalled = 4;
  Request fetch;
  fetch.op = Op::kFetchShareBatch;
  fetch.pres.assign(stall_count, 2);
  const std::string fetch_bytes = EncodeRequest(fetch);
  std::vector<std::unique_ptr<Channel>> stalled;
  for (size_t i = 0; i < kStalled; ++i) {
    auto channel = ConnectUnix(fixture.path);
    ASSERT_TRUE(channel.ok());
    ASSERT_TRUE((*channel)->Send(fetch_bytes).ok());
    stalled.push_back(std::move(*channel));
  }
  ASSERT_TRUE(WaitForAtLeast([&] { return fixture.server->Snapshot().write_stalls; },
                             kStalled));

  constexpr int kHotThreads = 2;
  std::vector<std::thread> hot;
  for (int c = 0; c < kHotThreads; ++c) {
    hot.emplace_back([&] {
      auto remote = fixture.Connect();
      for (int i = 0; i < 200; ++i) {
        auto evals = remote->EvalAtBatch({1, 2, 3, 4}, 5);
        ASSERT_TRUE(evals.ok());
        EXPECT_EQ(*evals, base_evals);
        auto share = remote->FetchShare(2);
        ASSERT_TRUE(share.ok());
        EXPECT_EQ(*share, base_share);
      }
      ASSERT_TRUE(remote->Shutdown().ok());
    });
  }
  for (std::thread& t : hot) t.join();

  // Every tail is still parked (nobody read a byte of them)...
  EXPECT_GE(fixture.server->Snapshot().write_stalls, kStalled);
  EXPECT_GT(fixture.server->Snapshot().bytes_buffered, 0u);
  // ...then drains intact.
  const size_t want = 1 + stall_count * entry.size();
  for (size_t i = 0; i < kStalled; ++i) {
    auto response = stalled[i]->Receive();
    ASSERT_TRUE(response.ok()) << "reader " << i;
    EXPECT_EQ(response->size(), want) << "reader " << i;
  }
  for (auto& channel : stalled) channel->Close();
  fixture.server->Shutdown();
  EXPECT_EQ(fixture.server->Snapshot().connections_accepted,
            fixture.server->Snapshot().connections_closed);
  EXPECT_EQ(fixture.server->Snapshot().bytes_buffered, 0u);
}

TEST_F(ConcurrentServerTest, GracefulShutdownClosesIdleConnections) {
  ServerFixture fixture("drain");
  auto a = fixture.Connect();
  auto b = fixture.Connect();
  EXPECT_TRUE(a->Root().ok());
  EXPECT_TRUE(b->Root().ok());

  fixture.server->Shutdown();
  EXPECT_EQ(fixture.server->Snapshot().connections_accepted, 2u);
  EXPECT_EQ(fixture.server->Snapshot().connections_closed, 2u);
  EXPECT_EQ(fixture.server->Snapshot().open_connections, 0u);
  // The socket file is gone: no new connections.
  EXPECT_FALSE(ConnectUnix(fixture.path).ok());
  // In-flight stubs observe the close as an error, not a hang.
  EXPECT_FALSE(a->Root().ok());
}

TEST(IdleSweepWaitTest, QuarterOfTimeoutWithClampsAndNoOverflow) {
  // Sweeps disabled: wait forever.
  EXPECT_EQ(IdleSweepWaitMs(0), -1);
  EXPECT_EQ(IdleSweepWaitMs(-5), -1);
  // Normal range: a quarter of the timeout, in milliseconds.
  EXPECT_EQ(IdleSweepWaitMs(60), 15'000);
  EXPECT_EQ(IdleSweepWaitMs(600), 150'000);
  // The smallest enabled timeout still yields a sane wait (and the 50ms
  // floor keeps the poll loop from spinning however the math changes).
  EXPECT_EQ(IdleSweepWaitMs(1), 250);
  // Regression: timeouts past ~24.8 days used to overflow the 32-bit
  // millisecond product and hand poll() a negative wait — i.e. an idle
  // timeout so large it effectively disabled sweeping entirely. The wait
  // must stay positive and capped (sweep at least hourly).
  EXPECT_EQ(IdleSweepWaitMs(30'000'000), 3'600'000);
  EXPECT_EQ(IdleSweepWaitMs(std::numeric_limits<int>::max()), 3'600'000);
}

}  // namespace
}  // namespace ssdb::rpc
