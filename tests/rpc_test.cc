#include <gtest/gtest.h>

#include <unistd.h>

#include <thread>

#include "rpc/channel.h"
#include "rpc/client.h"
#include "rpc/protocol.h"
#include "rpc/server.h"
#include "rpc/socket_channel.h"
#include "test_helpers.h"

namespace ssdb::rpc {
namespace {

using testing_helpers::BuildTestDb;
using testing_helpers::SmallAuctionXml;

TEST(ChannelTest, InProcessPairDelivers) {
  ChannelPair pair = CreateInProcessChannelPair();
  ASSERT_TRUE(pair.client->Send("ping").ok());
  auto received = pair.server->Receive();
  ASSERT_TRUE(received.ok());
  EXPECT_EQ(*received, "ping");
  ASSERT_TRUE(pair.server->Send("pong").ok());
  EXPECT_EQ(*pair.client->Receive(), "pong");
  EXPECT_EQ(pair.client->bytes_sent(), 4u);
  EXPECT_EQ(pair.client->messages_sent(), 1u);
}

TEST(ChannelTest, CloseUnblocksReceiver) {
  ChannelPair pair = CreateInProcessChannelPair();
  std::thread closer([&] { pair.client->Close(); });
  auto received = pair.server->Receive();
  EXPECT_FALSE(received.ok());
  closer.join();
}

TEST(ProtocolTest, RequestRoundTripAllOps) {
  for (Op op : {Op::kRoot, Op::kGetNode, Op::kChildren, Op::kOpenCursor,
                Op::kNextNodes, Op::kCloseCursor, Op::kEvalAt,
                Op::kEvalAtBatch, Op::kFetchShare, Op::kNodeCount,
                Op::kShutdown, Op::kEvalPointsBatch, Op::kFetchSealed,
                Op::kFetchShareBatch, Op::kChildrenBatch,
                Op::kDescendantsBatch, Op::kNodesBatch, Op::kEvalGrid}) {
    Request request;
    request.op = op;
    request.pre = 12;
    request.post = 34;
    request.cursor = 56;
    request.batch = 78;
    request.point = 9;
    request.pres = {1, 2, 3};
    request.posts = {7, 8, 9};
    request.points = {4, 5};
    auto decoded = DecodeRequest(EncodeRequest(request));
    ASSERT_TRUE(decoded.ok()) << static_cast<int>(op);
    EXPECT_EQ(decoded->op, op);
    if (op == Op::kDescendantsBatch) {
      EXPECT_EQ(decoded->pre, 12u);
      EXPECT_EQ(decoded->pres, request.pres);
      EXPECT_EQ(decoded->posts, request.posts);
    }
    if (op == Op::kNodesBatch) {
      EXPECT_EQ(decoded->pres, request.pres);
    }
    if (op == Op::kEvalGrid) {
      EXPECT_EQ(decoded->points, request.points);
      EXPECT_EQ(decoded->pres, request.pres);
    }
  }
  EXPECT_FALSE(DecodeRequest("").ok());
  EXPECT_FALSE(DecodeRequest("\x63junk").ok());
}

TEST(ProtocolTest, HugeBatchCountRejectedWithoutAllocation) {
  // A tiny frame claiming a 2^60-element batch must decode to Corruption,
  // not attempt the allocation.
  for (Op op : {Op::kEvalAtBatch, Op::kEvalPointsBatch, Op::kFetchShareBatch,
                Op::kChildrenBatch, Op::kEvalGrid}) {
    std::string frame;
    frame.push_back(static_cast<char>(op));
    if (op == Op::kEvalAtBatch || op == Op::kEvalPointsBatch) {
      frame.push_back(1);  // leading point/pre varint
    }
    // varint for 2^60.
    for (int i = 0; i < 8; ++i) frame.push_back(static_cast<char>(0x80));
    frame.push_back(0x10);
    auto decoded = DecodeRequest(frame);
    EXPECT_FALSE(decoded.ok()) << static_cast<int>(op);
  }
}

TEST(ProtocolTest, ResponseEnvelope) {
  auto ok_payload = DecodeResponse(EncodeOkResponse("payload"));
  ASSERT_TRUE(ok_payload.ok());
  EXPECT_EQ(*ok_payload, "payload");
  auto error = DecodeResponse(
      EncodeErrorResponse(Status::NotFound("gone fishing")));
  ASSERT_FALSE(error.ok());
  EXPECT_TRUE(error.status().IsNotFound());
  EXPECT_EQ(error.status().message(), "gone fishing");
}

// The remote filter must behave exactly like the local one it proxies.
TEST(RemoteFilterTest, MatchesLocalOverInProcessChannel) {
  auto db = BuildTestDb(SmallAuctionXml());
  ChannelPair pair = CreateInProcessChannelPair();
  ServerThread server_thread(db->ring, db->server.get(),
                             std::move(pair.server));
  RemoteServerFilter remote(db->ring, std::move(pair.client));

  auto local_root = db->server->Root();
  auto remote_root = remote.Root();
  ASSERT_TRUE(local_root.ok() && remote_root.ok());
  EXPECT_EQ(*local_root, *remote_root);

  EXPECT_EQ(*remote.NodeCount(), *db->server->NodeCount());

  auto local_children = db->server->Children(1);
  auto remote_children = remote.Children(1);
  ASSERT_TRUE(local_children.ok() && remote_children.ok());
  EXPECT_EQ(*local_children, *remote_children);

  for (gf::Elem t = 1; t < 10; ++t) {
    EXPECT_EQ(*remote.EvalAt(1, t), *db->server->EvalAt(1, t));
  }
  auto batch = remote.EvalAtBatch({1, 2, 3}, 5);
  auto local_batch = db->server->EvalAtBatch({1, 2, 3}, 5);
  ASSERT_TRUE(batch.ok() && local_batch.ok());
  EXPECT_EQ(*batch, *local_batch);

  auto points = remote.EvalPointsBatch(1, {1, 2, 3, 4});
  auto local_points = db->server->EvalPointsBatch(1, {1, 2, 3, 4});
  ASSERT_TRUE(points.ok() && local_points.ok());
  EXPECT_EQ(*points, *local_points);

  // Point grids, in one frame and (82 points × 1000 pres, more than
  // kGridChunk values) in two.
  auto grid = remote.EvalGrid({3, 1, 2}, {5, 1, 9});
  auto local_grid = db->server->EvalGrid({3, 1, 2}, {5, 1, 9});
  ASSERT_TRUE(grid.ok() && local_grid.ok()) << grid.status().ToString();
  EXPECT_EQ(*grid, *local_grid);
  std::vector<gf::Elem> all_points;
  for (gf::Elem t = 1; t < 83; ++t) all_points.push_back(t);
  std::vector<uint32_t> many_pres(1000);
  for (size_t i = 0; i < many_pres.size(); ++i) {
    many_pres[i] = static_cast<uint32_t>(1 + i % 20);
  }
  ASSERT_GT(many_pres.size() * all_points.size(),
            RemoteServerFilter::kGridChunk);
  const uint64_t trips_before = remote.round_trips();
  auto wide_grid = remote.EvalGrid(many_pres, all_points);
  ASSERT_TRUE(wide_grid.ok()) << wide_grid.status().ToString();
  EXPECT_EQ(remote.round_trips() - trips_before, 2u);
  EXPECT_EQ(*wide_grid, *db->server->EvalGrid(many_pres, all_points));
  EXPECT_FALSE(remote.EvalGrid({1}, {4, 4}).ok());

  EXPECT_EQ(*remote.FetchShare(2), *db->server->FetchShare(2));

  // Multi-node batch ops match their scalar loops.
  auto share_batch = remote.FetchShareBatch({1, 2, 3});
  ASSERT_TRUE(share_batch.ok());
  ASSERT_EQ(share_batch->size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ((*share_batch)[i],
              *db->server->FetchShare(static_cast<uint32_t>(i + 1)));
  }
  auto children_batch = remote.ChildrenBatch({1, 2});
  auto local_children_batch = db->server->ChildrenBatch({1, 2});
  ASSERT_TRUE(children_batch.ok() && local_children_batch.ok());
  EXPECT_EQ(*children_batch, *local_children_batch);
  EXPECT_TRUE(remote.ChildrenBatch({})->empty());
  EXPECT_TRUE(remote.FetchShareBatch({})->empty());

  // Cursor pipeline across the wire.
  auto cursor = remote.OpenDescendantCursor(local_root->pre,
                                            local_root->post);
  ASSERT_TRUE(cursor.ok());
  size_t streamed = 0;
  for (;;) {
    auto nodes = remote.NextNodes(*cursor, 4);
    ASSERT_TRUE(nodes.ok());
    if (nodes->empty()) break;
    streamed += nodes->size();
  }
  EXPECT_EQ(streamed, *db->server->NodeCount() - 1);

  // Errors transport as errors.
  EXPECT_FALSE(remote.GetNode(4242).ok());

  EXPECT_GT(remote.round_trips(), 10u);
  ASSERT_TRUE(remote.Shutdown().ok());
}

TEST(SocketChannelTest, UnixSocketEndToEnd) {
  auto db = BuildTestDb(SmallAuctionXml());
  std::string socket_path = "/tmp/ssdb_rpc_test_" +
                            std::to_string(::getpid()) + ".sock";
  auto listener = UnixServerSocket::Listen(socket_path);
  ASSERT_TRUE(listener.ok());

  std::thread server_thread([&] {
    auto channel = (*listener)->Accept();
    if (!channel.ok()) return;
    RpcServer server(db->ring, db->server.get());
    server.Serve(channel->get());
  });

  auto channel = ConnectUnix(socket_path);
  ASSERT_TRUE(channel.ok());
  RemoteServerFilter remote(db->ring, std::move(*channel));
  auto root = remote.Root();
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->pre, 1u);
  EXPECT_EQ(*remote.NodeCount(), *db->server->NodeCount());
  ASSERT_TRUE(remote.Shutdown().ok());
  server_thread.join();
}

TEST(SocketChannelTest, ConnectToMissingSocketFails) {
  EXPECT_FALSE(ConnectUnix("/tmp/ssdb_no_such_socket.sock").ok());
}

// A full client pipeline (ClientFilter) over the remote stub must give the
// same answers as the local pipeline.
TEST(RemoteFilterTest, ClientFilterOverRpc) {
  auto db = BuildTestDb(SmallAuctionXml());
  ChannelPair pair = CreateInProcessChannelPair();
  ServerThread server_thread(db->ring, db->server.get(),
                             std::move(pair.server));
  RemoteServerFilter remote(db->ring, std::move(pair.client));
  filter::ClientFilter remote_client(db->ring, prg::Prg(db->seed), &remote);

  auto root = remote_client.Root();
  ASSERT_TRUE(root.ok());
  gf::Elem city = *db->map.Lookup("city");
  EXPECT_TRUE(*remote_client.ContainsValue(*root, city));
  EXPECT_EQ(*remote_client.RecoverOwnValue(*root), *db->map.Lookup("site"));
}

}  // namespace
}  // namespace ssdb::rpc
