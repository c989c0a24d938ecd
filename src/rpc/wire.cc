#include "rpc/wire.h"

#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/varint.h"

namespace ssdb::rpc {

Status WriteFull(int fd, const void* data, size_t len) {
  const char* p = static_cast<const char*>(data);
  size_t remaining = len;
  while (remaining > 0) {
    // MSG_NOSIGNAL: a peer that vanished mid-frame must surface as EPIPE,
    // not a process-killing SIGPIPE — a multi-client server (DESIGN.md §7)
    // outlives any one connection. Non-socket fds fall back to write().
    ssize_t n = ::send(fd, p, remaining, MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK) n = ::write(fd, p, remaining);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("write: ") + std::strerror(errno));
    }
    p += n;
    remaining -= static_cast<size_t>(n);
  }
  return Status::OK();
}

Status ReadFull(int fd, void* data, size_t len) {
  char* p = static_cast<char*>(data);
  size_t remaining = len;
  while (remaining > 0) {
    ssize_t n = ::read(fd, p, remaining);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("read: ") + std::strerror(errno));
    }
    if (n == 0) {
      return Status::OutOfRange("connection closed");
    }
    p += n;
    remaining -= static_cast<size_t>(n);
  }
  return Status::OK();
}

namespace {

void EncodeFrameHeader(size_t payload_size, uint8_t header[kFrameHeaderBytes]) {
  uint32_t len = static_cast<uint32_t>(payload_size);
  for (size_t i = 0; i < kFrameHeaderBytes; ++i) {
    header[i] = static_cast<uint8_t>(len >> (8 * i));
  }
}

// Builds the scatter list for the unwritten tail of a frame at `offset`:
// whatever remains of the header, then whatever remains of the payload.
int FrameTailIov(const uint8_t header[kFrameHeaderBytes],
                 std::string_view payload, size_t offset, iovec iov[2]) {
  int count = 0;
  if (offset < kFrameHeaderBytes) {
    iov[count].iov_base = const_cast<uint8_t*>(header) + offset;
    iov[count].iov_len = kFrameHeaderBytes - offset;
    ++count;
  }
  size_t payload_offset =
      offset > kFrameHeaderBytes ? offset - kFrameHeaderBytes : 0;
  if (payload_offset < payload.size()) {
    iov[count].iov_base = const_cast<char*>(payload.data()) + payload_offset;
    iov[count].iov_len = payload.size() - payload_offset;
    ++count;
  }
  return count;
}

}  // namespace

Status WriteFrame(int fd, std::string_view payload) {
  if (payload.size() > kMaxFrameBytes) {
    return Status::InvalidArgument("frame exceeds maximum size");
  }
  uint8_t header[kFrameHeaderBytes];
  EncodeFrameHeader(payload.size(), header);
  const size_t total = payload.size() + kFrameHeaderBytes;
  size_t offset = 0;
  while (offset < total) {
    iovec iov[2];
    int count = FrameTailIov(header, payload, offset, iov);
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    // MSG_NOSIGNAL: a peer that vanished mid-frame must surface as EPIPE,
    // not a process-killing SIGPIPE (DESIGN.md §7).
    ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK) {
      // Non-socket fd: fall back to sequential full writes.
      if (offset < kFrameHeaderBytes) {
        SSDB_RETURN_IF_ERROR(
            WriteFull(fd, header + offset, kFrameHeaderBytes - offset));
        offset = kFrameHeaderBytes;
      }
      SSDB_RETURN_IF_ERROR(
          WriteFull(fd, payload.data() + (offset - kFrameHeaderBytes),
                    total - offset));
      return Status::OK();
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("write: ") + std::strerror(errno));
    }
    offset += static_cast<size_t>(n);
  }
  return Status::OK();
}

StatusOr<size_t> WriteFrameNonBlocking(int fd, std::string_view payload,
                                       size_t offset) {
  if (payload.size() > kMaxFrameBytes) {
    return Status::InvalidArgument("frame exceeds maximum size");
  }
  uint8_t header[kFrameHeaderBytes];
  EncodeFrameHeader(payload.size(), header);
  const size_t total = payload.size() + kFrameHeaderBytes;
  while (offset < total) {
    iovec iov[2];
    int count = FrameTailIov(header, payload, offset, iov);
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return offset;
      return Status::IOError(std::string("write: ") + std::strerror(errno));
    }
    offset += static_cast<size_t>(n);
  }
  return offset;
}

StatusOr<std::string> ReadFrame(int fd) {
  std::string payload;
  SSDB_RETURN_IF_ERROR(ReadFrameInto(fd, &payload));
  return payload;
}

Status ReadFrameInto(int fd, std::string* payload) {
  uint8_t header[kFrameHeaderBytes];
  SSDB_RETURN_IF_ERROR(ReadFull(fd, header, kFrameHeaderBytes));
  uint32_t len = 0;
  for (size_t i = 0; i < kFrameHeaderBytes; ++i) {
    len |= static_cast<uint32_t>(header[i]) << (8 * i);
  }
  if (len > kMaxFrameBytes) {
    return Status::Corruption("oversized frame");
  }
  payload->resize(len);
  return ReadFull(fd, payload->data(), len);
}

void AppendNodeMeta(std::string* out, const filter::NodeMeta& meta) {
  PutVarint64(out, meta.pre);
  PutVarint64(out, meta.post);
  PutVarint64(out, meta.parent);
  // Share nonce (DESIGN.md §12): 0 for unmutated nodes, so the common case
  // costs one byte.
  PutVarint64(out, meta.nonce);
}

Status ConsumeNodeMeta(std::string_view* in, filter::NodeMeta* meta) {
  uint64_t v = 0;
  SSDB_RETURN_IF_ERROR(GetVarint64(in, &v));
  meta->pre = static_cast<uint32_t>(v);
  SSDB_RETURN_IF_ERROR(GetVarint64(in, &v));
  meta->post = static_cast<uint32_t>(v);
  SSDB_RETURN_IF_ERROR(GetVarint64(in, &v));
  meta->parent = static_cast<uint32_t>(v);
  SSDB_RETURN_IF_ERROR(GetVarint64(in, &meta->nonce));
  return Status::OK();
}

void AppendNodeMetas(std::string* out,
                     const std::vector<filter::NodeMeta>& metas) {
  PutVarint64(out, metas.size());
  for (const auto& meta : metas) AppendNodeMeta(out, meta);
}

StatusOr<std::vector<filter::NodeMeta>> ConsumeNodeMetas(
    std::string_view* in) {
  uint64_t count = 0;
  SSDB_RETURN_IF_ERROR(GetVarint64(in, &count));
  // Every meta costs at least four bytes; a count beyond the remaining
  // bytes is a forged/truncated frame and must fail before the allocation.
  if (count > in->size()) {
    return Status::Corruption("node meta count exceeds payload");
  }
  std::vector<filter::NodeMeta> metas(count);
  for (uint64_t i = 0; i < count; ++i) {
    SSDB_RETURN_IF_ERROR(ConsumeNodeMeta(in, &metas[i]));
  }
  return metas;
}

void AppendElems(std::string* out, const std::vector<gf::Elem>& elems) {
  PutVarint64(out, elems.size());
  for (gf::Elem e : elems) PutVarint64(out, e);
}

StatusOr<std::vector<gf::Elem>> ConsumeElems(std::string_view* in) {
  uint64_t count = 0;
  SSDB_RETURN_IF_ERROR(GetVarint64(in, &count));
  // Every element costs at least one byte.
  if (count > in->size()) {
    return Status::Corruption("element count exceeds payload");
  }
  std::vector<gf::Elem> elems(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t v = 0;
    SSDB_RETURN_IF_ERROR(GetVarint64(in, &v));
    elems[i] = static_cast<gf::Elem>(v);
  }
  return elems;
}

void AppendU32s(std::string* out, const std::vector<uint32_t>& values) {
  PutVarint64(out, values.size());
  for (uint32_t v : values) PutVarint64(out, v);
}

StatusOr<std::vector<uint32_t>> ConsumeU32s(std::string_view* in) {
  uint64_t count = 0;
  SSDB_RETURN_IF_ERROR(GetVarint64(in, &count));
  // Every value costs at least one byte; a count beyond the remaining bytes
  // is a forged/truncated frame and must fail before the allocation.
  if (count > in->size()) {
    return Status::Corruption("u32 list count exceeds payload");
  }
  std::vector<uint32_t> values(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t v = 0;
    SSDB_RETURN_IF_ERROR(GetVarint64(in, &v));
    values[i] = static_cast<uint32_t>(v);
  }
  return values;
}

void AppendU64s(std::string* out, const std::vector<uint64_t>& values) {
  PutVarint64(out, values.size());
  for (uint64_t v : values) PutVarint64(out, v);
}

StatusOr<std::vector<uint64_t>> ConsumeU64s(std::string_view* in) {
  uint64_t count = 0;
  SSDB_RETURN_IF_ERROR(GetVarint64(in, &count));
  if (count > in->size()) {
    return Status::Corruption("u64 list count exceeds payload");
  }
  std::vector<uint64_t> values(count);
  for (uint64_t i = 0; i < count; ++i) {
    SSDB_RETURN_IF_ERROR(GetVarint64(in, &values[i]));
  }
  return values;
}

void AppendVerifiedPartials(
    std::string* out, const std::vector<agg::VerifiedPartial>& partials) {
  PutVarint64(out, partials.size());
  for (const agg::VerifiedPartial& partial : partials) {
    AppendU32s(out, partial.words);
    AppendU64s(out, partial.wide);
    AppendU64s(out, partial.proof);
  }
}

StatusOr<std::vector<agg::VerifiedPartial>> ConsumeVerifiedPartials(
    std::string_view* in) {
  uint64_t count = 0;
  SSDB_RETURN_IF_ERROR(GetVarint64(in, &count));
  // Each entry costs at least three count bytes.
  if (count > in->size()) {
    return Status::Corruption("verified partial count exceeds payload");
  }
  std::vector<agg::VerifiedPartial> partials(count);
  for (uint64_t i = 0; i < count; ++i) {
    SSDB_ASSIGN_OR_RETURN(partials[i].words, ConsumeU32s(in));
    SSDB_ASSIGN_OR_RETURN(partials[i].wide, ConsumeU64s(in));
    SSDB_ASSIGN_OR_RETURN(partials[i].proof, ConsumeU64s(in));
    if (partials[i].wide.size() != partials[i].proof.size()) {
      return Status::Corruption(
          "verified partial wide/proof length mismatch");
    }
  }
  return partials;
}

}  // namespace ssdb::rpc
