#include "lib/spans.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>

namespace ssdb::ledger {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kOp: return "op";
    case Layer::kSend: return "rpc.send";
    case Layer::kReceive: return "rpc.receive";
    case Layer::kServer: return "filter.server";
    case Layer::kStore: return "storage";
    case Layer::kColumns: return "colstore";
    case Layer::kPrepare: return "storage.prepare";
    case Layer::kCommit: return "storage.commit";
  }
  return "?";
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanLog& SpanLog::Get() {
  static SpanLog* log = new SpanLog();  // outlives every server thread
  return *log;
}

SpanLog::Buffer* SpanLog::ThreadBuffer() {
  // The shared_ptr in buffers_ keeps a buffer alive after its thread exits,
  // so spans of shut-down server workers survive until Drain().
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_shared<Buffer>();
    std::lock_guard<std::mutex> lock(buffers_mu_);
    owned->thread = static_cast<uint32_t>(buffers_.size()) + 1;
    buffers_.push_back(owned);
    buffer = owned.get();
  }
  return buffer;
}

void SpanLog::Record(Span span) {
  Buffer* buffer = ThreadBuffer();
  span.thread = buffer->thread;
  span.op = current_op();
  std::lock_guard<std::mutex> lock(buffer->mu);
  buffer->spans.push_back(span);
}

std::vector<Span> SpanLog::Drain() {
  std::vector<Span> out;
  std::lock_guard<std::mutex> lock(buffers_mu_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
    buffer->spans.clear();
  }
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  return out;
}

Status SpanLog::WriteChromeTrace(const std::string& path,
                                 const std::vector<Span>& spans) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::IOError("cannot open span dump " + path);
  }
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::fprintf(file, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(file,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%u,"
                 "\"slice\":%u,\"count\":%" PRIu64 ",\"bytes\":%" PRIu64
                 ",\"callback_us\":%.3f}}\n",
                 i == 0 ? "" : ",", s.name, LayerName(s.layer), s.thread,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.duration_ns()) / 1e3, s.op,
                 static_cast<unsigned>(s.slice), s.count, s.bytes,
                 static_cast<double>(s.callback_ns) / 1e3);
  }
  std::fprintf(file, "]}\n");
  if (std::fclose(file) != 0) {
    return Status::IOError("cannot write span dump " + path);
  }
  return Status::OK();
}

}  // namespace ssdb::ledger
