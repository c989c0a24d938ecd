// In-memory span log of the traced ledger run. The decorators in
// lib/traced.h record one span per call across a layer boundary — client
// channel sends and receives, server filter ops, node-store reads,
// column reads and mutation phases — into per-thread buffers; nothing is
// written until the run ends. Spans carry the id of the client op that was
// in flight (the traced run has a single client, so one global op id
// identifies the parent op on every thread, server workers included).

#ifndef SSDB_LEDGER_LIB_SPANS_H_
#define SSDB_LEDGER_LIB_SPANS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace ssdb::ledger {

enum class Layer : uint8_t {
  kOp,       // one client op, as the workload issued it
  kSend,     // rpc::Channel::Send on the client
  kReceive,  // rpc::Channel::Receive on the client (blocked waiting)
  kServer,   // one filter::ServerFilter call on a slice server
  kStore,    // storage::NodeStore row reads (self time, callbacks excluded)
  kColumns,  // storage::NodeStore::GetColumns (the column store)
  kPrepare,  // storage::NodeStore::PrepareMutation
  kCommit,   // storage::NodeStore::CommitMutation / AbortMutation
};

const char* LayerName(Layer layer);

struct Span {
  const char* name = "";  // static storage
  Layer layer = Layer::kOp;
  bool aggregate = false;   // kServer: a PartialAggregate* call
  uint16_t slice = 0;       // channel / server index (doc * m + slice)
  uint32_t thread = 0;      // small per-process thread number
  uint32_t op = 0;          // parent op id; 0 between ops
  int64_t start_ns = 0;     // steady clock
  int64_t end_ns = 0;
  int64_t callback_ns = 0;  // time spent in caller callbacks inside the span
  uint64_t count = 0;       // pres, rows or messages the call carried
  uint64_t bytes = 0;       // wire or column bytes the call moved

  int64_t duration_ns() const { return end_ns - start_ns; }
  int64_t self_ns() const { return end_ns - start_ns - callback_ns; }
};

int64_t NowNs();

// Process-wide span log. Recording is a no-op until Enable(true).
class SpanLog {
 public:
  static SpanLog& Get();

  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // The op id stamped on spans recorded from now on (0 = between ops).
  void SetCurrentOp(uint32_t op) {
    current_op_.store(op, std::memory_order_relaxed);
  }
  uint32_t current_op() const {
    return current_op_.load(std::memory_order_relaxed);
  }

  // Appends to the calling thread's buffer; fills `thread` and `op`.
  void Record(Span span);

  // Moves every thread's spans out, sorted by start time. Call once the
  // traced work has quiesced.
  std::vector<Span> Drain();

  // Writes spans as Chrome trace-event JSON (loadable in Perfetto).
  static Status WriteChromeTrace(const std::string& path,
                                 const std::vector<Span>& spans);

 private:
  struct Buffer {
    std::mutex mu;  // Record (owner thread) vs Drain (any thread)
    std::vector<Span> spans;
    uint32_t thread = 0;
  };

  Buffer* ThreadBuffer();

  std::atomic<bool> enabled_{false};
  std::atomic<uint32_t> current_op_{0};
  std::mutex buffers_mu_;
  std::vector<std::shared_ptr<Buffer>> buffers_;
};

// Records a span over its own lifetime when the log is enabled.
class SpanScope {
 public:
  SpanScope(const char* name, Layer layer, uint16_t slice)
      : active_(SpanLog::Get().enabled()) {
    if (!active_) return;
    span_.name = name;
    span_.layer = layer;
    span_.slice = slice;
    span_.start_ns = NowNs();
  }
  ~SpanScope() {
    if (!active_) return;
    span_.end_ns = NowNs();
    SpanLog::Get().Record(span_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  bool active() const { return active_; }
  Span& span() { return span_; }

 private:
  bool active_;
  Span span_;
};

}  // namespace ssdb::ledger

#endif  // SSDB_LEDGER_LIB_SPANS_H_
