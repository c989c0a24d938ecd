#include "lib/layers.h"

#include <algorithm>
#include <map>
#include <utility>

#include "agg/columns.h"
#include "gf/field.h"
#include "gf/ring.h"
#include "prg/prg.h"

namespace ssdb::ledger {
namespace {

constexpr double kNsPerMs = 1e6;

// One client channel call: Send then the Receive that answered it.
struct Call {
  uint16_t channel = 0;
  int64_t start = 0;
  int64_t end = 0;
  int64_t receive_ns = 0;
  int server = -1;  // index into the op's ServerWork, -1 when unmatched
  int64_t duration() const { return end - start; }
};

// A server filter span and the self times of the store spans inside it.
struct ServerWork {
  const Span* span = nullptr;
  int64_t store = 0;
  int64_t columns = 0;
  int64_t prepare = 0;
  int64_t commit = 0;
  int64_t self() const {
    return span->duration_ns() - store - columns - prepare - commit;
  }
};

// Critical-path time of one op, by layer (ns).
struct Split {
  int64_t client_self = 0;
  int64_t server = 0;  // filter self, non-aggregate calls
  int64_t fold = 0;    // filter self, PartialAggregate*
  int64_t store = 0;
  int64_t columns = 0;
  int64_t prepare = 0;
  int64_t commit = 0;
  int64_t overhead = 0;  // call time no server span covers
  int64_t wait = 0;      // blocked in Receive
  int64_t straggler = 0; // slowest minus fastest call per exchange
  double doc_ratio = 0;  // slowest document's channel time / mean (corpus)

  int64_t attributed() const {
    return client_self + server + fold + store + columns + prepare + commit +
           overhead;
  }
};

int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  int64_t total = 0;
  int64_t cursor = INT64_MIN;
  for (const auto& [start, end] : intervals) {
    int64_t from = std::max(start, cursor);
    if (end > from) total += end - from;
    cursor = std::max(cursor, end);
  }
  return total;
}

// The index of the span in `sorted` (by start; spans of one thread never
// overlap) that contains [start, end], or -1.
int Containing(const std::vector<std::pair<const Span*, int>>& sorted,
               int64_t start, int64_t end) {
  auto it = std::upper_bound(
      sorted.begin(), sorted.end(), start,
      [](int64_t t, const std::pair<const Span*, int>& s) {
        return t < s.first->start_ns;
      });
  if (it == sorted.begin()) return -1;
  --it;
  return it->first->end_ns >= end ? it->second : -1;
}

// The index of the first span in `sorted` (by start) that lies inside
// [start, end], or -1: the server span answering one client call.
int Inside(const std::vector<std::pair<const Span*, int>>& sorted,
           int64_t start, int64_t end) {
  auto it = std::lower_bound(
      sorted.begin(), sorted.end(), start,
      [](const std::pair<const Span*, int>& s, int64_t t) {
        return s.first->start_ns < t;
      });
  if (it == sorted.end() || it->first->end_ns > end) return -1;
  return it->second;
}

Split SplitOp(const OpRecord& op, const std::vector<const Span*>& spans,
              uint32_t servers_per_doc) {
  std::map<uint16_t, std::vector<const Span*>> sends;
  std::map<uint16_t, std::vector<const Span*>> receives;
  std::vector<ServerWork> work;
  std::vector<const Span*> stores;
  for (const Span* s : spans) {
    switch (s->layer) {
      case Layer::kSend: sends[s->slice].push_back(s); break;
      case Layer::kReceive: receives[s->slice].push_back(s); break;
      case Layer::kServer: work.push_back(ServerWork{s}); break;
      case Layer::kOp: break;
      default: stores.push_back(s); break;
    }
  }

  // Store spans nest in the server span of the same slice and thread.
  std::map<std::pair<uint16_t, uint32_t>,
           std::vector<std::pair<const Span*, int>>> by_thread;
  std::map<uint16_t, std::vector<std::pair<const Span*, int>>> by_slice;
  for (size_t i = 0; i < work.size(); ++i) {
    const Span* s = work[i].span;
    by_thread[{s->slice, s->thread}].push_back({s, static_cast<int>(i)});
    by_slice[s->slice].push_back({s, static_cast<int>(i)});
  }
  for (const Span* s : stores) {
    auto it = by_thread.find({s->slice, s->thread});
    if (it == by_thread.end()) continue;
    int owner = Containing(it->second, s->start_ns, s->end_ns);
    if (owner < 0) continue;
    ServerWork& w = work[owner];
    switch (s->layer) {
      case Layer::kColumns: w.columns += s->self_ns(); break;
      case Layer::kPrepare: w.prepare += s->self_ns(); break;
      case Layer::kCommit: w.commit += s->self_ns(); break;
      default: w.store += s->self_ns(); break;
    }
  }

  // Calls, matched to the server span that lies inside each.
  std::map<uint32_t, std::vector<Call>> calls_by_doc;
  std::vector<std::pair<int64_t, int64_t>> all_intervals;
  for (const auto& [channel, channel_sends] : sends) {
    const std::vector<const Span*>& channel_receives = receives[channel];
    size_t n = std::min(channel_sends.size(), channel_receives.size());
    for (size_t j = 0; j < n; ++j) {
      Call call;
      call.channel = channel;
      call.start = channel_sends[j]->start_ns;
      call.end = channel_receives[j]->end_ns;
      call.receive_ns = channel_receives[j]->duration_ns();
      auto slice = by_slice.find(channel);
      if (slice != by_slice.end()) {
        call.server = Inside(slice->second, call.start, call.end);
      }
      all_intervals.push_back({call.start, call.end});
      calls_by_doc[channel / servers_per_doc].push_back(call);
    }
  }

  const int64_t client_self =
      (op.end_ns - op.start_ns) - UnionLength(all_intervals);

  // Exchanges per document: overlapping calls of its slices (a fan-out).
  // The straggler document — largest critical-path call time — is the one
  // whose exchanges block the op.
  Split best;
  int64_t best_critical = -1;
  std::vector<double> doc_times;
  for (auto& [doc, calls] : calls_by_doc) {
    std::sort(calls.begin(), calls.end(),
              [](const Call& a, const Call& b) { return a.start < b.start; });
    std::vector<std::pair<int64_t, int64_t>> intervals;
    Split doc_split;
    int64_t critical = 0;
    for (size_t i = 0; i < calls.size();) {
      size_t j = i + 1;
      int64_t group_end = calls[i].end;
      while (j < calls.size() && calls[j].start < group_end) {
        group_end = std::max(group_end, calls[j].end);
        ++j;
      }
      size_t slowest = i;
      int64_t fastest = calls[i].duration();
      for (size_t k = i; k < j; ++k) {
        if (calls[k].duration() > calls[slowest].duration()) slowest = k;
        fastest = std::min(fastest, calls[k].duration());
        intervals.push_back({calls[k].start, calls[k].end});
      }
      const Call& c = calls[slowest];
      critical += c.duration();
      doc_split.wait += c.receive_ns;
      if (j - i > 1) doc_split.straggler += c.duration() - fastest;
      if (c.server >= 0) {
        const ServerWork& w = work[c.server];
        (w.span->aggregate ? doc_split.fold : doc_split.server) += w.self();
        doc_split.store += w.store;
        doc_split.columns += w.columns;
        doc_split.prepare += w.prepare;
        doc_split.commit += w.commit;
        doc_split.overhead += c.duration() - w.span->duration_ns();
      } else {
        doc_split.overhead += c.duration();
      }
      i = j;
    }
    doc_times.push_back(static_cast<double>(UnionLength(intervals)));
    if (critical > best_critical) {
      best_critical = critical;
      best = doc_split;
    }
  }
  best.client_self = client_self;
  if (doc_times.size() > 1) {
    double sum = 0;
    double slowest = 0;
    for (double t : doc_times) {
      sum += t;
      slowest = std::max(slowest, t);
    }
    best.doc_ratio = sum > 0 ? slowest / (sum / doc_times.size()) : 0;
  }
  return best;
}

// Client-side work the primary slices saw requests for, re-run on its own:
// the PRG streams (client shares, aggregate and verification masks) and
// the ring evaluations of those shares at the requested points.
struct ReplayCost {
  int64_t prg_ns = 0;
  int64_t gf_ns = 0;
  uint64_t regens = 0;
  uint64_t evals = 0;
  uint64_t frontier = 0;
};

volatile uint64_t replay_sink = 0;

// Reads the mask words at `words` (ascending word indexes of `word_bytes`
// each) from one stream — the client's skip-walk over a node's masks.
uint64_t WalkStream(prg::Prg::Stream stream, const std::vector<size_t>& words,
                    size_t word_bytes) {
  uint64_t sum = 0;
  size_t position = 0;
  for (size_t w : words) {
    size_t byte = w * word_bytes;
    if (byte < position) continue;
    stream.Skip(byte - position);
    sum += word_bytes == 4 ? stream.NextUint32() : stream.NextUint64();
    position = byte + word_bytes;
  }
  return sum;
}

ReplayCost Replay(const std::vector<ReplayItem>& items,
                  const Workload& workload) {
  ReplayCost cost;
  gf::Ring ring(gf::Field::Make(83).value());
  prg::Prg prg(prg::Seed::FromUint64(workload.docs[0].seed));
  const size_t value_count = workload.map.size();
  uint64_t sink = 0;
  for (const ReplayItem& item : items) {
    if (item.kind == ReplayItem::Kind::kAggregate) {
      std::vector<size_t> words;
      for (uint32_t index : item.value_indexes) {
        for (size_t c = 0; c < agg::kColCount; ++c) {
          if ((item.columns & (1u << c)) == 0) continue;
          words.push_back(
              agg::WordIndex(static_cast<agg::Col>(c), value_count, index));
        }
      }
      std::sort(words.begin(), words.end());
      int64_t start = NowNs();
      for (uint32_t pre : item.pres) {
        sink += WalkStream(prg.StreamForAggColumns(pre, 0), words, 4);
        if (!item.verified) continue;
        for (uint32_t i = 1; i < workload.servers; ++i) {
          sink += WalkStream(prg.StreamForAggColumns(pre, i), words, 4);
        }
        // Wide then proof mask: 16 bytes per word position.
        sink += WalkStream(prg.StreamForVerifyColumns(pre), words, 16);
      }
      cost.prg_ns += NowNs() - start;
      const uint64_t streams = item.verified ? workload.servers + 1 : 1;
      cost.regens += item.pres.size() * streams;
      cost.frontier += item.pres.size();
      continue;
    }
    int64_t start = NowNs();
    std::vector<gf::RingElem> shares;
    shares.reserve(item.pres.size());
    for (uint32_t pre : item.pres) shares.push_back(prg.ClientShare(ring, pre));
    int64_t generated = NowNs();
    cost.prg_ns += generated - start;
    cost.regens += item.pres.size();
    if (item.kind == ReplayItem::Kind::kShares) continue;
    for (const gf::RingElem& share : shares) {
      for (gf::Elem point : item.points) sink += ring.Eval(share, point);
    }
    cost.gf_ns += NowNs() - generated;
    cost.evals += shares.size() * item.points.size();
  }
  replay_sink = sink;
  return cost;
}

}  // namespace

std::vector<Metric> LayerMetrics(const LayerInput& input) {
  const Workload& workload = *input.workload;
  const double ops = static_cast<double>(std::max<size_t>(1, input.ops.size()));

  std::vector<std::vector<const Span*>> by_op(input.ops.size() + 1);
  uint64_t messages = 0, bytes_out = 0, bytes_in = 0, rows = 0;
  uint64_t column_reads = 0, column_bytes = 0;
  bool folded = false;
  for (const Span& s : input.spans) {
    if (s.op == 0 || s.op > input.ops.size()) continue;
    by_op[s.op].push_back(&s);
    switch (s.layer) {
      case Layer::kSend:
        messages += s.count;
        bytes_out += s.bytes;
        break;
      case Layer::kReceive: bytes_in += s.bytes; break;
      case Layer::kStore: rows += s.count; break;
      case Layer::kColumns:
        ++column_reads;
        column_bytes += s.bytes;
        break;
      case Layer::kServer: folded = folded || s.aggregate; break;
      default: break;
    }
  }

  Split total;
  int64_t wall = 0, mutation_self = 0;
  uint64_t mutations = 0, reshared = 0, candidates = 0;
  uint64_t fetch_candidates = 0, fetch_results = 0;
  uint64_t evaluations = 0, proof_words = 0, docs = 0, corpus_ops = 0;
  double doc_ratio = 0;
  for (size_t i = 0; i < input.ops.size(); ++i) {
    const OpRecord& op = input.ops[i];
    Split split = SplitOp(op, by_op[i + 1], workload.servers);
    wall += op.end_ns - op.start_ns;
    total.client_self += split.client_self;
    total.server += split.server;
    total.fold += split.fold;
    total.store += split.store;
    total.columns += split.columns;
    total.prepare += split.prepare;
    total.commit += split.commit;
    total.overhead += split.overhead;
    total.wait += split.wait;
    total.straggler += split.straggler;
    const OpKind kind = workload.classes[op.cls].kind;
    if (kind == OpKind::kFetch || kind == OpKind::kDocFetch) {
      fetch_candidates += op.stats.candidates_examined;
      fetch_results += op.stats.result_size;
    }
    if (IsMutation(kind)) {
      ++mutations;
      mutation_self += split.client_self;
      reshared += op.reshared_bytes;
    }
    if (split.doc_ratio > 0) {
      doc_ratio += split.doc_ratio;
      ++corpus_ops;
    }
    candidates += op.stats.candidates_examined;
    evaluations += op.stats.eval.evaluations;
    proof_words += op.proof_words;
    docs += op.docs;
  }
  const ReplayCost replay = Replay(input.replay, workload);

  auto per_op_ms = [ops](double ns) { return ns / kNsPerMs / ops; };
  std::vector<Metric> out = {
      {"query.candidates_per_op", candidates / ops, "count"},
      {"query.evals_per_op", evaluations / ops, "count"},
  };
  if (fetch_candidates > 0) {
    // Aggregates return groups, not nodes: only fetches have a yield.
    out.push_back({"query.useful_ratio",
                   static_cast<double>(fetch_results) / fetch_candidates,
                   "ratio"});
  }
  out.insert(out.end(), {
      {"filter.client_self_ms", per_op_ms(total.client_self), "ms"},
      {"filter.straggler_ms", per_op_ms(total.straggler), "ms"},
      {"filter.server_ms", per_op_ms(total.server), "ms"},
      {"prg.regens_per_op", replay.regens / ops, "count"},
      {"prg.replay_ms", per_op_ms(replay.prg_ns), "ms"},
      {"gf.evals_per_op", replay.evals / ops, "count"},
      {"gf.replay_ms", per_op_ms(replay.gf_ns), "ms"},
  });
  if (folded) {
    out.push_back({"agg.frontier_per_op", replay.frontier / ops, "count"});
    out.push_back({"agg.fold_ms", per_op_ms(total.fold), "ms"});
    out.push_back({"agg.proof_words_per_op", proof_words / ops, "count"});
  }
  out.push_back({"rpc.wait_ms", per_op_ms(total.wait), "ms"});
  out.push_back(
      {"rpc.server_overhead_ms", per_op_ms(total.overhead), "ms"});
  out.push_back({"rpc.messages_per_op", messages / ops, "count"});
  out.push_back({"rpc.bytes_out_per_op", bytes_out / ops, "B"});
  out.push_back({"rpc.bytes_in_per_op", bytes_in / ops, "B"});
  out.push_back({"rpc.queue_depth_peak",
                 static_cast<double>(input.queue_depth_peak), "count"});
  out.push_back({"storage.read_ms", per_op_ms(total.store), "ms"});
  out.push_back({"storage.rows_per_op", rows / ops, "count"});
  if (mutations > 0) {
    const double n = static_cast<double>(mutations);
    out.push_back({"storage.prepare_ms", total.prepare / kNsPerMs / n, "ms"});
    out.push_back({"storage.commit_ms", total.commit / kNsPerMs / n, "ms"});
    out.push_back({"storage.file_growth_bytes_per_cycle",
                   static_cast<double>(input.file_growth_bytes) /
                       std::max<uint64_t>(1, input.cycles),
                   "B"});
  }
  if (column_reads > 0) {
    out.push_back({"colstore.read_ms", per_op_ms(total.columns), "ms"});
    out.push_back({"colstore.reads_per_op", column_reads / ops, "count"});
    out.push_back({"colstore.bytes_per_op", column_bytes / ops, "B"});
  }
  out.push_back({"encode.encode_s", input.encode_s, "s"});
  if (mutations > 0) {
    const double n = static_cast<double>(mutations);
    out.push_back({"encode.plan_ms", mutation_self / kNsPerMs / n, "ms"});
    out.push_back({"encode.reshared_bytes", reshared / n, "B"});
  }
  if (workload.corpus()) {
    out.push_back({"shard.docs_per_op", docs / ops, "count"});
    out.push_back({"shard.straggler_ratio",
                   corpus_ops > 0 ? doc_ratio / corpus_ops : 0, "ratio"});
  }
  out.push_back({"trace.coverage",
                 wall > 0 ? static_cast<double>(total.attributed()) / wall : 0,
                 "ratio"});
  out.push_back({"trace.overhead",
                 input.untraced_ops_per_s > 0
                     ? 1.0 - input.traced_ops_per_s / input.untraced_ops_per_s
                     : 0,
                 "fraction"});
  return out;
}

}  // namespace ssdb::ledger
