// bench_ledger: the cost ledger. One invocation runs one named workload
// (lib/workload.h) against real slice servers over unix sockets and prints
// every end-to-end metric by name with its unit, then one LEDGER_JSON line.
//
//   bench_ledger --workload nav [--seed 42] [--seconds 10] [--dir D]
//   bench_ledger --workload nav --trace [--spans spans.json]
//   bench_ledger --selftest
//
// An untraced run has five phases: three set-ups (the median is setup_s;
// the first two copies are torn down), a correctness pass that runs every
// step of the cycle once and records the exact round-trip and byte counts,
// a 2 s warm-up, the timed window, and a guard that every read class got
// at least 100 samples. Clients run closed loops: each waits for its reply
// and finishes its current cycle after the window closes (ops past the
// deadline are checked but not counted), so rw-disk never stops halfway
// through an INSERT/DELETE pair. qps and the per-class percentiles are
// medians over five equal slices of the window (lib/stats.h), so a burst
// of outside load on a shared machine must cover most of a run to move
// them.
//
// A traced run (--trace) first runs the mix untraced for 5 s with one
// client, then deploys the traced stack (lib/traced.h) and runs a fixed
// number of cycles with one client, and prints the per-layer metrics
// (lib/layers.h). --spans writes the spans as Chrome trace-event JSON.
//
// LEDGER_JSON carries two verdicts: `correct` (every op matched the oracle
// and no descendant cursor leaked) and `valid` (every class got at least 100
// samples; on a traced run, the split covers 90-110% of op wall time). The
// exit status is 1 unless both hold.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "lib/layers.h"
#include "lib/spans.h"
#include "lib/stats.h"
#include "lib/workload.h"
#include "tools/tool_util.h"
#include "util/json.h"
#include "util/stopwatch.h"

namespace ssdb::ledger {
namespace {

constexpr int kSetups = 3;
constexpr double kWarmupSeconds = 2.0;
constexpr double kTraceBaselineSeconds = 5.0;
constexpr size_t kMaxErrorsShown = 5;

// Cycles run traced per workload: enough ops for stable per-op means
// (about 2-4 s of traced work on a 4-core machine), fixed so that every
// traced run measures the same work.
uint64_t TracedCycles(const std::string& workload) {
  if (workload == "nav") return 6;
  if (workload == "agg") return 60;
  if (workload == "rw-disk") return 25;
  return 40;  // corpus
}

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  void Add(const OpRecord& rec) {
    ++attempted;
    if (rec.ok) return;
    ++failed;
    if (errors.size() < kMaxErrorsShown) errors.push_back(rec.error);
  }
};

// Latency samples of one timed loop, per class: the ops that completed
// within [start_ns, end_ns).
struct LoopResult {
  std::map<size_t, std::vector<Sample>> samples;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  std::vector<Sample> all() const {
    std::vector<Sample> out;
    for (const auto& [cls, s] : samples) out.insert(out.end(), s.begin(), s.end());
    return out;
  }
};

// Runs `clients` closed-loop clients over the cycle until `seconds` have
// passed; each client then finishes its cycle. Client c starts at an offset
// into the cycle so concurrent clients do not run the same class in step.
LoopResult RunLoop(Deployment* dep, const Workload& workload, size_t clients,
                   double seconds, Tally* tally) {
  const size_t n = workload.cycle.size();
  LoopResult out;
  out.start_ns = NowNs();
  out.end_ns = out.start_ns + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::map<size_t, std::vector<Sample>>> samples(clients);
  std::vector<Tally> tallies(clients);
  auto client_loop = [&](size_t c) {
    const size_t offset = c * n / clients;
    for (size_t i = 0;; ++i) {
      if (i % n == 0 && NowNs() >= out.end_ns) break;
      OpRecord rec = dep->Run(c, workload, workload.cycle[(offset + i) % n]);
      tallies[c].Add(rec);
      if (!rec.ok || rec.end_ns >= out.end_ns) continue;
      samples[c][rec.cls].push_back({rec.end_ns, rec.latency_ms()});
    }
  };
  if (clients == 1) {
    client_loop(0);
  } else {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients; ++c) threads.emplace_back(client_loop, c);
    for (std::thread& thread : threads) thread.join();
  }
  for (size_t c = 0; c < clients; ++c) {
    for (auto& [cls, s] : samples[c]) {
      auto& merged = out.samples[cls];
      merged.insert(merged.end(), s.begin(), s.end());
    }
    tally->attempted += tallies[c].attempted;
    tally->failed += tallies[c].failed;
    for (const std::string& error : tallies[c].errors) {
      if (tally->errors.size() < kMaxErrorsShown) tally->errors.push_back(error);
    }
  }
  return out;
}

double RssPeakMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// All digits of a double, as JSON.
std::string Number(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %s %.10g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

// Per-class summary of the timed window and the correctness pass.
struct ClassSummary {
  uint64_t samples = 0;
  double p50_ms = 0;
  double p90_ms = 0;
  uint64_t round_trips = 0;  // correctness pass, exact
  uint64_t bytes = 0;        // correctness pass, exact
};

void PrintLedgerJson(const Workload& workload, uint64_t seed, double seconds,
                     bool traced, const Tally& tally, bool correct,
                     bool valid,
                     const std::vector<Metric>& metrics,
                     const std::map<std::string, ClassSummary>& classes,
                     const std::vector<std::string>& undersampled) {
  auto strings = [](const std::vector<std::string>& items) {
    std::string out = "[";
    for (const std::string& item : items) {
      if (out.size() > 1) out += ",";
      AppendJsonString(&out, item);
    }
    return out + "]";
  };
  std::string json = "{\"workload\":";
  AppendJsonString(&json, workload.name);
  json += ",\"seed\":" + std::to_string(seed) + ",\"seconds\":" +
          Number(seconds) + ",\"trace\":" + (traced ? "true" : "false") +
          ",\"correct\":" + (correct ? "true" : "false") +
          ",\"valid\":" + (valid ? "true" : "false") +
          ",\"attempted\":" + std::to_string(tally.attempted) +
          ",\"failed\":" + std::to_string(tally.failed) +
          ",\"errors\":" + strings(tally.errors) +
          ",\"undersampled\":" + strings(undersampled) + ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ",";
    AppendJsonString(&json, metrics[i].name);
    json += ":{\"value\":" + Number(metrics[i].value) + ",\"unit\":";
    AppendJsonString(&json, metrics[i].unit);
    json += "}";
  }
  json += "},\"classes\":{";
  for (const auto& [name, c] : classes) {
    if (json.back() != '{') json += ",";
    AppendJsonString(&json, name);
    json += ":{\"samples\":" + std::to_string(c.samples) +
            ",\"p50_ms\":" + Number(c.p50_ms) +
            ",\"p90_ms\":" + Number(c.p90_ms) +
            ",\"round_trips\":" + std::to_string(c.round_trips) +
            ",\"bytes\":" + std::to_string(c.bytes) + "}";
  }
  json += "}}";
  std::printf("LEDGER_JSON %s\n", json.c_str());
}

// 1 unless every op matched the oracle and no cursor leaked (`correct`)
// and the measurement checks held (`valid`: sample guard, trace coverage).
int ExitCode(bool correct, bool valid) { return correct && valid ? 0 : 1; }

// Runs every step of the cycle once on client 0.
std::vector<OpRecord> CorrectnessPass(Deployment* dep,
                                      const Workload& workload,
                                      Tally* tally) {
  std::vector<OpRecord> records;
  for (const Step& step : workload.cycle) {
    records.push_back(dep->Run(0, workload, step));
    tally->Add(records.back());
  }
  return records;
}

StatusOr<std::unique_ptr<Deployment>> SetUp(const Workload& workload,
                                            const std::string& dir,
                                            bool traced, size_t clients,
                                            Deployment::Timing* timing) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return Deployment::Start(workload, dir, traced, clients, timing);
}

int RunUntraced(Workload workload, uint64_t seed, double seconds,
                const std::string& dir) {
  std::vector<double> setups;
  std::unique_ptr<Deployment> dep;
  for (int k = 0; k < kSetups; ++k) {
    dep.reset();  // tear the previous copy down before timing the next
    Deployment::Timing timing;
    auto started = SetUp(workload, dir + "/copy" + std::to_string(k), false,
                         workload.clients, &timing);
    if (!started.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   started.status().ToString().c_str());
      return 1;
    }
    dep = std::move(*started);
    setups.push_back(timing.total_s);
    std::printf("setup %d %.6f s (encode %.6f s)\n", k, timing.total_s,
                timing.encode_s);
  }
  Status expected = dep->ComputeExpected(&workload);
  if (!expected.ok()) {
    std::fprintf(stderr, "oracle failed: %s\n", expected.ToString().c_str());
    return 1;
  }

  Tally tally;
  std::map<std::string, ClassSummary> classes;
  uint64_t pass_trips = 0, pass_bytes = 0;
  std::vector<OpRecord> pass = CorrectnessPass(dep.get(), workload, &tally);
  for (const OpRecord& rec : pass) {
    ClassSummary& c = classes[workload.classes[rec.cls].name];
    c.round_trips += rec.round_trips;
    c.bytes += rec.bytes;
    pass_trips += rec.round_trips;
    pass_bytes += rec.bytes;
  }
  const double stored = static_cast<double>(dep->StoredBytes());

  RunLoop(dep.get(), workload, workload.clients, kWarmupSeconds, &tally);
  LoopResult window =
      RunLoop(dep.get(), workload, workload.clients, seconds, &tally);
  const uint64_t open_cursors = dep->OpenCursors();
  dep->Shutdown();
  const double rss_mb = RssPeakMb();

  std::map<std::string, size_t> counts;
  std::vector<double> read_p50, read_p90, mutation_p50;
  for (size_t cls = 0; cls < workload.classes.size(); ++cls) {
    const OpClass& op_class = workload.classes[cls];
    const std::vector<Sample>& samples = window.samples[cls];
    ClassSummary& c = classes[op_class.name];
    c.samples = counts[op_class.name] = samples.size();
    c.p50_ms = SlicedPercentile(samples, 50, window.start_ns, window.end_ns);
    c.p90_ms = SlicedPercentile(samples, 90, window.start_ns, window.end_ns);
    if (IsMutation(op_class.kind)) {
      mutation_p50.push_back(c.p50_ms);
    } else {
      read_p50.push_back(c.p50_ms);
      read_p90.push_back(c.p90_ms);
    }
  }
  const std::vector<std::string> undersampled = UndersampledClasses(counts);

  const double ops = static_cast<double>(pass.size());
  std::vector<Metric> metrics = {
      {"setup_s", NearestRank(setups, 50), "s"},
      {"qps", SlicedRate(window.all(), window.start_ns, window.end_ns),
       "ops/s"},
      {"latency_p50_ms", GeoMean(read_p50), "ms"},
      {"latency_p90_ms", GeoMean(read_p90), "ms"},
  };
  if (!mutation_p50.empty()) {
    metrics.push_back({"mutation_p50_ms", GeoMean(mutation_p50), "ms"});
  }
  metrics.push_back({"round_trips_per_op", pass_trips / ops, "count"});
  metrics.push_back({"bytes_per_op", pass_bytes / ops, "B"});
  metrics.push_back({"error_rate",
                     tally.attempted > 0
                         ? static_cast<double>(tally.failed) / tally.attempted
                         : 0,
                     "fraction"});
  metrics.push_back({"stored_bytes_per_xml_byte",
                     stored / static_cast<double>(workload.xml_bytes()),
                     "ratio"});
  metrics.push_back({"rss_peak_mb", rss_mb, "MB"});

  for (const auto& [name, c] : classes) {
    std::printf("class %-28s samples=%-6llu p50_ms=%-9.3f p90_ms=%-9.3f "
                "round_trips=%-5llu bytes=%llu\n",
                name.c_str(), static_cast<unsigned long long>(c.samples),
                c.p50_ms, c.p90_ms,
                static_cast<unsigned long long>(c.round_trips),
                static_cast<unsigned long long>(c.bytes));
  }
  for (const std::string& error : tally.errors) {
    std::printf("error %s\n", error.c_str());
  }
  for (const std::string& name : undersampled) {
    std::printf("undersampled %s (< %zu samples)\n", name.c_str(),
                kMinClassSamples);
  }
  if (open_cursors != 0) {
    std::printf("error %llu descendant cursors left open\n",
                static_cast<unsigned long long>(open_cursors));
  }
  PrintMetrics(metrics);
  const bool correct = tally.failed == 0 && open_cursors == 0;
  const bool valid = undersampled.empty();
  PrintLedgerJson(workload, seed, seconds, false, tally, correct, valid,
                  metrics, classes, undersampled);
  return ExitCode(correct, valid);
}

int RunTraced(Workload workload, uint64_t seed, const std::string& dir,
              const std::string& spans_path) {
  Tally tally;
  LayerInput input;
  input.workload = &workload;

  // Untraced baseline: the plain stack, one client.
  {
    auto started = SetUp(workload, dir + "/plain", false, 1, nullptr);
    if (!started.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   started.status().ToString().c_str());
      return 1;
    }
    std::unique_ptr<Deployment> dep = std::move(*started);
    Status expected = dep->ComputeExpected(&workload);
    if (!expected.ok()) {
      std::fprintf(stderr, "oracle failed: %s\n",
                   expected.ToString().c_str());
      return 1;
    }
    CorrectnessPass(dep.get(), workload, &tally);
    LoopResult baseline =
        RunLoop(dep.get(), workload, 1, kTraceBaselineSeconds, &tally);
    input.untraced_ops_per_s = baseline.all().size() / kTraceBaselineSeconds;
    input.queue_depth_peak = dep->QueueDepthPeak();
  }

  Deployment::Timing timing;
  auto started = SetUp(workload, dir + "/traced", true, 1, &timing);
  if (!started.ok()) {
    std::fprintf(stderr, "traced set-up failed: %s\n",
                 started.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<Deployment> dep = std::move(*started);
  input.encode_s = timing.encode_s;
  CorrectnessPass(dep.get(), workload, &tally);  // warm, untimed, untraced
  const int64_t stored_before = static_cast<int64_t>(dep->StoredBytes());

  SpanLog& log = SpanLog::Get();
  log.Drain();
  log.Enable(true);
  input.cycles = TracedCycles(workload.name);
  Stopwatch traced;
  for (uint64_t cycle = 0; cycle < input.cycles; ++cycle) {
    for (const Step& step : workload.cycle) {
      log.SetCurrentOp(static_cast<uint32_t>(input.ops.size() + 1));
      input.ops.push_back(dep->Run(0, workload, step));
      log.SetCurrentOp(0);
      tally.Add(input.ops.back());
    }
  }
  input.traced_ops_per_s = input.ops.size() / traced.ElapsedSeconds();
  log.Enable(false);
  input.spans = log.Drain();
  input.replay = dep->replay()->Drain();
  input.file_growth_bytes =
      static_cast<int64_t>(dep->StoredBytes()) - stored_before;
  dep->Shutdown();

  std::vector<Metric> metrics = LayerMetrics(input);
  double coverage = 0;
  for (const Metric& m : metrics) {
    if (m.name == "trace.coverage") coverage = m.value;
  }
  const bool covered = coverage >= 0.9 && coverage <= 1.1;
  if (!covered) {
    std::printf("error trace.coverage %.3f outside 0.9-1.1\n", coverage);
  }
  if (!spans_path.empty()) {
    Status written = SpanLog::WriteChromeTrace(spans_path, input.spans);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("spans %zu written to %s\n", input.spans.size(),
                spans_path.c_str());
  }
  for (const std::string& error : tally.errors) {
    std::printf("error %s\n", error.c_str());
  }
  PrintMetrics(metrics);
  const bool correct = tally.failed == 0;
  PrintLedgerJson(workload, seed, 0, true, tally, correct, covered, metrics,
                  {}, {});
  return ExitCode(correct, covered);
}

// --- selftest -----------------------------------------------------------------

int failures = 0;

void Expect(bool condition, const std::string& what) {
  std::printf("%s %s\n", condition ? "ok  " : "FAIL", what.c_str());
  if (!condition) ++failures;
}

bool Near(double a, double b) { return std::abs(a - b) < 1e-9 * (1 + b); }

void SelftestStats() {
  std::vector<double> ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  Expect(NearestRank(ten, 50) == 5, "nearest-rank p50 of 1..10 is 5");
  Expect(NearestRank(ten, 90) == 9, "nearest-rank p90 of 1..10 is 9");
  Expect(NearestRank(ten, 100) == 10, "nearest-rank p100 of 1..10 is 10");
  Expect(NearestRank({7}, 90) == 7, "nearest-rank of one sample");
  Expect(Near(GeoMean({1, 100}), 10),
         "class geomean of 1 and 100 is 10: every class weighs the same");
  // Five 1 s slices; a burst makes every op of the first two slices 100x
  // slower and halves their rate. The medians over slices ignore it.
  std::vector<Sample> samples;
  const int64_t s = 1000000000;
  for (int slice = 0; slice < kWindowSlices; ++slice) {
    const bool burst = slice < 2;
    for (int i = 0; i < (burst ? 5 : 10); ++i) {
      samples.push_back({slice * s + i * s / 10, burst ? 100.0 : 1.0 + i});
    }
  }
  Expect(SlicedPercentile(samples, 50, 0, kWindowSlices * s) == 5,
         "sliced p50 ignores a burst over two of five slices");
  Expect(SlicedPercentile(samples, 90, 0, kWindowSlices * s) == 9,
         "sliced p90 ignores a burst over two of five slices");
  Expect(SlicedRate(samples, 0, kWindowSlices * s) == 10,
         "sliced rate ignores a burst over two of five slices");
  std::map<std::string, size_t> counts = {{"short", kMinClassSamples - 1},
                                          {"enough", kMinClassSamples}};
  Expect(UndersampledClasses(counts) == std::vector<std::string>{"short"},
         "sample guard flags exactly the class below 100 samples");
}

// The traced stack must answer exactly like the plain one, with the same
// round trips and wire bytes, and leave no cursor open.
void SelftestWorkload(const std::string& name, const std::string& dir) {
  auto made = MakeWorkload(name, 42);
  if (!made.ok()) {
    Expect(false, name + ": " + made.status().ToString());
    return;
  }
  Workload workload = std::move(*made);
  std::vector<OpRecord> plain, traced;
  for (bool with_trace : {false, true}) {
    auto started = SetUp(workload, dir + "/" + name, with_trace, 1, nullptr);
    if (!started.ok()) {
      Expect(false, name + " set-up: " + started.status().ToString());
      return;
    }
    std::unique_ptr<Deployment> dep = std::move(*started);
    Status expected = dep->ComputeExpected(&workload);
    Expect(expected.ok(), name + ": oracle built " + expected.ToString());
    SpanLog::Get().Enable(with_trace);
    Tally tally;
    (with_trace ? traced : plain) = CorrectnessPass(dep.get(), workload, &tally);
    SpanLog::Get().Enable(false);
    Expect(tally.failed == 0,
           name + (with_trace ? " traced" : " plain") +
               " correctness pass matches the oracle" +
               (tally.errors.empty() ? "" : ": " + tally.errors[0]));
    Expect(dep->OpenCursors() == 0,
           name + (with_trace ? " traced" : " plain") +
               ": OpenCursorCount() == 0");
    if (with_trace) {
      Expect(!SpanLog::Get().Drain().empty(), name + ": traced stack spans");
      dep->replay()->Drain();
    } else if (name == "nav") {
      // A flipped oracle entry must fail the op and the run.
      Step flipped = workload.cycle[0];
      flipped.expected.truth.push_back(1u << 30);
      flipped.expected.reference.push_back(1u << 30);
      Tally flipped_tally;
      flipped_tally.Add(dep->Run(0, workload, flipped));
      Expect(ExitCode(flipped_tally.failed == 0, true) == 1,
             "nav: a flipped oracle entry fails the op and exits 1");
    }
  }
  bool same = plain.size() == traced.size();
  for (size_t i = 0; same && i < plain.size(); ++i) {
    same = plain[i].pres == traced[i].pres &&
           plain[i].values == traced[i].values &&
           plain[i].round_trips == traced[i].round_trips &&
           plain[i].bytes == traced[i].bytes;
  }
  Expect(same, name + ": traced answers, round trips and wire bytes equal "
                      "the plain stack's");
}

int Selftest(const std::string& dir) {
  SelftestStats();
  for (const std::string& name : WorkloadNames()) SelftestWorkload(name, dir);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::printf("selftest %s (%d failure%s)\n", failures == 0 ? "passed" : "FAILED",
              failures, failures == 1 ? "" : "s");
  return failures == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  tools::FlagSet flags(
      "bench_ledger",
      "--workload nav|agg|rw-disk|corpus [--trace [--spans FILE]] | "
      "--selftest");
  const std::string* workload_flag =
      flags.String("workload", "", "workload to run");
  const uint32_t* seed_flag = flags.Uint("seed", 42, "input seed");
  const uint32_t* seconds_flag =
      flags.Uint("seconds", 10, "timed window length in seconds");
  const bool* trace_flag = flags.Bool("trace", "print per-layer metrics");
  const std::string* spans_flag =
      flags.String("spans", "", "write traced spans here (Chrome JSON)");
  const std::string* dir_flag = flags.String(
      "dir", "bench_ledger.work", "scratch directory for stores and sockets");
  const bool* selftest_flag = flags.Bool("selftest", "run the selftest");
  Status parsed = flags.Parse(argc, argv);
  if (flags.help_requested()) {
    std::fputs(flags.Help().c_str(), stdout);
    return tools::kExitOk;
  }
  if (!parsed.ok()) return tools::UsageError(flags, parsed);
  std::signal(SIGPIPE, SIG_IGN);
  if (*selftest_flag) return Selftest(*dir_flag);

  auto workload = MakeWorkload(*workload_flag, *seed_flag);
  if (!workload.ok()) return tools::UsageError(flags, workload.status());
  std::printf("workload %s: %s\n", workload->name.c_str(),
              workload->why.c_str());
  int code = *trace_flag
                 ? RunTraced(std::move(*workload), *seed_flag, *dir_flag,
                             *spans_flag)
                 : RunUntraced(std::move(*workload), *seed_flag,
                               *seconds_flag, *dir_flag);
  std::error_code ec;
  std::filesystem::remove_all(*dir_flag, ec);
  return code;
}

}  // namespace
}  // namespace ssdb::ledger

int main(int argc, char** argv) { return ssdb::ledger::Main(argc, argv); }
