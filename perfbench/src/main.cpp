// perfbench — end-to-end benchmark of the coalesced service.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--daemon PATH] [--work-dir DIR] [--commit SHA]
//
// Starts the coalesced daemon as its own process, drives one workload at
// it over its Unix socket from this process, checks every reply against a
// reference computed here, and prints as its last stdout line one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones; with --trace 1 a separate traced
// run prices each layer (layers.hpp). See README.md.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "client.hpp"
#include "daemon.hpp"
#include "layers.hpp"
#include "trace/export.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
namespace service = coalesce::service;
using Clock = std::chrono::steady_clock;
using coalesce::trace::json_escape;

/// Receive timeout on every timed call. A legitimate reply in these
/// workloads takes well under 100 ms; only the over-cap request waits it out.
constexpr int kCallTimeoutMs = 1000;
/// Warm-up and verification calls include cold JIT compiles.
constexpr int kSlowCallTimeoutMs = 30000;
constexpr int kDaemonStartTimeoutMs = 20000;
/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 3;
/// unique_mix rounds per client whose sources the set-up self-check vets.
constexpr std::uint64_t kSelfCheckRounds = 16;
/// A timed window during which the hypervisor gave more than this share
/// of the machine's CPU time to other guests measured the host, not the
/// program: it is measured again, up to kAttempts windows per run, and
/// the run reports the least disturbed one.
constexpr double kMaxStealShare = 0.03;
constexpr int kAttempts = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string daemon;
  std::string work_dir = ".bench_build";
  std::string commit = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int k = 1; k < argc; ++k) {
    std::string flag = argv[k];
    std::string value;
    if (const auto eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (k + 1 < argc) {
      value = argv[++k];
    } else {
      throw std::invalid_argument("missing value for " + flag);
    }
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
    } else if (flag == "--daemon") {
      args.daemon = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(args.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

std::string first_line_of(const std::string& command) {
  std::string out;
  if (FILE* pipe = ::popen(command.c_str(), "r")) {
    char buf[512];
    if (std::fgets(buf, sizeof buf, pipe) != nullptr) out = buf;
    ::pclose(pipe);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) out.pop_back();
  return out;
}

/// The compiler the JIT shells out to, resolved by the JIT's own rule:
/// $COALESCE_JIT_CC, then $CC, then "cc".
std::string jit_compiler() {
  for (const char* var : {"COALESCE_JIT_CC", "CC"}) {
    if (const char* v = std::getenv(var); v != nullptr && v[0] != '\0') return v;
  }
  return "cc";
}

/// CPU time (user+nice+system+idle+iowait+irq+softirq+steal ticks) and
/// the part of it the hypervisor gave to other guests, from /proc/stat.
struct CpuTicks {
  unsigned long long total = 0, steal = 0;
};

double steal_share(const CpuTicks& before, const CpuTicks& after) {
  const double ticks = static_cast<double>(after.total - before.total);
  return ticks > 0 ? static_cast<double>(after.steal - before.steal) / ticks
                   : 0.0;
}

CpuTicks cpu_ticks() {
  CpuTicks t;
  if (FILE* f = std::fopen("/proc/stat", "r")) {
    unsigned long long v[8] = {};
    if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                    &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
      for (unsigned long long x : v) t.total += x;
      t.steal = v[7];
    }
    std::fclose(f);
  }
  return t;
}

/// The host and run facts, so figures from different hosts or disturbed
/// runs are never compared unawares. `steal` is the share of this
/// machine's CPU time the hypervisor gave to other guests during the
/// reported window; `attempts` counts the timed windows it took.
void print_run_record(const Args& args, const Workload& workload,
                      double steal, int attempts) {
  const std::string cc = jit_compiler();
  const std::string cc_path = first_line_of("command -v '" + cc + "' 2>/dev/null");
  const std::string cc_version =
      first_line_of("'" + cc + "' --version 2>/dev/null");
  std::string flags;
  for (const std::string& f : workload.daemon_flags) {
    flags += (flags.empty() ? "\"" : ",\"") + json_escape(f) + "\"";
  }
  std::printf(
      "run_record: {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%s,"
      "\"trace\":%d,\"nproc\":%ld,\"cxx_compiler\":\"%s\",\"build_type\":\"%s\","
      "\"jit_cc\":\"%s\",\"jit_cc_path\":\"%s\",\"jit_cc_version\":\"%s\","
      "\"daemon_flags\":[%s],\"clients\":%zu,\"git_commit\":\"%s\","
      "\"cpu_steal_share\":%s,\"timed_attempts\":%d}\n",
      json_escape(workload.name).c_str(),
      static_cast<unsigned long long>(args.seed), number(args.seconds).c_str(),
      args.trace ? 1 : 0, ::sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_CXX_COMPILER,
      PERFBENCH_BUILD_TYPE, json_escape(cc).c_str(), json_escape(cc_path).c_str(),
      json_escape(cc_version).c_str(), flags.c_str(), workload.clients,
      json_escape(args.commit).c_str(), number(steal).c_str(), attempts);
  std::fflush(stdout);
}

/// One op that ended as expected.
struct Sample {
  double at = 0.0;       ///< client's active seconds at completion
  double latency = 0.0;  ///< round trip, seconds
  std::uint64_t points = 0;
};

/// Whole-run bookkeeping shared by every client thread.
struct Tally {
  std::mutex mutex;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  std::vector<Sample> samples;
  double excluded_seconds = 0.0;  ///< failed and over-cap ops' time

  std::size_t problems = 0;

  /// Reports the first few problems; a broken daemon would flood stderr.
  void note_problem(const std::string& why) {
    if (++problems <= 20) std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  }
};

/// Counts one op's outcome; the caller holds `tally.mutex`.
void count(Tally& tally, const Op& op, Outcome outcome, const std::string& why) {
  ++tally.attempted;
  if (outcome == Outcome::kFailed) {
    ++tally.failed;
    if (!op.over_cap) tally.note_problem(why);
  } else if (outcome == Outcome::kWrong) {
    ++tally.wrong;
    tally.note_problem(why);
  }
}

/// Records one op's outcome. `active` is the client's active seconds so
/// far; returns the seconds this op takes out of the client's active clock
/// (the over-cap request and failed ops stay out of every figure).
double record(Tally& tally, const Op& op, const Client::Result& result,
              Outcome outcome, const std::string& why, double active) {
  std::scoped_lock lock(tally.mutex);
  count(tally, op, outcome, why);
  if (op.over_cap || outcome == Outcome::kFailed) {
    tally.excluded_seconds += result.seconds;
    return result.seconds;
  }
  if (outcome == Outcome::kExpected) {
    tally.samples.push_back(
        Sample{active, result.seconds, op.expect_phase.empty() ? op.points : 0});
  }
  return 0.0;
}

/// Sends each op once (warm-up or verification); problems go to `tally`
/// as wrong ops. Runs the checker self-test on the first reply with data.
void send_once(const std::vector<OpPtr>& ops, const std::string& socket,
               Tally& tally, bool* self_tested) {
  Client client(socket, kSlowCallTimeoutMs);
  for (const OpPtr& op : ops) {
    const Client::Result result = client.call(
        submit_request(op->source, op->schedule, op->want_data, ""));
    std::string why;
    if (classify(*op, result, &why) != Outcome::kExpected) {
      std::scoped_lock lock(tally.mutex);
      ++tally.wrong;
      tally.note_problem("untimed pass: " + why);
      continue;
    }
    if (!*self_tested && op->want_data && op->reference != nullptr) {
      *self_tested = true;
      const std::string problem = checker_self_test(*op, result);
      if (!problem.empty()) {
        std::scoped_lock lock(tally.mutex);
        ++tally.wrong;
        tally.note_problem(problem);
      }
    }
  }
}

/// In-process checks that the workload exercises what it claims, over
/// the first rounds of every client: each program is refused exactly at
/// its expected phase, or admitted; each kernel it needs (the
/// codegen::prepare cache key of the daemon's plan) was compiled by the
/// warm-up, the over-cap request excepted; and for unique_mix, no source
/// repeats an earlier one or a warm-up source. Empty on success.
std::string generator_self_check(const Workload& workload) {
  std::set<std::string> warm_keys;
  std::unordered_set<std::string> seen;
  for (const OpPtr& op : workload.warmup) {
    if (!admission_phase(op->source).empty()) {
      return "warm-up program '" + op->label + "' is not admitted";
    }
    for (std::string& key : prepare_keys(op->source, workload.locality)) {
      warm_keys.insert(std::move(key));
    }
    seen.insert(op->source);
  }
  std::unordered_set<std::string> checked;
  for (std::uint64_t round = 0; round < kSelfCheckRounds; ++round) {
    for (std::size_t c = 0; c < workload.clients; ++c) {
      for (const OpPtr& op : workload.round(c, round)) {
        if (workload.unique_sources && !seen.insert(op->source).second) {
          return "source repeats: " + op->label;
        }
        if (!checked.insert(op->source).second) continue;
        const std::string phase = admission_phase(op->source);
        if (phase != op->expect_phase) {
          return "'" + op->label + "' refused at '" + phase + "', expected '" +
                 op->expect_phase + "'";
        }
        if (op->over_cap) continue;
        for (const std::string& key : prepare_keys(op->source, workload.locality)) {
          if (warm_keys.count(key) == 0) {
            return "'" + op->label + "' needs a kernel the warm-up did not compile";
          }
        }
      }
    }
  }
  return {};
}

/// A socket path short enough for sun_path, relative to the working
/// directory when the work directory is.
std::string socket_path(const std::string& work_dir, int n) {
  return work_dir + "/pb-" + std::to_string(::getpid()) + "-" +
         std::to_string(n) + ".sock";
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

using Metric = Tracer::Metric;

void print_result(bool correct, const Tally& tally,
                  const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(tally.attempted) +
                    ", \"failed\": " + std::to_string(tally.failed) +
                    ", \"metrics\": {";
  for (std::size_t k = 0; k < metrics.size(); ++k) {
    if (k > 0) out += ", ";
    out += "\"" + metrics[k].name + "\": {\"value\": " + number(metrics[k].value) +
           ", \"unit\": \"" + metrics[k].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Runs rounds `round`, `round + 1`, ... of the given clients on
/// `connection`, in turn, until `deadline` (whole rounds only), recording
/// into `tally`. Returns the next round.
std::uint64_t drive(const Workload& workload,
                    const std::vector<std::size_t>& clients,
                    Client& connection, Clock::time_point start,
                    Clock::time_point deadline, std::uint64_t round,
                    Tally& tally) {
  double excluded = 0.0;
  for (; Clock::now() < deadline; ++round) {
    for (const std::size_t client : clients) {
      for (const OpPtr& op : workload.round(client, round)) {
        const service::Request request =
            submit_request(op->source, op->schedule, op->want_data,
                           "tenant-" + std::to_string(client));
        const Client::Result result = connection.call(request);
        std::string why;
        const Outcome outcome = classify(*op, result, &why);
        excluded +=
            record(tally, *op, result, outcome, why, since(start) - excluded);
      }
    }
  }
  return round;
}

/// The end-to-end figures of a timed window `active` seconds long (its
/// excluded time taken out), as medians over consecutive windows of at
/// least kMinWindowSamples ops each (at most kMaxWindows), so a burst of
/// interference from outside moves a minority of windows, not the result.
struct Figures {
  double p50_us = 0, p90_us = 0, ops_per_s = 0, points_per_s = 0;
  std::size_t windows = 0;
};
constexpr std::size_t kMinWindowSamples = 100;
constexpr std::size_t kMaxWindows = 10;

Figures summarize(const std::vector<Sample>& samples, double active) {
  Figures f;
  f.windows = std::clamp<std::size_t>(samples.size() / kMinWindowSamples, 1,
                                      kMaxWindows);
  const double width = active / static_cast<double>(f.windows);
  std::vector<std::vector<double>> latencies(f.windows);
  std::vector<double> points(f.windows, 0.0);
  for (const Sample& s : samples) {
    const std::size_t w = std::min(
        f.windows - 1, static_cast<std::size_t>(std::max(0.0, s.at) / width));
    latencies[w].push_back(s.latency);
    points[w] += static_cast<double>(s.points);
  }
  std::vector<double> p50, p90, ops, pts;
  for (std::size_t w = 0; w < f.windows; ++w) {
    p50.push_back(percentile(latencies[w], 0.5) * 1e6);
    p90.push_back(percentile(latencies[w], 0.9) * 1e6);
    ops.push_back(static_cast<double>(latencies[w].size()) / width);
    pts.push_back(points[w] / width);
  }
  f.p50_us = percentile(p50, 0.5);
  f.p90_us = percentile(p90, 0.5);
  f.ops_per_s = percentile(ops, 0.5);
  f.points_per_s = percentile(pts, 0.5);
  return f;
}

int run(const Args& args) {
  const Workload workload = make_workload(args.workload, args.seed);

  std::filesystem::create_directories(args.work_dir + "/tmp");
  std::filesystem::create_directories(args.work_dir + "/spans");
  // The daemon's JIT and the C compiler it runs write here, inside the
  // checkout, and so does this process's own JIT in the traced run.
  ::setenv("TMPDIR", (std::filesystem::absolute(args.work_dir) / "tmp").c_str(), 1);
  const std::string log_path = args.work_dir + "/daemon.log";

  Tally tally;
  bool correct = true;
  if (const std::string problem = generator_self_check(workload); !problem.empty()) {
    std::fprintf(stderr, "perfbench: generator self-check: %s\n", problem.c_str());
    correct = false;
  }

  // ---- set-up: start, ping, warm-up (cold JIT compiles) ----------------
  const int setups = args.trace ? 1 : kSetups;
  std::vector<double> setup_seconds;
  std::unique_ptr<Daemon> daemon;
  bool self_tested = false;
  for (int s = 0; s < setups; ++s) {
    if (daemon) daemon->shutdown(10000);
    const auto t0 = Clock::now();
    daemon = std::make_unique<Daemon>(args.daemon, socket_path(args.work_dir, s),
                                      workload.daemon_flags, log_path,
                                      kDaemonStartTimeoutMs);
    send_once(workload.warmup, daemon->socket_path(), tally, &self_tested);
    setup_seconds.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
  }
  const std::string& socket = daemon->socket_path();

  std::vector<Metric> metrics;
  auto timed_ptr = std::make_unique<Tally>();
  double steal = 0.0;
  int attempts = 1;
  std::uint64_t wrong_elsewhere = 0;  // wrong replies in discarded windows
  if (!args.trace) {
    // ---- timed window: closed loop, one thread per client --------------
    double wall = 0.0;
    steal = 2.0;
    for (int a = 0; a < kAttempts && steal > kMaxStealShare; ++a) {
      auto attempt = std::make_unique<Tally>();
      const CpuTicks before = cpu_ticks();
      const auto start = Clock::now();
      const auto deadline =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(args.seconds));
      std::vector<std::thread> threads;
      for (std::size_t c = 0; c < workload.clients; ++c) {
        threads.emplace_back([&, c] {
          Client connection(socket, kCallTimeoutMs);
          drive(workload, {c}, connection, start, deadline, 0, *attempt);
        });
      }
      for (std::thread& t : threads) t.join();
      const double attempt_steal = steal_share(before, cpu_ticks());
      attempts = a + 1;
      if (attempt_steal < steal) {
        wrong_elsewhere += timed_ptr->wrong;
        timed_ptr = std::move(attempt);
        steal = attempt_steal;
        wall = since(start);
      } else {
        wrong_elsewhere += attempt->wrong;
      }
    }
    Tally& timed = *timed_ptr;
    const double active =
        wall - timed.excluded_seconds / static_cast<double>(workload.clients);
    const double rss = daemon->peak_rss_mib();
    const Figures f = summarize(timed.samples, active);

    metrics = {
        {"setup_s", percentile(setup_seconds, 0.5), "s"},
        {"request_p50_us", f.p50_us, "us"},
        {"request_p90_us", f.p90_us, "us"},
        {"requests_per_s", f.ops_per_s, "ops/s"},
        {"points_per_s", f.points_per_s, "points/s"},
        {"daemon_peak_rss_mib", rss, "MiB"},
    };
    std::fprintf(stderr,
                 "perfbench: %s seed %llu: %llu ops (%llu failed), %zu timed "
                 "samples in %zu windows, %.2f s active of %.2f s\n",
                 workload.name.c_str(), static_cast<unsigned long long>(args.seed),
                 static_cast<unsigned long long>(timed.attempted),
                 static_cast<unsigned long long>(timed.failed),
                 timed.samples.size(), f.windows, active, wall);
  } else {
    // ---- traced run: an untraced share first, then the traced requests --
    Tally& timed = *timed_ptr;
    const CpuTicks before = cpu_ticks();
    Tracer tracer(workload);
    std::vector<OpPtr> warm = workload.warmup;
    for (std::size_t c = 0; c < workload.clients; ++c) {
      const auto first = workload.round(c, 0);
      warm.insert(warm.end(), first.begin(), first.end());
    }
    for (const OpPtr& op : warm) {
      if (const std::string problem = tracer.warm(*op); !problem.empty()) {
        std::fprintf(stderr, "perfbench: in-process warm-up of '%s': %s\n",
                     op->label.c_str(), problem.c_str());
        correct = false;
      }
    }

    Client connection(socket, kCallTimeoutMs);
    const auto start = Clock::now();
    const auto untraced_end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(args.seconds / 3));
    const auto traced_end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(args.seconds));
    std::vector<std::size_t> all_clients;
    for (std::size_t c = 0; c < workload.clients; ++c) all_clients.push_back(c);
    std::uint64_t round = drive(workload, all_clients, connection, start,
                                untraced_end, 0, timed);
    std::vector<double> untraced;
    for (const Sample& sample : timed.samples) untraced.push_back(sample.latency);
    const double untraced_us = percentile(untraced, 0.5) * 1e6;
    for (; Clock::now() < traced_end; ++round) {
      for (const std::size_t c : all_clients) {
        for (const OpPtr& op : workload.round(c, round)) {
          std::string why;
          const Outcome outcome = tracer.trace(*op, connection, &why);
          std::scoped_lock lock(timed.mutex);
          count(timed, *op, outcome, why);
        }
      }
    }
    metrics = tracer.metrics(untraced_us);
    const std::string spans = args.work_dir + "/spans/" + workload.name +
                              "-seed" + std::to_string(args.seed) + ".json";
    if (!tracer.write_spans(spans)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", spans.c_str());
    }
    double traced_us = 0;
    for (const Metric& m : metrics) {
      if (m.name == "ledger.roundtrip_us") traced_us = m.value;
    }
    std::printf("trace: %zu traced requests, round trip p50 traced %.1f us, "
                "untraced %.1f us; spans in %s\n",
                tracer.requests(), traced_us, untraced_us, spans.c_str());
    steal = steal_share(before, cpu_ticks());
  }

  print_run_record(args, workload, steal, attempts);

  // ---- verification outside the timed window ---------------------------
  send_once(workload.verify, socket, tally, &self_tested);
  if (!self_tested) {
    tally.note_problem("checker self-test never ran");
    ++tally.wrong;
  }
  if (!daemon->shutdown(10000)) {
    tally.note_problem("daemon did not shut down cleanly");
    ++tally.wrong;
  }
  daemon.reset();

  correct = correct && tally.wrong == 0 && timed_ptr->wrong == 0 &&
            wrong_elsewhere == 0;
  print_result(correct, *timed_ptr, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  try {
    Args args = parse_args(argc, argv);
    if (args.daemon.empty()) {
      args.daemon = (std::filesystem::path(argv[0]).parent_path() / "coalesced").string();
    }
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
