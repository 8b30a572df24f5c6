#include "workloads.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

namespace perfbench {

namespace service = coalesce::service;

namespace {

/// Per-request schedules for unique_mix, in the support::parse_schedule
/// grammar ("" keeps the daemon's default).
const char* const kSchedules[] = {"",         "static-block", "static-cyclic",
                                  "self",     "chunked:4",    "chunked:16",
                                  "guided",   "factoring",    "trapezoid",
                                  "auto"};

/// unique_mix: accepted ops per round per client, plus one reject.
constexpr std::size_t kMixAccepted = 7;

/// bulk_reply: the 1:1:3:1 mix of data-heavy programs this many times per
/// round, then the over-cap request once.
constexpr std::size_t kBulkRepeats = 16;

OpPtr share(Op op, bool want_data, std::string schedule = {}) {
  op.want_data = want_data;
  op.schedule = std::move(schedule);
  return std::make_shared<const Op>(std::move(op));
}

int coefficient(Rng& rng) { return 1 + static_cast<int>(rng.below(5)); }

std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  Rng rng(seed ^ (a * 0xD6E8FEB86659FD93ull) ^ (b * 0xA0761D6478BD642Full));
  return rng.next();
}

template <typename T>
void shuffle(std::vector<T>& items, Rng& rng) {
  for (std::size_t k = items.size(); k > 1; --k) {
    std::swap(items[k - 1], items[rng.below(k)]);
  }
}

const std::vector<std::string> kDaemon{"--workers=4", "--jit"};

Workload small_repeat(std::uint64_t seed) {
  Rng rng(seed);
  Workload w;
  w.name = "small_repeat";
  w.daemon_flags = kDaemon;
  const int a = coefficient(rng), b = coefficient(rng);
  const int c1 = coefficient(rng), c2 = coefficient(rng);
  std::vector<OpPtr> ops{share(verbatim(matmul(16, 12, 20, a, b)), true),
                         share(verbatim(stencil(34, c1)), true),
                         share(verbatim(triangle(12, c2)), true)};
  w.warmup = ops;
  w.round = [ops](std::size_t, std::uint64_t) { return ops; };
  return w;
}

Workload unique_mix(std::uint64_t seed) {
  Workload w;
  w.name = "unique_mix";
  w.daemon_flags = kDaemon;
  w.clients = 4;
  w.unique_sources = true;
  auto pool = std::make_shared<std::vector<Shape>>(std::vector<Shape>{
      matmul(8, 6, 10, 2, 1), stencil(40, 3), triangle(10, 4),
      transpose(12, 5), scalar_fallback(6, 2), cube(4, 5, 6, 3),
      strided(30, 7), prefix(20, 1)});
  auto rejects = std::make_shared<std::vector<Shape>>(reject_shapes());
  for (const Shape& shape : *pool) w.warmup.push_back(share(verbatim(shape), true));
  w.round = [seed, pool, rejects](std::size_t client, std::uint64_t round) {
    Rng rng(mix(seed, client + 1, round + 1));
    std::vector<const Shape*> picks;
    for (std::size_t k = 0; k < kMixAccepted; ++k) {
      picks.push_back(&(*pool)[rng.below(pool->size())]);
    }
    picks.push_back(&(*rejects)[rng.below(rejects->size())]);
    shuffle(picks, rng);
    std::vector<OpPtr> ops;
    for (std::size_t k = 0; k < picks.size(); ++k) {
      // Unique per (client, round, position) within a run: the source
      // bytes never repeat, so nothing keyed on them can hit.
      const std::uint64_t unique =
          (static_cast<std::uint64_t>(client) << 48) | (round << 8) | k;
      const char* schedule = kSchedules[rng.below(std::size(kSchedules))];
      ops.push_back(share(renamed(*picks[k], unique, rng), true, schedule));
    }
    return ops;
  };
  return w;
}

Workload big_kernel(std::uint64_t seed) {
  Rng rng(seed);
  Workload w;
  w.name = "big_kernel";
  w.daemon_flags = kDaemon;
  w.daemon_flags.push_back("--locality");
  w.locality = true;
  const int a = coefficient(rng), b = coefficient(rng);
  const std::vector<Shape> shapes{
      matmul(192, 192, 192, a, b), transpose(512, coefficient(rng)),
      triangle(700, coefficient(rng)), scalar_fallback(256, coefficient(rng))};
  for (const Shape& shape : shapes) {
    const Op op = verbatim(shape);
    w.warmup.push_back(share(op, false));
    w.verify.push_back(share(op, true));
  }
  // Weights 3:1:1:1 put the median inside the matmul's latencies and the
  // 90th percentile inside the interpreted nest's, not on the edge between
  // two programs, where it would jump with either one's tail.
  std::vector<OpPtr> round{w.warmup[0], w.warmup[0], w.warmup[0],
                           w.warmup[1], w.warmup[2], w.warmup[3]};
  shuffle(round, rng);
  w.round = [round](std::size_t, std::uint64_t) { return round; };
  return w;
}

Workload bulk_reply(std::uint64_t seed) {
  Rng rng(seed);
  Workload w;
  w.name = "bulk_reply";
  w.daemon_flags = kDaemon;
  std::vector<OpPtr> programs{
      share(verbatim(bulk(1, 256, 512, coefficient(rng))), true),   // 1 MiB
      share(verbatim(bulk(1, 512, 512, coefficient(rng))), true),   // 2 MiB
      share(verbatim(bulk(2, 384, 512, coefficient(rng))), true),   // 3 MiB
      share(verbatim(bulk(2, 512, 512, coefficient(rng))), true)};  // 4 MiB
  w.warmup = programs;
  // Weights 1:1:3:1 put the median inside the 3 MiB replies' latencies and
  // the 90th percentile inside the 4 MiB ones'.
  std::vector<OpPtr> ops;
  for (std::size_t r = 0; r < kBulkRepeats; ++r) {
    ops.insert(ops.end(), programs.begin(), programs.end());
    ops.insert(ops.end(), {programs[2], programs[2]});
  }
  shuffle(ops, rng);
  // The one request per round whose reply exceeds the frame cap; it does
  // not depend on the seed.
  ops.push_back(share(verbatim(over_cap()), true));
  w.round = [ops](std::size_t, std::uint64_t) { return ops; };
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "small_repeat") return small_repeat(seed);
  if (name == "unique_mix") return unique_mix(seed);
  if (name == "big_kernel") return big_kernel(seed);
  if (name == "bulk_reply") return bulk_reply(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

Outcome classify(const Op& op, const Client::Result& result,
                 std::string* why) {
  if (!result.ok) {
    *why = op.label + ": " +
           (result.timed_out ? "no reply within the timeout" : result.error);
    return Outcome::kFailed;
  }
  const service::Response& r = result.response;
  if (op.over_cap) {
    // Until the daemon reports an oversized reply as an error, this
    // request never gets an answer; an error reply is the mended outcome.
    if (r.status == service::Status::kError) return Outcome::kExpected;
    *why = op.label + ": over-cap request answered with status " +
           service::to_string(r.status);
    return Outcome::kWrong;
  }
  if (!op.expect_phase.empty()) {
    if (r.status == service::Status::kRejected &&
        r.message.rfind(op.expect_phase + ":", 0) == 0) {
      return Outcome::kExpected;
    }
    *why = op.label + ": expected rejection at '" + op.expect_phase +
           "', got " + service::to_string(r.status) + " (" + r.message + ")";
    return Outcome::kWrong;
  }
  if (r.status != service::Status::kOk) {
    *why = op.label + ": status " + service::to_string(r.status) + " (" +
           r.message + ")";
    return Outcome::kWrong;
  }
  if (r.run.iterations != r.run.iterations_requested || r.run.cancelled ||
      r.run.deadline_expired) {
    *why = op.label + ": partial run (" + std::to_string(r.run.iterations) +
           "/" + std::to_string(r.run.iterations_requested) + ")";
    return Outcome::kWrong;
  }
  if (!op.want_data) {
    if (!r.arrays.empty()) {
      *why = op.label + ": arrays returned without want_data";
      return Outcome::kWrong;
    }
    return Outcome::kExpected;
  }
  std::vector<std::string> names;
  std::vector<const std::vector<double>*> data;
  for (const service::ArrayResult& a : r.arrays) {
    names.push_back(a.name);
    data.push_back(&a.data);
  }
  *why = compare_arrays(op, names, data);
  return why->empty() ? Outcome::kExpected : Outcome::kWrong;
}

std::string checker_self_test(const Op& op, const Client::Result& result) {
  std::string why;
  if (classify(op, result, &why) != Outcome::kExpected) {
    return "checker self-test: the genuine reply failed: " + why;
  }
  if (op.reference == nullptr || op.reference->arrays.empty()) {
    return "checker self-test: op has no reference";
  }
  Op corrupted = op;
  auto reference = std::make_shared<Reference>(*op.reference);
  auto& last = reference->arrays.back();
  last[last.size() / 2] += 1.0;
  corrupted.reference = std::move(reference);
  if (classify(corrupted, result, &why) != Outcome::kWrong) {
    return "checker self-test: a corrupted reference element went unnoticed";
  }
  return {};
}

}  // namespace perfbench
