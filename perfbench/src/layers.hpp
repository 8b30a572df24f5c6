// The traced run: prices each layer of the daemon's request path from
// outside, by calling the library's public functions in this process in
// the order service/server.cpp makes them, each call wrapped in a span.
//
//   protocol   encode_request / decode_request
//   frontend   parse_program
//   service    admit (parse + verify + lint + race)
//   analysis   each default pass alone; analyze_and_mark over every root
//   transform  permute_for_locality; coalesce_program
//   codegen    prepare; JitCache::get_or_compile (cold and warm, on a
//              private cache)
//   runtime    Engine::submit of a one-iteration region; submit_ir + get
//              per parallel root; Evaluator::run per sequential root
//   protocol   encode_response / decode_response of the daemon's reply
//   transport  a kPing round trip
//   ledger     the same request sent to the daemon
//
// The Engine here is configured like the daemon's (4 workers, default
// queue) but is this process's own, as is the JIT cache the launches use:
// nothing here warms the daemon.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "client.hpp"
#include "programs.hpp"
#include "workloads.hpp"

namespace perfbench {

/// The prepare cache keys of every parallel root of `source`, planned as
/// the daemon plans it (admission, then permute when `locality`, mark,
/// coalesce). Empty when the program is refused or has no kernel.
[[nodiscard]] std::vector<std::string> prepare_keys(const std::string& source,
                                                    bool locality);

/// The phase at which admission refuses `source` ("" when admitted).
[[nodiscard]] std::string admission_phase(const std::string& source);

class Tracer {
 public:
  explicit Tracer(const Workload& workload);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Runs `op` through every layer in this process without recording, so
  /// this process's JIT cache and adaptive controller are warm before the
  /// traced requests. Empty on success, else what went wrong.
  std::string warm(const Op& op);

  /// Runs one request through the layer calls here, then sends it to the
  /// daemon through `client`, recording a span per call. The outcome is
  /// that of the daemon's reply; an in-process result that differs from
  /// the reference also counts as kWrong.
  Outcome trace(const Op& op, Client& client, std::string* why);

  /// Per-layer figures: the median per request for times and ratios, the
  /// mean per request for counts. `untraced_roundtrip_us` is reported
  /// beside the traced round trip.
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  [[nodiscard]] std::vector<Metric> metrics(double untraced_roundtrip_us) const;

  /// Writes every span as Chrome trace-event JSON.
  bool write_spans(const std::string& path) const;

  [[nodiscard]] std::size_t requests() const noexcept { return requests_; }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::size_t requests_ = 0;
};

}  // namespace perfbench
