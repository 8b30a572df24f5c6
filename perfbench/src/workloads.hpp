// The four workloads: what each client sends, round by round, and how
// the daemon is configured for it. See README.md for why each exists.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "client.hpp"
#include "programs.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  /// Daemon flags besides --socket. Fixed worker count, so figures do not
  /// follow the host's core count.
  std::vector<std::string> daemon_flags;
  bool locality = false;  ///< mirrors --locality in daemon_flags
  std::size_t clients = 1;
  /// No two requests of a run share source bytes (checked during set-up).
  bool unique_sources = false;
  /// Sent once per set-up, in order: compiles every kernel the timed
  /// window uses (the over-cap request excepted; see README.md).
  std::vector<OpPtr> warmup;
  /// Sent once with want_data after the timed window (big_kernel, whose
  /// timed requests carry no data).
  std::vector<OpPtr> verify;
  /// The ops of round `round` of client `client`. Every run attempts whole
  /// rounds, so the share of failed ops is the same in every run.
  std::function<std::vector<OpPtr>(std::size_t client, std::uint64_t round)>
      round;
};

/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed);

enum class Outcome {
  kExpected,  ///< accepted with the reference result, or refused at the
              ///< expected phase
  kFailed,    ///< no reply (timeout, transport error)
  kWrong,     ///< a reply that does not match the reference
};

/// Classifies one call's result; `why` explains kFailed/kWrong.
[[nodiscard]] Outcome classify(const Op& op, const Client::Result& result,
                               std::string* why);

/// Shows the checker catches a corrupted reference: `op` and its correct
/// reply must pass, and the same reply must fail once one reference
/// element is changed. Empty on success.
[[nodiscard]] std::string checker_self_test(const Op& op,
                                            const Client::Result& result);

}  // namespace perfbench
