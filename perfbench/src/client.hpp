// One load-generator connection to the daemon, with a receive timeout on
// every call so a reply that never comes ends as a failed operation
// instead of a hung run.
#pragma once

#include <string>

#include "service/protocol.hpp"
#include "support/socket.hpp"

namespace perfbench {

class Client {
 public:
  Client(std::string socket_path, int timeout_ms);

  struct Result {
    bool ok = false;         ///< a reply arrived and decoded
    bool timed_out = false;  ///< no reply within the timeout
    std::string error;       ///< transport/protocol failure when !ok
    coalesce::service::Response response;
    double seconds = 0.0;    ///< round trip as the client saw it
  };

  /// Sends one request and waits for its reply. Any failure drops the
  /// connection; the next call opens a fresh one.
  Result call(const coalesce::service::Request& request);

 private:
  bool connect();

  std::string socket_path_;
  int timeout_ms_;
  coalesce::support::Socket socket_;
};

/// A kSubmit request for a program.
coalesce::service::Request submit_request(const std::string& source,
                                          const std::string& schedule,
                                          bool want_data,
                                          const std::string& tenant);

}  // namespace perfbench
