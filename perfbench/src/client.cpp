#include "client.hpp"

#include <sys/socket.h>
#include <sys/time.h>

#include <chrono>
#include <utility>

namespace perfbench {

namespace service = coalesce::service;

Client::Client(std::string socket_path, int timeout_ms)
    : socket_path_(std::move(socket_path)), timeout_ms_(timeout_ms) {}

bool Client::connect() {
  auto connected = coalesce::support::connect_unix(socket_path_);
  if (!connected.ok()) return false;
  socket_ = std::move(connected).value();
  timeval tv{};
  tv.tv_sec = timeout_ms_ / 1000;
  tv.tv_usec = (timeout_ms_ % 1000) * 1000;
  ::setsockopt(socket_.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(socket_.fd(), SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  return true;
}

Client::Result Client::call(const service::Request& request) {
  Result result;
  const auto start = std::chrono::steady_clock::now();
  if (!socket_.valid() && !connect()) {
    result.error = "connect to " + socket_path_ + " failed";
    return result;
  }
  auto reply = service::call(socket_, request);
  result.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  if (!reply.ok()) {
    // A socket timeout surfaces as a failed recv; the elapsed time tells
    // it apart from a peer that hung up.
    result.timed_out = result.seconds * 1000.0 >= timeout_ms_ * 0.95;
    result.error = reply.error().to_string();
    socket_.close();
    return result;
  }
  result.ok = true;
  result.response = std::move(reply).value();
  return result;
}

service::Request submit_request(const std::string& source,
                                const std::string& schedule, bool want_data,
                                const std::string& tenant) {
  service::Request request;
  request.type = service::MessageType::kSubmit;
  request.submit.source = source;
  request.submit.schedule = schedule;
  request.submit.want_data = want_data;
  request.submit.tenant = tenant;
  return request;
}

}  // namespace perfbench
