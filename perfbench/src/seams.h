#pragma once

// Thin timing wrappers at the library's existing seams. Each delegates every
// call unchanged and opens a span around the one call that carries a
// request, so a layer's time is measured from outside the module:
//
//   TimedChannel  around net::Channel::exchange        ("wire.client_codec"
//                 when it wraps a FramedChannel: exchange minus transfer)
//   TimedPipe     around net::BytePipe::transfer       ("wire.server_codec"
//                 over an EndpointPipe, "netio.socket" over a SocketPipe:
//                 transfer minus the endpoint's handle)
//   TimedEndpoint around resync::ReSyncEndpoint::handle ("resync.handle")
//
// With no op active the spans record nothing, so the untraced runs pay one
// virtual call and one atomic load per exchange.

#include <atomic>
#include <memory>
#include <string>

#include "net/channel.h"
#include "net/framed_channel.h"
#include "resync/endpoint.h"
#include "trace.h"

namespace perfbench {

class TimedChannel final : public fbdr::net::Channel {
 public:
  TimedChannel(std::shared_ptr<fbdr::net::Channel> inner, const char* span)
      : inner_(std::move(inner)), span_(span) {}

  fbdr::resync::ReSyncResponse exchange(
      const fbdr::ldap::Query& query,
      const fbdr::resync::ReSyncControl& control) override {
    ScopedSpan span(span_);
    return inner_->exchange(query, control);
  }
  void abandon(const std::string& cookie) override { inner_->abandon(cookie); }
  void elapse(std::uint64_t ticks) override { inner_->elapse(ticks); }

 private:
  std::shared_ptr<fbdr::net::Channel> inner_;
  const char* span_;
};

class TimedPipe final : public fbdr::net::BytePipe {
 public:
  TimedPipe(std::shared_ptr<fbdr::net::BytePipe> inner, const char* span)
      : inner_(std::move(inner)), span_(span) {}

  fbdr::wire::Bytes transfer(const fbdr::wire::Bytes& frame) override {
    ScopedSpan span(span_);
    return inner_->transfer(frame);
  }
  void send(const fbdr::wire::Bytes& frame) override { inner_->send(frame); }
  void elapse(std::uint64_t ticks) override { inner_->elapse(ticks); }

 private:
  std::shared_ptr<fbdr::net::BytePipe> inner_;
  const char* span_;
};

class TimedEndpoint final : public fbdr::resync::ReSyncEndpoint {
 public:
  explicit TimedEndpoint(fbdr::resync::ReSyncEndpoint& inner) : inner_(&inner) {}

  fbdr::resync::ReSyncResponse handle(
      const fbdr::ldap::Query& query,
      const fbdr::resync::ReSyncControl& control) override {
    fbdr::resync::ReSyncResponse response;
    {
      ScopedSpan span("resync.handle");
      response = inner_->handle(query, control);
    }
    handled_.fetch_add(1, std::memory_order_relaxed);
    if (response.pdus.empty()) empty_.fetch_add(1, std::memory_order_relaxed);
    return response;
  }
  void abandon(const std::string& cookie) override { inner_->abandon(cookie); }
  void tick(std::uint64_t delta) override { inner_->tick(delta); }
  void reset() override { inner_->reset(); }
  const std::string& url() const override { return inner_->url(); }

  /// Requests answered, and those answered without a single PDU (a poll
  /// that found the replica already current). Atomic: the epoll loop thread
  /// serves socket requests while the generator reads the counts.
  std::uint64_t handled() const { return handled_.load(std::memory_order_relaxed); }
  std::uint64_t empty() const { return empty_.load(std::memory_order_relaxed); }

 private:
  fbdr::resync::ReSyncEndpoint* inner_;
  std::atomic<std::uint64_t> handled_{0};
  std::atomic<std::uint64_t> empty_{0};
};

/// A framed link to `endpoint` with every seam timed: the returned channel
/// is TimedChannel(FramedChannel(TimedPipe(EndpointPipe(endpoint)))).
/// `framed` receives the FramedChannel for exact traffic accounting.
inline std::shared_ptr<fbdr::net::Channel> timed_framed_link(
    fbdr::resync::ReSyncEndpoint& endpoint, fbdr::net::FramedChannel** framed) {
  auto pipe = std::make_shared<TimedPipe>(
      std::make_shared<fbdr::net::EndpointPipe>(endpoint), "wire.server_codec");
  auto channel = std::make_shared<fbdr::net::FramedChannel>(std::move(pipe));
  *framed = channel.get();
  return std::make_shared<TimedChannel>(std::move(channel), "wire.client_codec");
}

}  // namespace perfbench
