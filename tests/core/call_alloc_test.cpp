// Heap-metered whole calls: what arming an ORB facility costs a warm
// blocking call, counted by support/heap_meter.cpp's global operator new.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/mediator.hpp"
#include "core/qos_transport.hpp"
#include "net/network.hpp"
#include "support/echo.hpp"
#include "support/heap_meter.hpp"

namespace maqs::testing {
namespace {

/// Allocations of 64 warm `add` calls on an Echo servant activated under
/// `key`, after `arm` configured the client ORB and the stub. A reference
/// with `qos` profiles is QoS-aware, and the client then gets a
/// QosTransport.
template <typename Arm>
std::uint64_t allocations_of_adds(const std::string& key, Arm arm,
                                  std::vector<orb::QosProfile> qos = {}) {
  constexpr int kCalls = 64;
  sim::EventLoop loop;
  net::Network net(loop);
  orb::Orb server(net, "server", 9000);
  orb::Orb client(net, "client", 9001);
  std::optional<core::QosTransport> transport;
  if (!qos.empty()) transport.emplace(client);
  EchoStub stub(client, server.adapter().activate(
                            key, std::make_shared<EchoImpl>(), std::move(qos)));
  arm(client, stub);
  // Warm every pool and table the call path grows.
  for (int i = 0; i < kCalls; ++i) stub.add(i, 1);
  std::int64_t sum = 0;
  const std::uint64_t before = heap::allocations();
  for (int i = 0; i < kCalls; ++i) sum += stub.add(i, 1);
  const std::uint64_t allocations = heap::allocations() - before;
  EXPECT_EQ(sum, kCalls * (kCalls + 1) / 2);
  return allocations;
}

void leave_unarmed(orb::Orb&, EchoStub&) {}

TEST(CallAllocTest, ArmedBreakerCostsNoAllocation) {
  // Longer than std::string's inline buffer, so a copy of the key
  // allocates.
  const std::string key = "echo-object-with-a-long-key";
  const std::uint64_t off = allocations_of_adds(key, leave_unarmed);
  const std::uint64_t armed =
      allocations_of_adds(key, [](orb::Orb& client, EchoStub&) {
        client.set_breaker_config(orb::BreakerConfig{});
      });
  EXPECT_EQ(armed, off);
}

TEST(CallAllocTest, EmptyCompositeMediatorCostsNoAllocation) {
  const std::uint64_t bare = allocations_of_adds("echo", leave_unarmed);
  const std::uint64_t woven =
      allocations_of_adds("echo", [](orb::Orb&, EchoStub& stub) {
        stub.set_mediator(std::make_shared<core::CompositeMediator>());
      });
  EXPECT_EQ(woven, bare);
}

TEST(CallAllocTest, QosRoutedCallRecyclesItsArgumentBuffer) {
  // No module serves the characteristic, so qos.route hands the call to
  // the client's QosTransport, which sends it through Orb::invoke_plain;
  // the argument buffer must still go back to the pool.
  orb::QosProfile unassigned;
  unassigned.characteristic = "Unassigned";
  EXPECT_EQ(allocations_of_adds("echo", leave_unarmed, {unassigned}), 0u);
}

}  // namespace
}  // namespace maqs::testing
