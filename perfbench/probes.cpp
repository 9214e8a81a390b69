#include "probes.hpp"

#include <cstdlib>
#include <new>

#include "orb/orb.hpp"

// ---- allocation counter (the benchmark is single-threaded) ----

namespace {
std::uint64_t g_allocs = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

namespace orb = maqs::orb;

namespace {

Ledger g_ledger;

// Chain positions; see the table in probes.hpp. The resilience probe
// registers at kClientPlainEntry after the built-in local_fault stage
// (equal priorities keep registration order), so invoke_plain walks it.
constexpr int kMediatorPriority = 1;
constexpr int kRoutePriority = 260;
constexpr int kResiliencePriority = orb::kClientPlainEntry;
constexpr int kWirePriority = 1000;
constexpr int kSchedPriority = 160;
constexpr int kQosServerPriority = 190;
constexpr int kSkeletonPriority = 1000;

}  // namespace

const char* layer_name(int layer) noexcept {
  static constexpr const char* kNames[kLayerCount] = {
      "front", "mediator", "route",      "resilience",
      "wire",  "sched",    "qos_server", "skeleton"};
  return layer >= 0 && layer < kLayerCount ? kNames[layer] : "?";
}

std::uint64_t alloc_count() noexcept { return g_allocs; }

Ledger& ledger() noexcept { return g_ledger; }

void Ledger::begin() noexcept {
  running_ = true;
  balanced_ = true;
  current_ = kFront;
  depth_ = 0;
  mark_ = Clock::now();
  alloc_mark_ = alloc_count();
}

void Ledger::switch_to(Layer next) noexcept {
  const Clock::time_point now = Clock::now();
  const std::uint64_t allocs = alloc_count();
  ns_[current_] += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - mark_)
          .count());
  allocs_[current_] += allocs - alloc_mark_;
  mark_ = now;
  alloc_mark_ = allocs;
  current_ = next;
}

void Ledger::push(Layer next) noexcept {
  if (!running_) return;
  if (depth_ == kMaxDepth) {
    balanced_ = false;
    return;
  }
  stack_[depth_++] = current_;
  switch_to(next);
}

void Ledger::pop() noexcept {
  if (!running_) return;
  if (depth_ == 0) {
    balanced_ = false;
    return;
  }
  switch_to(stack_[--depth_]);
}

bool Ledger::end() noexcept {
  switch_to(kFront);
  running_ = false;
  return balanced_ && depth_ == 0;
}

orb::SendAction ClientProbe::send_request(orb::ClientRequestInfo&) {
  ledger().push(layer_);
  return orb::SendAction::kContinue;
}

orb::ReplyAction ClientProbe::receive_reply(orb::ClientRequestInfo&) {
  ledger().pop();
  return orb::ReplyAction::kContinue;
}

void ClientProbe::receive_exception(orb::ClientRequestInfo&) noexcept {
  ledger().pop();
}

void ServerProbe::receive_request(orb::ServerRequestInfo&) {
  ledger().push(layer_);
}

void ServerProbe::send_reply(orb::ServerRequestInfo&) { ledger().pop(); }

void ServerProbe::send_exception(orb::ServerRequestInfo&) noexcept {
  ledger().pop();
}

ProbeSet::ProbeSet(orb::Orb& client, orb::Orb& server)
    : client_(client), server_(server) {
  client_.register_client_interceptor(&mediator_, kMediatorPriority);
  client_.register_client_interceptor(&route_, kRoutePriority);
  client_.register_client_interceptor(&resilience_, kResiliencePriority);
  client_.register_client_interceptor(&wire_, kWirePriority);
  server_.register_server_interceptor(&sched_, kSchedPriority);
  server_.register_server_interceptor(&qos_server_, kQosServerPriority);
  server_.register_server_interceptor(&skeleton_, kSkeletonPriority);
}

ProbeSet::~ProbeSet() {
  client_.unregister_client_interceptor(&mediator_);
  client_.unregister_client_interceptor(&route_);
  client_.unregister_client_interceptor(&resilience_);
  client_.unregister_client_interceptor(&wire_);
  server_.unregister_server_interceptor(&sched_);
  server_.unregister_server_interceptor(&qos_server_);
  server_.unregister_server_interceptor(&skeleton_);
}

}  // namespace perfbench
