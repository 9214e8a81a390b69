// The four benchmark workloads. Each one builds its own deterministic
// world from the seed (the same seed gives the same inputs) and then
// serves one closed-loop client: the next call starts when the previous
// reply has been checked. Links have zero simulated latency, so the wall
// time of a call is the software cost of the path it takes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

namespace maqs::orb {
class Orb;
}

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds a fresh deployment: network, ORBs, servants, negotiated
  /// agreements. Inputs are made once, when the workload is constructed.
  virtual void deploy() = 0;
  /// Destroys the deployment; deploy() must come before the next call.
  virtual void teardown() = 0;
  /// Issues the next call; inputs cycle through the seeded pool.
  virtual void call() = 0;
  /// Whether the last call's result is the expected one.
  virtual bool check() = 0;

  /// The ORBs whose chains the probes split: the caller side (the edge
  /// ORB behind the gateway) and the serving side.
  virtual maqs::orb::Orb& client_orb() = 0;
  virtual maqs::orb::Orb& server_orb() = 0;

  /// GIOP frame bytes every ORB of the world has encoded so far.
  virtual std::uint64_t wire_bytes() const = 0;
};

/// Makes the named workload's inputs from `seed`; nullptr for an unknown
/// name. Call deploy() before the first call.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

}  // namespace perfbench
