// E3 — compression for channels with small bandwidth (paper §6).
//
// Sweeps link bandwidth and payload compressibility; reports virtual
// transfer time with and without the Compression characteristic, plus
// the measured wall-clock codec cost (the CPU price the simulator does
// not charge in virtual time) and the resulting effective crossover.
// Expected shape: on narrow links compression wins by ~the compression
// ratio; as bandwidth grows the codec CPU cost dominates and the benefit
// crosses over — exactly why the paper treats compression as a
// *negotiated* characteristic rather than an always-on transform.
#include <chrono>

#include "bench/support.hpp"
#include "characteristics/compression.hpp"
#include "compress/lz77.hpp"

using namespace maqs;
using namespace maqs::bench;

namespace {

double measure_codec_ms(const util::Bytes& data) {
  compress::Lz77Codec codec;
  const auto t0 = std::chrono::steady_clock::now();
  int reps = 0;
  util::Bytes out;
  do {
    out = codec.compress(data);
    ++reps;
  } while (std::chrono::steady_clock::now() - t0 <
           std::chrono::milliseconds(20));
  const double total_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  return total_ms / reps;
}

double transfer_ms(double bandwidth_bps, const util::Bytes& data,
                   bool compressed) {
  World world;
  world.set_link(bandwidth_bps, 10 * sim::kMillisecond);
  world.client.set_default_timeout(3600 * sim::kSecond);
  core::ProviderRegistry providers;
  providers.add(characteristics::make_compression_provider());
  core::NegotiationService negotiation(world.server_transport, providers,
                                       world.resources);
  core::Negotiator negotiator(world.client_transport, providers);
  auto servant = std::make_shared<maqs::testing::QosEchoImpl>();
  servant->assign_characteristic(characteristics::compression_descriptor());
  orb::QosProfile profile;
  profile.characteristic = characteristics::compression_name();
  auto ref = world.server.adapter().activate("echo", servant, {profile});
  maqs::testing::EchoStub stub(world.client, ref);
  if (compressed) {
    negotiator.negotiate(stub, characteristics::compression_name(), {});
  }
  const sim::TimePoint t0 = world.loop.now();
  stub.blob(data);
  return sim::to_millis(world.loop.now() - t0);
}

}  // namespace

int main() {
  const std::size_t kSize = 32 * 1024;

  header("E3a: transfer time vs bandwidth (32 KiB payload, 90% redundant)");
  const util::Bytes data = payload(kSize, 0.9);
  const double codec_ms = 2 * measure_codec_ms(data);  // both directions
  std::printf("measured LZ77 codec cost: %.3f ms per round trip\n\n",
              codec_ms);
  std::printf("%12s | %10s %10s %14s | %s\n", "bandwidth", "plain ms",
              "comp ms", "comp+codec ms", "winner");
  row_rule();
  for (double bw : {32e3, 64e3, 256e3, 1e6, 10e6, 100e6, 1e9, 10e9, 100e9}) {
    const double plain = transfer_ms(bw, data, false);
    const double comp = transfer_ms(bw, data, true);
    const double effective = comp + codec_ms;
    std::printf("%9.0f kb | %10.2f %10.2f %14.2f | %s\n", bw / 1000, plain,
                comp, effective,
                effective < plain ? "compression" : "plain");
  }

  header("E3b: transfer time vs compressibility (64 kbit/s link)");
  std::printf("%15s | %10s %10s %8s\n", "compressibility", "plain ms",
              "comp ms", "ratio");
  row_rule();
  for (double c : {0.0, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    const util::Bytes p = payload(kSize, c);
    compress::Lz77Codec codec;
    const double ratio = static_cast<double>(codec.compress(p).size()) /
                         static_cast<double>(p.size());
    const double plain = transfer_ms(64e3, p, false);
    const double comp = transfer_ms(64e3, p, true);
    std::printf("%15.2f | %10.1f %10.1f %8.2f\n", c, plain, comp, ratio);
  }
  std::printf(
      "\nshape check: compression wins by ~1/ratio on narrow links and\n"
      "crosses over once the wire is faster than the codec — hence a\n"
      "negotiable characteristic, not a hardwired transform (paper Sec. 6).\n");
  return 0;
}
