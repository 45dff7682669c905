#include "session/publisher.hpp"

#include <algorithm>
#include <unordered_set>

#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace lon::session {

namespace {

/// Filler payload: incompressible-looking bytes of a realistic size. These
/// objects are staged and transferred but never decompressed, so only the
/// size matters; random bytes keep any accidental decompression an error.
Bytes make_filler(std::uint64_t size, Rng& rng) {
  Bytes data(size);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  return data;
}

}  // namespace

PublishResult publish_database(sim::Simulator& sim, lors::Lors& lors,
                               streaming::DvsServer& dvs,
                               lightfield::ViewSetSource& source, sim::NodeId server_node,
                               const PublishOptions& options) {
  PublishResult result;
  const auto& lattice = source.lattice();
  const auto all = lattice.all_view_sets();

  std::unordered_set<lightfield::ViewSetId, lightfield::ViewSetIdHash> real_set(
      options.real_ids.begin(), options.real_ids.end());
  const bool all_real = options.real_ids.empty() && !options.all_filler;
  if (options.all_filler && !all.empty()) {
    // Calibrate filler sizes from one genuinely compressed view set.
    real_set.insert(all.front());
  }

  // Pass 1: build the real view sets and measure the mean compressed size.
  // Every real set gets a preassigned slot, so the build order cannot leak
  // into the payloads; passes 2 and 3 run on this thread in lattice order.
  std::vector<std::pair<lightfield::ViewSetId, Bytes>> payloads;
  payloads.reserve(all.size());
  std::vector<std::size_t> real_slots;
  const std::uint64_t pixel_bytes =
      static_cast<std::uint64_t>(lattice.config().view_set_span) *
      static_cast<std::uint64_t>(lattice.config().view_set_span) *
      lattice.config().view_resolution * lattice.config().view_resolution * 3;

  for (const auto& id : all) {
    if (all_real || real_set.contains(id)) real_slots.push_back(payloads.size());
    payloads.emplace_back(id, Bytes{});  // real: filled below; filler: pass 2
  }
  const auto encode = [&](std::size_t slot, ThreadPool* pool) {
    auto& [id, payload] = payloads[slot];
    payload = source.build_compressed(id, options.chunk_bytes, pool, options.lfz2);
  };
  if (real_slots.size() == 1) {
    // One set (e.g. the all_filler calibration): encode inline, keeping its
    // scratch in the calling thread's heap rather than a worker's arena.
    encode(real_slots.front(), options.pool);
  } else if (!real_slots.empty()) {
    // One shared-pool task per set. Each encodes serially: a worker must
    // never wait on the pool it runs on.
    ThreadPool::shared().parallel_for(
        0, real_slots.size(), [&](std::size_t i) { encode(real_slots[i], nullptr); },
        real_slots.size());
  }
  std::uint64_t real_bytes = 0;
  std::size_t real_count = real_slots.size();
  for (const std::size_t slot : real_slots) real_bytes += payloads[slot].second.size();
  if (real_count == 0) {
    // No real content at all: derive a plausible size from the paper's 5-7x
    // ratio regime.
    real_bytes = pixel_bytes / 6;
    real_count = 1;
  }
  const double mean_compressed =
      static_cast<double>(real_bytes) / static_cast<double>(real_count);

  // Pass 2: synthesize filler for the remainder.
  // Filler sizes vary +-10% around the measured mean, from a fixed seed.
  Rng rng(9);
  for (auto& [id, payload] : payloads) {
    if (!payload.empty()) continue;
    const double jitter = 1.0 + 0.1 * (2.0 * rng.uniform() - 1.0);
    payload = make_filler(
        static_cast<std::uint64_t>(std::max(1.0, mean_compressed * jitter)), rng);
  }

  // Pass 3: upload everything (LoRS bounds per-call concurrency internally;
  // issue a window of uploads at a time to bound simulator event volume).
  std::size_t next = 0;
  std::size_t outstanding = 0;
  constexpr std::size_t kWindow = 8;
  const std::function<void()> pump = [&]() {
    while (outstanding < kWindow && next < payloads.size()) {
      auto& [id, payload] = payloads[next++];
      ++outstanding;
      result.compressed_bytes += payload.size();
      result.uncompressed_bytes += pixel_bytes;

      lors::UploadOptions upload;
      upload.depots = options.depots;
      upload.replicas = options.replicas;
      upload.lease = 24 * 3600 * kSecond;  // a day: outlives any session
      upload.net = options.net;
      lors.upload_async(server_node, std::move(payload), upload,
                        [&, id = id](const lors::UploadResult& up) {
                          --outstanding;
                          if (up.status == lors::LorsStatus::kOk) {
                            exnode::ExNode node = up.exnode;
                            node.metadata()["viewset"] = id.key();
                            result.exnodes.emplace_back(id, node);
                            dvs.install(id, std::move(node));
                            ++result.published;
                          } else {
                            ++result.failed;
                            LON_LOG(kWarn, "publisher")
                                << "upload failed for " << id.key() << ": "
                                << lors::to_string(up.status);
                          }
                          pump();
                        });
    }
  };
  pump();
  sim.run();

  result.real = real_count;
  result.mean_compressed = mean_compressed;
  return result;
}

}  // namespace lon::session
