// Light-field database construction (the server-side generator).
//
// ViewSetSource is the interface the streaming layer pulls view sets
// through. RaycastBuilder is the real generator: it drives the parallel ray
// caster over the camera lattice exactly as the paper's 32-processor
// cluster generator does. (ProceduralSource in procedural.hpp is the cheap
// stand-in used by large streaming experiments, where only realistic sizes
// and compressibility matter.)
#pragma once

#include <memory>

#include "lightfield/lattice.hpp"
#include "lightfield/viewset.hpp"
#include "render/raycaster.hpp"
#include "util/thread_pool.hpp"
#include "volume/transfer.hpp"
#include "volume/volume.hpp"

namespace lon::lightfield {

/// Anything that can produce view sets for a lattice.
class ViewSetSource {
 public:
  virtual ~ViewSetSource() = default;

  [[nodiscard]] virtual const SphericalLattice& lattice() const = 0;

  /// Builds the (uncompressed) view set for `id`. Must be safe to call
  /// concurrently for distinct ids: the publisher builds real view sets in
  /// parallel on the shared pool.
  [[nodiscard]] virtual ViewSet build(const ViewSetId& id) = 0;

  /// Builds and compresses in one step. chunk_bytes > 0 selects the chunked
  /// (LFZC) container — the format the agent-side decompress pipeline can
  /// overlap with stripe transfers — compressed across `pool` when given.
  /// lfz2 selects the inter-view-predicted LFZ2 container instead (always
  /// chunked; chunk_bytes 0 falls back to the 1 MiB default).
  [[nodiscard]] Bytes build_compressed(const ViewSetId& id, std::uint64_t chunk_bytes = 0,
                                       ThreadPool* pool = nullptr, bool lfz2 = false) {
    const ViewSet vs = build(id);
    if (lfz2) return vs.compress_lfz2(chunk_bytes > 0 ? chunk_bytes : 1 << 20, pool);
    return chunk_bytes > 0 ? vs.compress_chunked(chunk_bytes, pool) : vs.compress();
  }
};

/// Renders sample views of a volume with the ray caster (multi-threaded).
class RaycastBuilder final : public ViewSetSource {
 public:
  RaycastBuilder(const volume::ScalarVolume& volume, volume::TransferFunction tf,
                 const LatticeConfig& config, render::RayCastOptions render_options = {},
                 std::size_t threads = 0);

  [[nodiscard]] const SphericalLattice& lattice() const override { return lattice_; }

  [[nodiscard]] ViewSet build(const ViewSetId& id) override;

  /// Renders a single sample view (lattice coordinates).
  [[nodiscard]] render::ImageRGB8 render_sample(std::size_t row, std::size_t col);

 private:
  SphericalLattice lattice_;
  render::RayCaster caster_;
  ThreadPool pool_;
};

}  // namespace lon::lightfield
