#pragma once
/// \file model_io.hpp
/// \brief The PTZ1 parallel compressed-model container: core tensor written
/// block-parallel, factor matrices and (optional) normalization statistics
/// riding in the header.
///
/// Layout (little-endian):
///   "PTZ1" | u64 version | u64 order N
///   | u64 core_dims[N] | u64 grid[N] | u64 factor_rows[N] | u64 factor_cols[N]
///   | u64 has_stats
///   | [ u64 species_mode | u64 count | f64 mean[count] | f64 stdev[count] ]
///   | u64 core_offset[prod(grid)]
///   | u64 core_crc[prod(grid)] | u64 factor_crc   (version 2 only)
///   | f64 factor payloads (column-major, mode order)
///   | core blocks (grid-rank order, as in PTB1)
///
/// The writer emits version 2: one CRC32C per core block plus one over the
/// whole factor payload region, each in the low 32 bits of a u64 slot,
/// verified on read. Version-1 blobs (no crc fields) are read-only: still
/// read, without verification.
///
/// Everything up to the core blocks is written by rank 0 (factors are
/// replicated, so no gather is needed); every rank then pwrites its own
/// core block. On load every rank reads the header and factor bytes itself
/// and preads its core block — zero messages on the whole load path, and
/// the offset table supports loading onto a different grid exactly as PTB1
/// does.
///
/// pario sits below core in the layer map, so this interface speaks
/// DistTensor + Matrix spans; core/tucker_io adapts it to TuckerTensor.

#include <memory>
#include <span>
#include <string>

#include "data/normalize.hpp"
#include "dist/dist_tensor.hpp"
#include "pario/posix_file.hpp"
#include "tensor/matrix.hpp"

namespace ptucker::pario {

/// Contents of a loaded PTZ1 file.
struct ModelData {
  dist::DistTensor core;
  std::vector<tensor::Matrix> factors;
  bool has_stats = false;
  data::NormalizationStats stats;  ///< valid only when has_stats
};

/// Contents of a loaded PTZ1 file with the core assembled as one plain
/// (non-distributed) tensor — the serve layer's load path, where a server
/// thread needs the whole model without a grid or a runtime.
struct LocalModelData {
  tensor::Tensor core;
  std::vector<tensor::Matrix> factors;
  bool has_stats = false;
  data::NormalizationStats stats;  ///< valid only when has_stats
};

/// Collective: write the model block-parallel. \p stats may be null; when
/// given it is archived in the header (the paper's per-species mean/stdev,
/// needed to reconstruct physical values).
void write_model(const std::string& path, const dist::DistTensor& core,
                 std::span<const tensor::Matrix> factors,
                 const data::NormalizationStats* stats = nullptr);

/// Collective: load a PTZ1 file onto \p grid (any grid of matching order).
[[nodiscard]] ModelData read_model(const std::string& path,
                                   std::shared_ptr<mps::CartGrid> grid);

/// Collective: write the model as a PTZ1 blob starting at byte \p base of
/// \p path. With \p create the file is created/truncated first (write_model
/// is the base == 0 case); otherwise it must exist and is extended. The
/// blob's internal offsets are blob-relative, so an entry extracted from an
/// archive byte-for-byte is itself a valid PTZ1 file. Returns the blob byte
/// count (identical on every rank, no communication needed to agree).
std::uint64_t write_model_at(const std::string& path, std::uint64_t base,
                             bool create, const dist::DistTensor& core,
                             std::span<const tensor::Matrix> factors,
                             const data::NormalizationStats* stats = nullptr);

/// Every-rank read of the PTZ1 blob at byte \p base of \p file onto \p grid
/// (communication-free; each rank preads its own core block). \p limit is
/// one past the last byte the blob may occupy — the file size for a
/// standalone model, the committed entry end inside an archive. All
/// header-claimed sizes are validated against \p limit before any
/// allocation, so truncated or hostile headers throw InvalidArgument.
[[nodiscard]] ModelData read_model_at(const File& file, std::uint64_t base,
                                      std::uint64_t limit,
                                      std::shared_ptr<mps::CartGrid> grid);

/// Communication-free, grid-free read of the PTZ1 blob at byte \p base of
/// \p file: the full core is assembled from the writer's block layout via
/// the same positioned-read machinery read_model_at uses, so the result is
/// byte-identical to a 1-rank distributed load of the same blob. Safe to
/// call from any thread (no runtime, no collectives) — the serve layer's
/// loader. Header validation is identical to read_model_at.
[[nodiscard]] LocalModelData read_model_local_at(const File& file,
                                                 std::uint64_t base,
                                                 std::uint64_t limit);

/// True when the file at \p path starts with the PTZ1 magic.
[[nodiscard]] bool is_ptz1(const std::string& path);

/// Total byte size of the PTZ1 container for a model of the given shapes.
/// \p stats_count is the species extent when stats are archived, 0 otherwise.
[[nodiscard]] std::uint64_t ptz1_file_bytes(
    const tensor::Dims& core_dims, const std::vector<int>& grid,
    std::span<const tensor::Matrix> factors, std::size_t stats_count = 0);

}  // namespace ptucker::pario
