#include "data/combustion.hpp"

#include <cmath>
#include <numbers>

#include "blas/blas.hpp"
#include "util/rng.hpp"

namespace ptucker::data {

const char* preset_name(CombustionPreset preset) {
  switch (preset) {
    case CombustionPreset::HCCI: return "HCCI";
    case CombustionPreset::TJLR: return "TJLR";
    case CombustionPreset::SP: return "SP";
  }
  return "?";
}

CombustionSpec combustion_spec(CombustionPreset preset, double scale,
                               std::uint64_t seed) {
  PT_REQUIRE(scale > 0.0 && scale <= 1.0, "combustion scale must be in (0,1]");
  auto scaled = [&](std::size_t full) {
    return std::max<std::size_t>(
        8, static_cast<std::size_t>(std::llround(scale * static_cast<double>(full))));
  };
  CombustionSpec spec;
  spec.seed = seed;
  switch (preset) {
    case CombustionPreset::HCCI:
      // 672 x 672 x 33 x 627: 2D grid, 33 species, 627 time steps.
      spec.dims = {scaled(672), scaled(672), 33, scaled(627)};
      spec.species_mode = 2;
      spec.time_mode = 3;
      spec.decades = 6.0;
      spec.noise_level = 3e-6;
      spec.steady = false;
      break;
    case CombustionPreset::TJLR:
      // 460 x 700 x 360 x 35 x 16: 3D grid, 35 variables, 16 steps;
      // heavily downsampled in the original -> closest to white, least
      // compressible (paper: C between 2 and 37).
      spec.dims = {scaled(460), scaled(700), scaled(360), 35,
                   std::max<std::size_t>(8, scaled(16))};
      spec.species_mode = 3;
      spec.time_mode = 4;
      spec.decades = 3.0;
      spec.noise_level = 2e-4;
      spec.steady = false;
      break;
    case CombustionPreset::SP:
      // 500 x 500 x 500 x 11 x 50: statistically steady planar flame ->
      // most compressible (paper: C between 5 and 5600).
      spec.dims = {scaled(500), scaled(500), scaled(500), 11, scaled(50)};
      spec.species_mode = 3;
      spec.time_mode = 4;
      spec.decades = 14.0;
      spec.noise_level = 1e-8;
      spec.steady = true;
      break;
  }
  // Derive the ladder: enough components to cover the largest non-species
  // mode with a smooth spectrum, decaying `decades` orders over one extent.
  std::size_t max_dim = 0;
  for (std::size_t n = 0; n < spec.dims.size(); ++n) {
    if (static_cast<int>(n) == spec.species_mode) continue;
    max_dim = std::max(max_dim, spec.dims[n]);
  }
  spec.components = static_cast<int>(
      std::min<std::size_t>(1200, std::max<std::size_t>(16, max_dim + max_dim / 4)));
  spec.rho = std::pow(10.0, -spec.decades / static_cast<double>(max_dim));
  return spec;
}

namespace {

/// Per-component 1D profiles for every mode, evaluated on the global index
/// range. Deterministic in (spec.seed, mode, component) and identical on
/// every rank.
struct ProfileTables {
  // tables[n] is a (In x components) column-major matrix: column c is the
  // profile of component c along mode n.
  std::vector<std::vector<double>> tables;
  std::vector<double> weights;  // w_c
};

ProfileTables build_profiles(const CombustionSpec& spec) {
  const std::size_t order = spec.dims.size();
  const std::size_t c_count = static_cast<std::size_t>(spec.components);
  ProfileTables out;
  out.tables.resize(order);
  out.weights.resize(c_count);

  util::Rng wrng(util::splitmix64(spec.seed ^ 0xB125Full));
  for (std::size_t c = 0; c < c_count; ++c) {
    out.weights[c] =
        std::pow(spec.rho, static_cast<double>(c)) * (0.7 + 0.6 * wrng.uniform());
  }

  for (std::size_t n = 0; n < order; ++n) {
    const std::size_t in = spec.dims[n];
    std::vector<double>& table = out.tables[n];
    table.assign(in * c_count, 0.0);
    util::Rng rng(util::splitmix64(spec.seed ^ (0x900D + 31 * n)));
    const bool is_species = static_cast<int>(n) == spec.species_mode;
    const bool is_time = static_cast<int>(n) == spec.time_mode;
    for (std::size_t c = 0; c < c_count; ++c) {
      double* col = table.data() + c * in;
      if (is_species) {
        // Dense random mixing across variables: the species mode barely
        // compresses (paper Fig. 6: species curves stay high).
        for (std::size_t i = 0; i < in; ++i) col[i] = rng.normal();
      } else if (is_time) {
        // Temporal envelope: oscillation with optional decay. Statistically
        // steady data (SP) fluctuates around a mean -> smoother, more
        // compressible time behaviour.
        const double freq = rng.uniform(0.5, spec.steady ? 2.0 : 6.0);
        const double phase = rng.uniform(0.0, 2.0 * std::numbers::pi);
        const double lambda = spec.steady ? 0.0 : rng.uniform(0.0, 2.5);
        const double base = spec.steady ? rng.uniform(0.5, 1.0) : 0.0;
        for (std::size_t i = 0; i < in; ++i) {
          const double t =
              in > 1 ? static_cast<double>(i) / static_cast<double>(in - 1)
                     : 0.0;
          col[i] = base + std::exp(-lambda * t) *
                              std::sin(2.0 * std::numbers::pi * freq * t +
                                       phase);
        }
      } else {
        // Spatial mode: bursty Gaussian structure — "important activity
        // occurring in subsets of the spatial grid" (paper Sec. I).
        const double center = rng.uniform(0.05, 0.95);
        const double width =
            (rng.uniform() < 0.25) ? rng.uniform(0.15, 0.5)   // large eddy
                                   : rng.uniform(0.015, 0.12); // burst
        for (std::size_t i = 0; i < in; ++i) {
          const double x =
              in > 1 ? static_cast<double>(i) / static_cast<double>(in - 1)
                     : 0.0;
          const double z = (x - center) / width;
          col[i] = std::exp(-0.5 * z * z);
        }
      }
    }
  }
  return out;
}

/// Fill \p local (the block at \p ranges of the global tensor) with the
/// component-sum field plus counter-keyed noise.
void fill_block(Tensor& local, const std::vector<util::Range>& ranges,
                const CombustionSpec& spec, const ProfileTables& profiles) {
  const std::size_t order = spec.dims.size();
  const std::size_t c_count = static_cast<std::size_t>(spec.components);
  if (local.size() == 0) return;

  // Component sum, vectorized along mode 0: for each fiber (fixed indices
  // of modes >= 1), accumulate w_c * prod_{n>=1} f_cn(i_n) * f_c0(.).
  std::fill(local.data(), local.data() + local.size(), 0.0);
  const std::size_t fiber_len = local.dim(0);
  const std::size_t fibers = local.size() / fiber_len;
  std::vector<std::size_t> idx(order, 0);  // local indices of modes >= 1
  for (std::size_t f = 0; f < fibers; ++f) {
    double* dst = local.data() + f * fiber_len;
    for (std::size_t c = 0; c < c_count; ++c) {
      double coeff = profiles.weights[c];
      for (std::size_t n = 1; n < order; ++n) {
        const std::size_t gi = ranges[n].lo + idx[n];
        coeff *= profiles.tables[n][c * spec.dims[n] + gi];
      }
      if (coeff == 0.0) continue;
      const double* prof0 =
          profiles.tables[0].data() + c * spec.dims[0] + ranges[0].lo;
      blas::axpy(fiber_len, coeff, prof0, dst);
    }
    for (std::size_t n = 1; n < order; ++n) {
      if (++idx[n] < local.dim(static_cast<int>(n))) break;
      idx[n] = 0;
    }
  }

  if (spec.noise_level > 0.0) {
    const util::CounterRng noise(spec.seed ^ 0xD35Full);
    std::vector<std::size_t> strides(order);
    std::size_t stride = 1;
    for (std::size_t n = 0; n < order; ++n) {
      strides[n] = stride;
      stride *= spec.dims[n];
    }
    std::vector<std::size_t> lidx(order, 0);
    for (std::size_t i = 0; i < local.size(); ++i) {
      std::size_t gidx = 0;
      for (std::size_t n = 0; n < order; ++n) {
        gidx += (ranges[n].lo + lidx[n]) * strides[n];
      }
      local[i] += spec.noise_level * noise.normal(gidx);
      for (std::size_t n = 0; n < order; ++n) {
        if (++lidx[n] < local.dim(static_cast<int>(n))) break;
        lidx[n] = 0;
      }
    }
  }
}

}  // namespace

DistTensor make_combustion(std::shared_ptr<mps::CartGrid> grid,
                           const CombustionSpec& spec) {
  PT_REQUIRE(spec.components > 0, "combustion: components must be > 0");
  // The block first, the small profile tables after: allocated the other
  // way round, the tables can take the head of a freed block-sized hole and
  // push the block to fresh pages past it.
  DistTensor x(grid, spec.dims);
  const ProfileTables profiles = build_profiles(spec);
  std::vector<util::Range> ranges(spec.dims.size());
  for (std::size_t n = 0; n < spec.dims.size(); ++n) {
    ranges[n] = x.mode_range(static_cast<int>(n));
  }
  fill_block(x.local(), ranges, spec, profiles);
  return x;
}

Tensor make_combustion_seq(const CombustionSpec& spec) {
  PT_REQUIRE(spec.components > 0, "combustion: components must be > 0");
  const ProfileTables profiles = build_profiles(spec);
  Tensor x(spec.dims);
  std::vector<util::Range> ranges(spec.dims.size());
  for (std::size_t n = 0; n < spec.dims.size(); ++n) {
    ranges[n] = util::Range{0, spec.dims[n]};
  }
  fill_block(x, ranges, spec, profiles);
  return x;
}

}  // namespace ptucker::data
