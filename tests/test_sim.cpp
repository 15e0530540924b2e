// Tests of the satellite simulation workload generator.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <numeric>
#include <set>
#include <thread>

#include "core/context.hpp"
#include "sim/memo.hpp"
#include "sim/satellite.hpp"
#include "sim/workflow.hpp"

namespace core = toast::core;
namespace sim = toast::sim;

TEST(Focalplane, HexLayoutProperties) {
  const auto fp = sim::hex_focalplane(64, 37.0);
  EXPECT_EQ(fp.n_detectors(), 64);
  EXPECT_EQ(fp.names.size(), 64u);
  EXPECT_EQ(fp.net.size(), 64u);
  // All detector offsets are unit quaternions.
  for (const auto& q : fp.quats) {
    EXPECT_NEAR(toast::qarray::norm(q), 1.0, 1e-12);
  }
  // Detectors come in pairs with orthogonal polarization.
  for (int d = 0; d + 1 < 64; d += 2) {
    const double delta = std::abs(fp.pol_angles[static_cast<std::size_t>(d + 1)] -
                                  fp.pol_angles[static_cast<std::size_t>(d)]);
    EXPECT_NEAR(delta, M_PI / 2.0, 1e-12);
  }
}

TEST(Focalplane, OddCountsWork) {
  EXPECT_EQ(sim::hex_focalplane(1, 37.0).n_detectors(), 1);
  EXPECT_EQ(sim::hex_focalplane(7, 37.0).n_detectors(), 7);
  EXPECT_EQ(sim::hex_focalplane(2048, 37.0).n_detectors(), 2048);
}

TEST(Satellite, ObservationStructure) {
  const auto fp = sim::hex_focalplane(4, 37.0);
  const auto ob = sim::simulate_satellite("test", fp, 4096, {}, 1);
  EXPECT_EQ(ob.n_samples(), 4096);
  EXPECT_EQ(ob.n_detectors(), 4);
  EXPECT_TRUE(ob.has_field(core::fields::kBoresight));
  EXPECT_TRUE(ob.has_field(core::fields::kHwpAngle));
  EXPECT_TRUE(ob.has_field(core::fields::kTimes));
  EXPECT_TRUE(ob.has_field(core::fields::kSharedFlags));
  EXPECT_FALSE(ob.intervals().empty());
}

TEST(Satellite, BoresightQuaternionsAreUnit) {
  const auto fp = sim::hex_focalplane(2, 37.0);
  const auto ob = sim::simulate_satellite("test", fp, 2048, {}, 2);
  const auto bore = ob.field(core::fields::kBoresight).f64();
  for (std::int64_t s = 0; s < ob.n_samples(); s += 17) {
    const std::size_t off = static_cast<std::size_t>(4 * s);
    const double n = std::sqrt(bore[off] * bore[off] +
                               bore[off + 1] * bore[off + 1] +
                               bore[off + 2] * bore[off + 2] +
                               bore[off + 3] * bore[off + 3]);
    EXPECT_NEAR(n, 1.0, 1e-12);
  }
}

TEST(Satellite, ScanCoversSkyBand) {
  // The precession+spin motion must sweep a wide band of the sphere, not
  // stare at one spot.
  const auto fp = sim::hex_focalplane(1, 37.0);
  sim::ScanParams params;
  params.spin_period = 60.0;
  params.prec_period = 600.0;
  const auto ob = sim::simulate_satellite("test", fp, 16384, params, 3);
  const auto bore = ob.field(core::fields::kBoresight).f64();
  double zmin = 1.0, zmax = -1.0;
  for (std::int64_t s = 0; s < ob.n_samples(); ++s) {
    const toast::qarray::Quat q{
        bore[static_cast<std::size_t>(4 * s)],
        bore[static_cast<std::size_t>(4 * s + 1)],
        bore[static_cast<std::size_t>(4 * s + 2)],
        bore[static_cast<std::size_t>(4 * s + 3)]};
    const auto dir = toast::qarray::rotate(q, {0.0, 0.0, 1.0});
    zmin = std::min(zmin, dir[2]);
    zmax = std::max(zmax, dir[2]);
  }
  EXPECT_LT(zmin, -0.3);
  EXPECT_GT(zmax, 0.3);
}

TEST(Satellite, IntervalsVaryTileAndStayInRange) {
  const auto fp = sim::hex_focalplane(2, 37.0);
  sim::ScanParams params;
  params.spin_period = 20.0;  // many intervals
  const auto ob = sim::simulate_satellite("test", fp, 8192, params, 4);
  const auto& ivals = ob.intervals();
  ASSERT_GT(ivals.size(), 4u);
  std::set<std::int64_t> lengths;
  std::int64_t prev_stop = 0;
  for (const auto& v : ivals) {
    EXPECT_GE(v.start, prev_stop);
    EXPECT_GT(v.stop, v.start);
    EXPECT_LE(v.stop, ob.n_samples());
    lengths.insert(v.length());
    prev_stop = v.stop;
  }
  // Jitter produces genuinely varying lengths (the padding stressor).
  EXPECT_GT(lengths.size(), 2u);
}

TEST(Satellite, DeterministicPerSeed) {
  const auto fp = sim::hex_focalplane(2, 37.0);
  const auto a = sim::simulate_satellite("a", fp, 1024, {}, 42);
  const auto b = sim::simulate_satellite("b", fp, 1024, {}, 42);
  const auto c = sim::simulate_satellite("c", fp, 1024, {}, 43);
  EXPECT_EQ(a.intervals().size(), b.intervals().size());
  const auto fa = a.field(core::fields::kSharedFlags).u8();
  const auto fb = b.field(core::fields::kSharedFlags).u8();
  const auto fc = c.field(core::fields::kSharedFlags).u8();
  EXPECT_TRUE(std::equal(fa.begin(), fa.end(), fb.begin()));
  EXPECT_FALSE(std::equal(fa.begin(), fa.end(), fc.begin()));
}

TEST(SyntheticSky, SmoothAndFinite) {
  const auto map = sim::synthetic_sky(16, 3);
  ASSERT_EQ(map.size(), 12u * 16 * 16 * 3);
  double power = 0.0;
  for (const double v : map) {
    ASSERT_TRUE(std::isfinite(v));
    power += v * v;
  }
  EXPECT_GT(power, 0.0);
  // Reproducible for the same seed.
  EXPECT_EQ(map, sim::synthetic_sky(16, 3));
  EXPECT_NE(map, sim::synthetic_sky(16, 3, 99));
}

TEST(SimNoise, NoiseHasOneOverFCharacter) {
  // Strong 1/f: knee well inside the sampled band.
  const auto fp = sim::hex_focalplane(2, 37.0, 10.0, 50.0e-6, 2.0, 1.5);
  auto ob = sim::simulate_satellite("test", fp, 16384, {}, 5);
  core::ExecConfig cfg;
  core::ExecContext ctx(cfg);
  sim::SimNoiseOp noise(777);
  noise.ensure_fields(ob);
  noise.exec(ob, ctx, nullptr, core::Backend::kCpu);

  const auto signal = ob.det_f64(core::fields::kSignal, 0);
  // Nonzero and finite.
  double var = 0.0, mean = 0.0;
  for (const double v : signal) {
    ASSERT_TRUE(std::isfinite(v));
    mean += v;
  }
  mean /= static_cast<double>(signal.size());
  for (const double v : signal) var += (v - mean) * (v - mean);
  var /= static_cast<double>(signal.size());
  EXPECT_GT(var, 0.0);

  // 1/f character: power in long-timescale differences exceeds white
  // expectation.  Compare lag-1 and lag-1024 structure functions: for
  // white noise they are equal; 1/f noise has more large-scale power.
  double d1 = 0.0, dlong = 0.0;
  const std::size_t n = signal.size();
  for (std::size_t i = 0; i + 1024 < n; ++i) {
    d1 += (signal[i + 1] - signal[i]) * (signal[i + 1] - signal[i]);
    dlong += (signal[i + 1024] - signal[i]) * (signal[i + 1024] - signal[i]);
  }
  EXPECT_GT(dlong, 1.5 * d1);
}

TEST(SimNoise, DetectorsAreIndependent) {
  const auto fp = sim::hex_focalplane(2, 37.0);
  auto ob = sim::simulate_satellite("test", fp, 4096, {}, 6);
  core::ExecConfig cfg;
  core::ExecContext ctx(cfg);
  sim::SimNoiseOp noise(888);
  noise.ensure_fields(ob);
  noise.exec(ob, ctx, nullptr, core::Backend::kCpu);
  const auto s0 = ob.det_f64(core::fields::kSignal, 0);
  const auto s1 = ob.det_f64(core::fields::kSignal, 1);
  double dot = 0.0, n0 = 0.0, n1 = 0.0;
  for (std::size_t i = 0; i < s0.size(); ++i) {
    dot += s0[i] * s1[i];
    n0 += s0[i] * s0[i];
    n1 += s1[i] * s1[i];
  }
  EXPECT_LT(std::abs(dot) / std::sqrt(n0 * n1), 0.2);
}

TEST(Workflow, BenchmarkPipelineComposition) {
  sim::WorkflowConfig cfg;
  cfg.map_iterations = 3;
  const auto pipeline = sim::make_benchmark_pipeline(cfg);
  // 2 sim + 4 pointing/scan + 2 unported + 3*4 mapmaking + 2 unported.
  EXPECT_EQ(pipeline.operators().size(), 2u + 4u + 2u + 12u + 2u);
  cfg.include_unported = false;
  EXPECT_EQ(sim::make_benchmark_pipeline(cfg).operators().size(),
            2u + 4u + 12u);
  EXPECT_EQ(sim::make_pointing_pipeline(cfg).operators().size(), 3u);
  EXPECT_EQ(sim::make_mapmaking_pipeline(cfg).operators().size(), 5u);
}

// --- workload-generation memo ------------------------------------------

namespace {

/// Every byte of two observations: name, shape, focalplane, intervals and
/// each field's type, shape and contents.
void expect_obs_bitwise(const core::Observation& a,
                        const core::Observation& b) {
  EXPECT_EQ(a.name(), b.name());
  EXPECT_EQ(a.n_samples(), b.n_samples());
  EXPECT_EQ(a.n_detectors(), b.n_detectors());
  const auto& fa = a.focalplane();
  const auto& fb = b.focalplane();
  EXPECT_EQ(fa.names, fb.names);
  EXPECT_EQ(fa.quats, fb.quats);
  EXPECT_EQ(fa.net, fb.net);
  EXPECT_EQ(fa.fknee, fb.fknee);
  ASSERT_EQ(a.intervals().size(), b.intervals().size());
  for (std::size_t i = 0; i < a.intervals().size(); ++i) {
    EXPECT_EQ(a.intervals()[i].start, b.intervals()[i].start);
    EXPECT_EQ(a.intervals()[i].stop, b.intervals()[i].stop);
  }
  ASSERT_EQ(a.field_names(), b.field_names());
  for (const auto& name : a.field_names()) {
    const auto& x = a.field(name);
    const auto& y = b.field(name);
    EXPECT_EQ(x.type(), y.type()) << name;
    EXPECT_EQ(x.width(), y.width()) << name;
    ASSERT_EQ(x.byte_size(), y.byte_size()) << name;
    EXPECT_EQ(std::memcmp(x.raw(), y.raw(), x.byte_size()), 0) << name;
  }
}

std::vector<double> noise_signal(const core::Focalplane& fp,
                                 std::int64_t n_samples, std::uint64_t seed) {
  auto ob = sim::simulate_satellite("noise", fp, n_samples, {}, seed);
  core::ExecConfig cfg;
  core::ExecContext ctx(cfg);
  sim::SimNoiseOp noise(4321);
  noise.ensure_fields(ob);
  noise.exec(ob, ctx, nullptr, core::Backend::kCpu);
  const auto s = ob.field(core::fields::kSignal).f64();
  return {s.begin(), s.end()};
}

std::vector<double> sky_field(std::int64_t nside) {
  core::Observation ob("sky", sim::hex_focalplane(2, 37.0), 16);
  core::ExecConfig cfg;
  core::ExecContext ctx(cfg);
  sim::SynthSkyOp(nside).exec(ob, ctx, nullptr, core::Backend::kCpu);
  const auto s = ob.field(core::fields::kSkyMap).f64();
  return {s.begin(), s.end()};
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

}  // namespace

TEST(SimMemo, HitEqualsMissBitwise) {
  const auto fp = sim::hex_focalplane(6, 37.0);
  sim::ScanParams scan;
  scan.spin_period = 30.0;
  sim::clear_memo();

  const auto miss = sim::simulate_satellite("m", fp, 3000, scan, 9);
  const auto hit = sim::simulate_satellite("m", fp, 3000, scan, 9);
  EXPECT_EQ(sim::memo_stats().observations.misses, 1u);
  EXPECT_EQ(sim::memo_stats().observations.hits, 1u);
  expect_obs_bitwise(miss, hit);

  const auto sky_miss = sim::synthetic_sky(16, 3, 5);
  const auto sky_hit = sim::synthetic_sky(16, 3, 5);
  EXPECT_TRUE(bitwise_equal(sky_miss, sky_hit));
  // SynthSkyOp attaches the same cached map.
  const auto op_map = sky_field(16);
  EXPECT_EQ(sim::memo_stats().skies.misses, 2u);
  EXPECT_TRUE(bitwise_equal(op_map, sim::synthetic_sky(16, 3)));
  EXPECT_EQ(sim::memo_stats().skies.hits, 2u);

  // The noise realisation is per detector, not per observation: the
  // second observation hits for every detector.
  const auto noise_miss = noise_signal(fp, 3000, 1);
  EXPECT_EQ(sim::memo_stats().noise.misses, 6u);
  const auto noise_hit = noise_signal(fp, 3000, 2);
  EXPECT_EQ(sim::memo_stats().noise.hits, 6u);
  EXPECT_TRUE(bitwise_equal(noise_miss, noise_hit));
  EXPECT_EQ(sim::memo_stats().noise.entries, 6u);
  EXPECT_GE(sim::memo_stats().noise.bytes, 6u * 3000u * sizeof(double));

  // And a cold memo reproduces all of it.
  sim::clear_memo();
  EXPECT_EQ(sim::memo_stats().observations.entries, 0u);
  expect_obs_bitwise(miss, sim::simulate_satellite("m", fp, 3000, scan, 9));
  EXPECT_TRUE(bitwise_equal(noise_miss, noise_signal(fp, 3000, 1)));
  EXPECT_EQ(sim::memo_stats().noise.hits, 0u);
}

TEST(SimMemo, MutatingACopyLeavesTheMemoIntact) {
  const auto fp = sim::hex_focalplane(4, 37.0);
  sim::clear_memo();
  const auto ref = sim::simulate_satellite("x", fp, 2048, {}, 3);
  auto ob = sim::simulate_satellite("x", fp, 2048, {}, 3);
  ob.field(core::fields::kBoresight).f64()[0] = 7.0;
  ob.field(core::fields::kSharedFlags).u8()[5] ^= 1;
  ob.intervals().clear();
  expect_obs_bitwise(ref, sim::simulate_satellite("x", fp, 2048, {}, 3));

  // Sky: scribble over an attached map, then attach again.
  core::ExecConfig cfg;
  core::ExecContext ctx(cfg);
  sim::SynthSkyOp sky(16);
  sky.exec(ob, ctx, nullptr, core::Backend::kCpu);
  auto map = ob.field(core::fields::kSkyMap).f64();
  std::fill(map.begin(), map.end(), -1.0);
  EXPECT_TRUE(bitwise_equal(sky_field(16), sim::synthetic_sky(16, 3)));

  // Noise: scribble over one signal, then draw into a fresh observation.
  sim::SimNoiseOp noise(55);
  noise.ensure_fields(ob);
  noise.exec(ob, ctx, nullptr, core::Backend::kCpu);
  const auto s = ob.field(core::fields::kSignal).f64();
  const std::vector<double> first(s.begin(), s.end());
  std::fill(s.begin(), s.end(), 3.0);
  auto fresh = sim::simulate_satellite("x", fp, 2048, {}, 3);
  noise.ensure_fields(fresh);
  noise.exec(fresh, ctx, nullptr, core::Backend::kCpu);
  const auto t = fresh.field(core::fields::kSignal).f64();
  EXPECT_TRUE(bitwise_equal(first, {t.begin(), t.end()}));
}

TEST(SimMemo, EveryKeyComponentMisses) {
  const auto fp = sim::hex_focalplane(4, 37.0);
  const sim::ScanParams base;
  sim::clear_memo();
  (void)sim::simulate_satellite("k", fp, 1024, base, 1);
  const auto misses = [] { return sim::memo_stats().observations.misses; };
  const auto expect_miss = [&](const std::string& what, auto&& call) {
    const auto before = misses();
    call();
    EXPECT_EQ(misses(), before + 1) << what;
  };
  expect_miss("name", [&] { sim::simulate_satellite("k2", fp, 1024, base, 1); });
  expect_miss("seed", [&] { sim::simulate_satellite("k", fp, 1024, base, 2); });
  expect_miss("n_samples",
              [&] { sim::simulate_satellite("k", fp, 1025, base, 1); });
  const std::vector<std::pair<const char*, double sim::ScanParams::*>>
      scan_fields = {
          {"sample_rate", &sim::ScanParams::sample_rate},
          {"spin_period", &sim::ScanParams::spin_period},
          {"prec_period", &sim::ScanParams::prec_period},
          {"spin_angle_deg", &sim::ScanParams::spin_angle_deg},
          {"prec_angle_deg", &sim::ScanParams::prec_angle_deg},
          {"interval_gap_fraction", &sim::ScanParams::interval_gap_fraction},
          {"interval_jitter_fraction",
           &sim::ScanParams::interval_jitter_fraction},
      };
  for (const auto& [what, member] : scan_fields) {
    sim::ScanParams p = base;
    p.*member *= 1.5;
    expect_miss(what, [&] { sim::simulate_satellite("k", fp, 1024, p, 1); });
  }
  auto fp2 = fp;
  fp2.fknee[2] *= 2.0;
  expect_miss("fknee", [&] { sim::simulate_satellite("k", fp2, 1024, base, 1); });
  // The unchanged inputs still hit.
  const auto hits = sim::memo_stats().observations.hits;
  (void)sim::simulate_satellite("k", fp, 1024, base, 1);
  EXPECT_EQ(sim::memo_stats().observations.hits, hits + 1);

  // Noise: one detector's fknee re-draws only that detector.
  (void)noise_signal(fp, 1024, 1);
  const auto noise_misses = sim::memo_stats().noise.misses;
  (void)noise_signal(fp2, 1024, 1);
  EXPECT_EQ(sim::memo_stats().noise.misses, noise_misses + 1);

  // Sky: nside, nnz and seed are each part of the key.
  (void)sim::synthetic_sky(8, 3, 1);
  const auto sky_misses = sim::memo_stats().skies.misses;
  (void)sim::synthetic_sky(4, 3, 1);
  (void)sim::synthetic_sky(8, 2, 1);
  (void)sim::synthetic_sky(8, 3, 2);
  EXPECT_EQ(sim::memo_stats().skies.misses, sky_misses + 3);
}

TEST(SimMemo, EntryCapBoundsTheTable) {
  const auto fp = sim::hex_focalplane(1, 37.0);
  sim::clear_memo();
  const std::size_t cap = sim::detail::kMemoMaxEntries;
  for (std::uint64_t seed = 0; seed < cap + 10; ++seed) {
    (void)sim::simulate_satellite("cap", fp, 32, {}, seed);
  }
  const auto full = sim::memo_stats().observations;
  EXPECT_EQ(full.entries, cap);
  EXPECT_EQ(full.misses, cap + 10);
  // The newest entry is still there; the oldest was evicted.
  (void)sim::simulate_satellite("cap", fp, 32, {}, cap + 9);
  EXPECT_EQ(sim::memo_stats().observations.hits, 1u);
  (void)sim::simulate_satellite("cap", fp, 32, {}, 0);
  EXPECT_EQ(sim::memo_stats().observations.misses, cap + 11);
  EXPECT_EQ(sim::memo_stats().observations.entries, cap);
  EXPECT_EQ(sim::memo_stats().observations.bytes, full.bytes);
}

TEST(SimMemo, ConcurrentCallersAgree) {
  const auto fp = sim::hex_focalplane(4, 37.0);
  struct Products {
    core::Observation ob{"c", {}, 0};
    std::vector<double> sky, noise;
  };
  const auto produce = [&](std::uint64_t seed) {
    Products p;
    p.ob = sim::simulate_satellite("c", fp, 2048, {}, seed);
    p.sky = sim::synthetic_sky(16, 3, seed);
    p.noise = noise_signal(fp, 2048, seed);
    return p;
  };
  std::vector<Products> serial;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    serial.push_back(produce(seed));
  }
  // Same keys (every thread seed 0) and distinct keys (seed = thread),
  // both starting from a cold memo.
  for (const bool distinct : {false, true}) {
    sim::clear_memo();
    std::vector<Products> got(4);
    std::vector<std::thread> threads;
    for (std::uint64_t t = 0; t < 4; ++t) {
      threads.emplace_back(
          [&, t] { got[t] = produce(distinct ? t : 0); });
    }
    for (auto& th : threads) {
      th.join();
    }
    for (std::size_t t = 0; t < 4; ++t) {
      const auto& want = serial[distinct ? t : 0];
      expect_obs_bitwise(want.ob, got[t].ob);
      EXPECT_TRUE(bitwise_equal(want.sky, got[t].sky));
      EXPECT_TRUE(bitwise_equal(want.noise, got[t].noise));
    }
  }
}
