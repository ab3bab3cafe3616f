// Zero-allocation contract for the steady-state frame loop.
//
// This binary links jmb_alloc_count, which replaces the global operator
// new/delete with counting versions (armed via set_alloc_counting or the
// JMB_COUNT_ALLOCS environment variable). A few warm-up frames let every
// workspace buffer reach steady-state capacity; after that, one full
// tx->rx->precode frame's worth of span kernels must not touch the heap.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "core/precoder.h"
#include "core/types.h"
#include "dsp/fft_plan.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "obs/alloc_count.h"
#include "obs/flight/recorder.h"
#include "phy/convcode.h"
#include "phy/interleaver.h"
#include "phy/modulation.h"
#include "phy/ofdm.h"
#include "phy/viterbi.h"
#include "phy/workspace.h"
#include "simd/aligned.h"
#include "simd/backend.h"
#include "simd/kernels.h"

namespace jmb {
namespace {

using phy::kNfft;
using phy::kNumDataCarriers;
using phy::kSymbolLen;

TEST(ZeroAlloc, CountersObserveAnExplicitAllocation) {
  obs::reset_alloc_counts();
  obs::set_alloc_counting(true);
  {
    std::vector<double> v(1024, 0.0);
    ASSERT_EQ(v.size(), 1024u);
  }
  obs::set_alloc_counting(false);
  const obs::AllocCounts c = obs::alloc_counts();
  EXPECT_GE(c.allocs, 1u);
  EXPECT_GE(c.deallocs, 1u);
  EXPECT_GE(c.bytes, 1024u * sizeof(double));
}

TEST(ZeroAlloc, SteadyStateFrameKernelsDoNotAllocate) {
  const phy::Mcs mcs{phy::Modulation::kQpsk, phy::CodeRate::kHalf};
  Workspace ws;

  // Deterministic channel set: well conditioned, full rank everywhere.
  core::ChannelMatrixSet h(2, 2);
  const std::size_t n_sc = h.n_subcarriers();
  for (std::size_t k = 0; k < n_sc; ++k) {
    const double t = static_cast<double>(k) / static_cast<double>(n_sc);
    h.at(k) = CMatrix{{cplx{1.2, 0.1 * t}, cplx{0.3, -0.2}},
                      {cplx{-0.25, 0.4}, cplx{0.9 + 0.1 * t, -0.05}}};
  }
  const auto precoder = core::Precoder::build(h, ws);
  ASSERT_TRUE(precoder.has_value());

  // Preallocated frame buffers (what SystemState/Workspace own in the
  // engine; plain locals here so the test pins down the kernel contract).
  cvec data_in(kNumDataCarriers), freq(kNfft), sym(kSymbolLen), freq2(kNfft);
  cvec data_out(kNumDataCarriers), pilots(phy::kNumPilots);
  cvec remod(kNumDataCarriers);
  rvec noise48(kNumDataCarriers, 1e-2);
  CMatrix w_scratch;
  cvec x{cplx{0.7, -0.7}, cplx{-0.7, 0.7}};
  cvec txv(2);
  for (std::size_t i = 0; i < data_in.size(); ++i) {
    const double re = (i % 2 == 0) ? 0.7071 : -0.7071;
    const double im = (i % 3 == 0) ? 0.7071 : -0.7071;
    data_in[i] = cplx{re, im};
  }

  // An attached-but-idle fault session: the plan's only event lies far
  // beyond the simulated horizon, so pumping it every frame exercises the
  // hot-path timeline advance (and the window queries) without ever
  // crossing an edge. None of it may touch the heap.
  const fault::FaultPlan plan =
      fault::FaultPlan::single_crash(/*ap=*/1, /*t_s=*/1e9, /*outage_s=*/1.0,
                                     /*seed=*/7);
  fault::FaultSession fault_session(plan, /*n_aps=*/2, /*trial_seed=*/11);

  bool all_ok = true;
  const auto frame_iter = [&](std::size_t it) {
    fault_session.advance_to(static_cast<double>(it) * 1e-3);
    all_ok &= !fault_session.ap_down(0) && !fault_session.ap_down(1);
    all_ok &= !fault_session.sync_header_lost(1);
    all_ok &= !fault_session.stale_channel();
    all_ok &= fault_session.backhaul_delay_s() == 0.0;
    // Transmit side: map + modulate one OFDM symbol.
    phy::map_subcarriers_into(data_in, it % 7, freq);
    phy::ofdm_modulate_into(freq, sym);
    // Receive side: demodulate, extract, soft/hard demap, EVM re-modulate.
    phy::ofdm_demodulate_into(sym, freq2);
    phy::extract_data_into(freq2, data_out);
    phy::extract_pilots_into(freq2, pilots);
    phy::demodulate_soft_into(data_out, mcs.modulation, noise48, ws.llr_concat);
    phy::demodulate_hard_into(data_out, mcs.modulation, ws.hard_bits);
    phy::modulate_into(ws.hard_bits, mcs.modulation, remod);
    // Decode chain: deinterleave, depuncture, Viterbi.
    phy::deinterleave_soft_into(ws.llr_concat, mcs, ws.llr_dei);
    phy::depuncture_into(ws.llr_dei, kNumDataCarriers, mcs.code_rate,
                         ws.llr_mother);
    phy::viterbi_decode_into(ws.llr_mother, kNumDataCarriers,
                             /*terminated=*/false, ws.viterbi, ws.decoded_bits);
    // Precode path: per-subcarrier pseudo-inverse + transmit vector.
    all_ok &= pinv_into(h.at(it % n_sc), 0.0, ws.pinv, w_scratch);
    precoder->transmit_vector_into(it % n_sc, x, txv);
    (void)ws.fft_plan(kNfft);
  };

  // Warm-up: builds interleaver tables, FFT plans and buffer capacities.
  for (std::size_t it = 0; it < 3; ++it) frame_iter(it);
  ASSERT_TRUE(all_ok);

  obs::reset_alloc_counts();
  obs::set_alloc_counting(true);
  for (std::size_t it = 3; it < 200; ++it) frame_iter(it);
  obs::set_alloc_counting(false);

  const obs::AllocCounts c = obs::alloc_counts();
  EXPECT_EQ(c.allocs, 0u)
      << "steady-state frame kernels allocated " << c.allocs << " times ("
      << c.bytes << " bytes)";
  EXPECT_EQ(c.deallocs, 0u);
  EXPECT_TRUE(all_ok);

  // The counters ride along in timing exports via the PR 2 registry.
  obs::MetricRegistry reg;
  obs::export_alloc_metrics(reg);
  const obs::MetricRegistry::Entry* e = reg.find("alloc/new_calls");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->cls, obs::MetricClass::kTiming);
  EXPECT_EQ(std::get<obs::Gauge>(e->metric).value(), 0.0);
}

TEST(ZeroAlloc, FlightRecorderHotPathDoesNotAllocate) {
  // The flight recorder's steady-state cost — a record write and a span
  // scope, with recording *enabled* — must never touch the heap. Warm-up
  // leases this thread's ring and interns the names; after that, writes
  // are four relaxed stores into preallocated slots.
  namespace flight = obs::flight;
  auto& rec = flight::FlightRecorder::instance();
  rec.set_enabled_for_test(true);
  flight::FlightRing* ring = rec.local_ring();
  ASSERT_NE(ring, nullptr);
  const std::uint32_t span_name = rec.intern("zero_alloc/span");
  const std::uint32_t inst_name = rec.intern("zero_alloc/instant");
  // Warm the string_view lookup path too (the intern itself may allocate
  // on first sight; lookups afterwards must not).
  {
    flight::SpanScope warm(std::string_view("zero_alloc/span"));
  }

  obs::reset_alloc_counts();
  obs::set_alloc_counting(true);
  for (std::uint64_t it = 0; it < 4096; ++it) {
    const std::uint64_t flow = flight::make_flow(1, it);
    {
      flight::SpanScope span(span_name, flow);
      flight::record(flight::EventType::kSpan, inst_name,
                     flight::now_ticks(), flow, it);
    }
    flight::instant(inst_name, flow, it);
    {
      // Interned-name lookup by string: lock-free scan, no allocation.
      flight::SpanScope span(std::string_view("zero_alloc/span"), flow);
    }
  }
  obs::set_alloc_counting(false);

  const obs::AllocCounts c = obs::alloc_counts();
  EXPECT_EQ(c.allocs, 0u)
      << "flight hot path allocated " << c.allocs << " times (" << c.bytes
      << " bytes)";
  EXPECT_EQ(c.deallocs, 0u);
  EXPECT_GE(ring->written(), 4096u * 4);
}

TEST(ZeroAlloc, SimdDispatchPathDoesNotAllocate) {
  // The dispatched kernel table and the batched kernels themselves must
  // stay heap-free in steady state — including the first active_kernels()
  // resolution, which only reads cpuid/getenv and a couple of atomics.
  constexpr std::size_t kN = phy::kNfft;
  const FftPlan plan(kN);
  simd::acvec spec(kN), scratch(kN);
  simd::acvec w0(kN), w1(kN), x0(kN), x1(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    const double t = static_cast<double>(i) / kN;
    spec[i] = cplx{0.5 - t, t};
    w0[i] = cplx{1.0, -t};
    w1[i] = cplx{-0.5 + t, 0.25};
    x0[i] = cplx{t, 1.0 - t};
    x1[i] = cplx{-t, 0.5};
  }
  const double* wrows[2] = {reinterpret_cast<const double*>(w0.data()),
                            reinterpret_cast<const double*>(w1.data())};
  const double* xrows[2] = {reinterpret_cast<const double*>(x0.data()),
                            reinterpret_cast<const double*>(x1.data())};

  const auto iter = [&] {
    const simd::Kernels& kern = simd::active_kernels();
    scratch = spec;  // same capacity: assignment copies, no reallocation
    kern.cmacn(reinterpret_cast<double*>(scratch.data()), wrows, xrows, 2,
               kN);
    plan.forward(std::span<cplx>(scratch.data(), kN));
    plan.inverse(std::span<cplx>(scratch.data(), kN));
  };

  simd::reset_backend_cache();  // make the first iter resolve the backend
  obs::reset_alloc_counts();
  obs::set_alloc_counting(true);
  for (int it = 0; it < 50; ++it) iter();
  obs::set_alloc_counting(false);

  const obs::AllocCounts c = obs::alloc_counts();
  EXPECT_EQ(c.allocs, 0u)
      << "SIMD dispatch path allocated " << c.allocs << " times (" << c.bytes
      << " bytes)";
  EXPECT_EQ(c.deallocs, 0u);
}

TEST(ZeroAlloc, PrecoderRebuildKindDoesNotAllocate) {
  // The every-coherence-interval path of the precoder zoo: after the
  // first build of a given shape, rebuild_kind() must reuse the weight
  // and packed-SoA capacity for EVERY kind — the PrecodeStage emplace-
  // once + rebuild pattern depends on it. obs stays nullptr here: the
  // conditioning probes are allowed to allocate, the rebuild is not.
  Workspace ws;
  core::ChannelMatrixSet h_a(3, 3);
  core::ChannelMatrixSet h_b(3, 3);
  for (std::size_t k = 0; k < h_a.n_subcarriers(); ++k) {
    const double t = static_cast<double>(k + 1);
    for (std::size_t r = 0; r < 3; ++r) {
      for (std::size_t c = 0; c < 3; ++c) {
        const double base = r == c ? 1.5 : 0.2;
        h_a.at(k)(r, c) = cplx{base + 0.01 * t * (r + 1.0), 0.1 * (c + 1.0)};
        h_b.at(k)(r, c) = cplx{base - 0.01 * t * (c + 1.0), -0.1 * (r + 1.0)};
      }
    }
  }

  core::PrecoderConfig cfgs[3];
  cfgs[0].kind = phy::PrecoderKind::kZf;
  cfgs[1].kind = phy::PrecoderKind::kRzf;
  cfgs[1].ridge = 0.25;
  cfgs[2].kind = phy::PrecoderKind::kConj;

  for (const core::PrecoderConfig& cfg : cfgs) {
    auto p = core::Precoder::build_kind(h_a, cfg, ws);
    ASSERT_TRUE(p.has_value());

    obs::reset_alloc_counts();
    obs::set_alloc_counting(true);
    bool ok = true;
    for (int it = 0; it < 32; ++it) {
      ok &= p->rebuild_kind(it % 2 == 0 ? h_b : h_a, cfg, ws.pinv);
    }
    obs::set_alloc_counting(false);

    const obs::AllocCounts c = obs::alloc_counts();
    EXPECT_TRUE(ok);
    EXPECT_EQ(c.allocs, 0u)
        << phy::precoder_kind_name(cfg.kind) << " rebuild allocated "
        << c.allocs << " times (" << c.bytes << " bytes)";
    EXPECT_EQ(c.deallocs, 0u);
  }
}

}  // namespace
}  // namespace jmb
