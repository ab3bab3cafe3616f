// Hot-path microbenchmarks (google-benchmark): FFT, Viterbi, precoder
// construction, full TX/RX chains, and the sample-level medium — followed
// by a latency-distribution section (p50/p90/p99 per op from the obs
// histogram type, not just means).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <optional>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "chan/medium.h"
#include "chan/oscillator.h"
#include "core/link_model.h"
#include "core/precoder.h"
#include "dsp/fft.h"
#include "dsp/fft_plan.h"
#include "dsp/rng.h"
#include "engine/metrics.h"
#include "net/queue.h"
#include "net/traffic_api.h"
#include "obs/flight/recorder.h"
#include "phy/receiver.h"
#include "phy/transmitter.h"
#include "phy/viterbi.h"
#include "phy/workspace.h"
#include "rate/ber.h"
#include "rate/effective_snr.h"
#include "rate/per.h"
#include "simd/aligned.h"
#include "simd/backend.h"
#include "simd/kernels.h"
#include "traffic/flow.h"
#include "traffic/policy.h"

namespace {

using namespace jmb;

void BM_Fft64(benchmark::State& state) {
  Rng rng(1);
  cvec x = rng.cgaussian_vec(64);
  for (auto _ : state) {
    cvec y = x;
    fft_inplace(y);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Fft64);

void BM_Fft1024(benchmark::State& state) {
  Rng rng(2);
  cvec x = rng.cgaussian_vec(1024);
  for (auto _ : state) {
    cvec y = x;
    fft_inplace(y);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Fft1024);

// Planned counterparts: cached twiddles/bit-reversal plus a reused buffer
// instead of a fresh copy — the workspace hot-path configuration.
void BM_Fft64Planned(benchmark::State& state) {
  Rng rng(1);
  const cvec x = rng.cgaussian_vec(64);
  const FftPlan plan(64);
  cvec y(64);
  for (auto _ : state) {
    std::copy(x.begin(), x.end(), y.begin());
    plan.forward(y);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Fft64Planned);

void BM_Fft1024Planned(benchmark::State& state) {
  Rng rng(2);
  const cvec x = rng.cgaussian_vec(1024);
  const FftPlan plan(1024);
  cvec y(1024);
  for (auto _ : state) {
    std::copy(x.begin(), x.end(), y.begin());
    plan.forward(y);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Fft1024Planned);

void BM_ViterbiDecode1500B(benchmark::State& state) {
  Rng rng(3);
  phy::BitVec bits(12000);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.uniform_int(0, 1));
  const phy::BitVec coded = phy::conv_encode(bits);
  std::vector<double> llr(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) llr[i] = coded[i] ? -2.0 : 2.0;
  phy::ViterbiScratch scratch;
  phy::BitVec out;
  for (auto _ : state) {
    phy::viterbi_decode_into(llr, bits.size(), false, scratch, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1500);
}
BENCHMARK(BM_ViterbiDecode1500B);

void BM_TxChain1500B(benchmark::State& state) {
  Rng rng(4);
  phy::ByteVec psdu(1500);
  for (auto& b : psdu) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  const phy::Transmitter tx;
  const phy::Mcs mcs{phy::Modulation::kQam64, phy::CodeRate::kThreeQuarters};
  for (auto _ : state) {
    auto frame = tx.build_frame(psdu, mcs);
    benchmark::DoNotOptimize(frame.samples.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1500);
}
BENCHMARK(BM_TxChain1500B);

void BM_RxChain1500B(benchmark::State& state) {
  Rng rng(5);
  phy::ByteVec psdu(1500);
  for (auto& b : psdu) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  const phy::Transmitter tx;
  Workspace ws;
  const phy::Receiver rx(ws);
  const phy::Mcs mcs{phy::Modulation::kQam16, phy::CodeRate::kHalf};
  auto frame = tx.build_frame(psdu, mcs);
  cvec buf(200 + frame.samples.size());
  const double nv = mean_power(frame.samples) / from_db(25.0);
  for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = rng.cgaussian(nv);
  for (std::size_t i = 0; i < frame.samples.size(); ++i) {
    buf[100 + i] += frame.samples[i];
  }
  for (auto _ : state) {
    auto res = rx.receive(buf);
    benchmark::DoNotOptimize(res.psdu.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1500);
}
BENCHMARK(BM_RxChain1500B);

void BM_ZfPrecoderBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(6);
  const core::ChannelMatrixSet h = core::random_channel_set(n, n, rng);
  for (auto _ : state) {
    auto p = core::Precoder::build(h);
    benchmark::DoNotOptimize(p->scale());
  }
}
BENCHMARK(BM_ZfPrecoderBuild)->Arg(2)->Arg(4)->Arg(6)->Arg(8)->Arg(10);

// The pipeline's warm path: the same pseudoinverses rebuilt in place into
// one Precoder, with every per-subcarrier temporary in a reused
// PinvScratch instead of the heap.
void BM_ZfPrecoderBuildWs(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(6);
  const core::ChannelMatrixSet h = core::random_channel_set(n, n, rng);
  const core::PrecoderConfig cfg;
  Workspace ws;
  core::Precoder p;
  for (auto _ : state) {
    const bool ok = p.rebuild_kind(h, cfg, ws.pinv);
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(p.scale());
  }
}
BENCHMARK(BM_ZfPrecoderBuildWs)->Arg(2)->Arg(4)->Arg(10);

// Per-subcarrier pseudo-inverse, the arithmetic core of the precoder.
// The "before" is the pre-workspace composition — hermitian / operator* /
// inverse() via solve(identity), every intermediate allocated fresh, the
// same arithmetic pinv_into runs — against the workspace kernel that
// reuses scratch and output across subcarriers.
std::optional<CMatrix> pinv_preworkspace(const CMatrix& a, double ridge) {
  const CMatrix ah = a.hermitian();
  const bool fat = a.rows() <= a.cols();
  CMatrix gram = fat ? a * ah : ah * a;
  for (std::size_t i = 0; i < gram.rows(); ++i) gram(i, i) += ridge;
  const auto gram_inv = inverse(gram);
  if (!gram_inv) return std::nullopt;
  return fat ? ah * (*gram_inv) : (*gram_inv) * ah;
}

void BM_PinvPerSubcarrier(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(9);
  const core::ChannelMatrixSet h = core::random_channel_set(n, n, rng);
  std::size_t k = 0;
  for (auto _ : state) {
    auto w = pinv_preworkspace(h.at(k % h.n_subcarriers()), 0.0);
    benchmark::DoNotOptimize(&(*w)(0, 0));
    ++k;
  }
}
BENCHMARK(BM_PinvPerSubcarrier)->Arg(2)->Arg(4);

void BM_PinvIntoWorkspace(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(9);
  const core::ChannelMatrixSet h = core::random_channel_set(n, n, rng);
  Workspace ws;
  CMatrix w;
  std::size_t k = 0;
  for (auto _ : state) {
    bool ok = pinv_into(h.at(k % h.n_subcarriers()), 0.0, ws.pinv, w);
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(&w(0, 0));
    ++k;
  }
}
BENCHMARK(BM_PinvIntoWorkspace)->Arg(2)->Arg(4);

// The batched pseudo-inverse kernel alone on one block of kMaxRealLanes
// subcarriers (one AVX-512 block, two AVX2 blocks) of N x N channels:
// items are subcarriers, so the rate compares with BM_PinvIntoWorkspace.
void BM_ZfPinvBlock(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kSc = simd::kMaxRealLanes;
  Rng rng(9);
  const core::ChannelMatrixSet h = core::random_channel_set(n, n, rng);
  std::vector<CMatrix> w(kSc, CMatrix(n, n));
  std::vector<const double*> in;
  std::vector<double*> out;
  for (std::size_t k = 0; k < kSc; ++k) {
    in.push_back(reinterpret_cast<const double*>(&h.at(k)(0, 0)));
    out.push_back(reinterpret_cast<double*>(&w[k](0, 0)));
  }
  simd::advec work(simd::zf_pinv_work_size(n, n));
  const simd::Kernels& kern = simd::active_kernels();
  for (auto _ : state) {
    bool ok = kern.zf_pinv(in.data(), n, n, kSc, 0.0, out.data(), work.data());
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kSc));
  state.SetLabel(kern.name);
}
BENCHMARK(BM_ZfPinvBlock)->Arg(2)->Arg(4)->Arg(6)->Arg(8)->Arg(10);

void BM_PrecodeTransmitVector(benchmark::State& state) {
  Rng rng(8);
  const core::ChannelMatrixSet h = core::random_channel_set(4, 4, rng);
  const auto p = core::Precoder::build(h);
  cvec x(4);
  for (auto& v : x) v = rng.cgaussian();
  std::size_t k = 0;
  for (auto _ : state) {
    cvec y(p->n_tx());  // allocated per call, unlike the ...Into variant
    p->transmit_vector_into(k % h.n_subcarriers(), x, y);
    benchmark::DoNotOptimize(y.data());
    ++k;
  }
}
BENCHMARK(BM_PrecodeTransmitVector);

void BM_PrecodeTransmitVectorInto(benchmark::State& state) {
  Rng rng(8);
  const core::ChannelMatrixSet h = core::random_channel_set(4, 4, rng);
  const auto p = core::Precoder::build(h);
  cvec x(4);
  for (auto& v : x) v = rng.cgaussian();
  cvec y(p->n_tx());
  std::size_t k = 0;
  for (auto _ : state) {
    p->transmit_vector_into(k % h.n_subcarriers(), x, y);
    benchmark::DoNotOptimize(y.data());
    ++k;
  }
}
BENCHMARK(BM_PrecodeTransmitVectorInto);

// ---- SIMD dispatch comparison -------------------------------------------
// Forced-backend variants of the two hottest kernel consumers: the planned
// FFT and the per-antenna precoder application over packed weight rows.
// The dispatch contract makes backends bitwise interchangeable, so these
// runs differ only in speed. Registered from main() for whatever backends
// this CPU supports.

void BM_FftPlannedBackend(benchmark::State& state, simd::Backend be,
                          std::size_t n) {
  simd::set_backend(be);
  Rng rng(1);
  const cvec x = rng.cgaussian_vec(n);
  const FftPlan plan(n);
  simd::acvec y(n);
  for (auto _ : state) {
    std::copy(x.begin(), x.end(), y.begin());
    plan.forward(std::span<cplx>(y.data(), y.size()));
    benchmark::DoNotOptimize(y.data());
  }
  simd::reset_backend_cache();
}

void BM_PrecoderApplyBackend(benchmark::State& state, simd::Backend be) {
  simd::set_backend(be);
  Rng rng(8);
  const core::ChannelMatrixSet h = core::random_channel_set(4, 4, rng);
  const auto p = core::Precoder::build(h);
  const std::size_t n_sc = h.n_subcarriers();
  // Four per-stream symbol rows accumulated into one antenna row, exactly
  // the SynthesisStage data-symbol path over the packed weights.
  std::vector<simd::acvec> xs(4, simd::acvec(n_sc));
  for (auto& xrow : xs) {
    for (auto& v : xrow) v = rng.cgaussian();
  }
  simd::acvec acc(n_sc);
  const simd::Kernels& kern = simd::active_kernels();
  for (auto _ : state) {
    for (std::size_t a = 0; a < 4; ++a) {
      std::fill(acc.begin(), acc.end(), cplx{});
      const double* wrows[4];
      const double* xrows[4];
      for (std::size_t j = 0; j < 4; ++j) {
        wrows[j] =
            reinterpret_cast<const double*>(p->weight_row(a, j).data());
        xrows[j] = reinterpret_cast<const double*>(xs[j].data());
      }
      kern.cmacn(reinterpret_cast<double*>(acc.data()), wrows, xrows, 4,
                 n_sc);
      benchmark::DoNotOptimize(acc.data());
    }
  }
  simd::reset_backend_cache();
}

void register_backend_benchmarks() {
  for (const simd::Backend be :
       {simd::Backend::kScalar, simd::Backend::kSse2, simd::Backend::kAvx2,
        simd::Backend::kAvx512, simd::Backend::kNeon}) {
    if (!simd::backend_available(be)) continue;
    const std::string name = simd::backend_name(be);
    benchmark::RegisterBenchmark(
        ("BM_Fft64Planned/" + name).c_str(),
        [be](benchmark::State& s) { BM_FftPlannedBackend(s, be, 64); });
    benchmark::RegisterBenchmark(
        ("BM_Fft1024Planned/" + name).c_str(),
        [be](benchmark::State& s) { BM_FftPlannedBackend(s, be, 1024); });
    benchmark::RegisterBenchmark(
        ("BM_PrecoderApply52/" + name).c_str(),
        [be](benchmark::State& s) { BM_PrecoderApplyBackend(s, be); });
  }
}

// ---- Shared downlink queue under deep backlogs --------------------------
// Overloaded traffic parks thousands of packets across many more clients
// than there are streams; pop_joint / pop_aggregate selection must stay
// O(active clients), not O(total queued packets). Steady state: pop a
// joint batch, push every packet straight back, so depth never drains.

net::DownlinkQueue deep_queue(std::size_t n_clients,
                              std::size_t pkts_per_client) {
  net::DownlinkQueue q;
  for (std::size_t i = 0; i < pkts_per_client; ++i) {
    for (std::size_t c = 0; c < n_clients; ++c) {
      q.push(net::Packet{c, 1500, 0, 0.0, 0, 0});
    }
  }
  return q;
}

void BM_PopJointDeepQueue(benchmark::State& state) {
  const auto n_clients = static_cast<std::size_t>(state.range(0));
  const auto per_client = static_cast<std::size_t>(state.range(1));
  constexpr std::size_t kStreams = 4;
  net::DownlinkQueue q = deep_queue(n_clients, per_client);
  for (auto _ : state) {
    auto batch = q.pop_joint(kStreams);
    benchmark::DoNotOptimize(batch.data());
    for (const auto& p : batch) q.push(p);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kStreams);
}
BENCHMARK(BM_PopJointDeepQueue)->Args({8, 128})->Args({64, 16})->Args({64, 64});

void BM_PopAggregateDeepQueue(benchmark::State& state) {
  const auto n_clients = static_cast<std::size_t>(state.range(0));
  const auto per_client = static_cast<std::size_t>(state.range(1));
  const net::AggLimits lim{4, 8000};
  net::DownlinkQueue q = deep_queue(n_clients, per_client);
  std::vector<net::Packet> mpdus;  // the MAC's reused per-slot buffer
  std::size_t c = 0;
  for (auto _ : state) {
    mpdus.clear();
    q.pop_aggregate_into(c, lim, mpdus);
    benchmark::DoNotOptimize(mpdus.data());
    for (const auto& p : mpdus) q.push(p);
    c = (c + 1) % n_clients;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_PopAggregateDeepQueue)->Args({64, 16})->Args({64, 64});

// Full scheduler hop: proportional-fair select over every backlogged
// client, then serve the picks — the per-slot policy overhead the traffic
// MAC pays on top of raw queue ops.
void BM_PfSelectDeepQueue(benchmark::State& state) {
  const auto n_clients = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kStreams = 4;
  net::DownlinkQueue q = deep_queue(n_clients, 32);
  traffic::PfScheduler pf;
  const net::RateHintFn hint = [](std::size_t client) {
    return 6.0 + static_cast<double>(client % 8) * 6.0;
  };
  std::vector<net::Packet> mpdus;
  for (auto _ : state) {
    auto picks = pf.select(q, kStreams, 0.0, &hint);
    benchmark::DoNotOptimize(picks.data());
    for (const std::size_t c : picks) {
      mpdus.clear();
      const std::size_t bytes =
          q.pop_aggregate_into(c, net::AggLimits{}, mpdus);
      pf.on_served(c, static_cast<double>(bytes), 1e-3);
      for (const auto& p : mpdus) q.push(p);
    }
    pf.on_slot(1e-3);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_PfSelectDeepQueue)->Arg(8)->Arg(64);

// A Rayleigh-faded 48-subcarrier link state at a mean SNR of `mean_db`,
// drawn at run time so no call can be folded at compile time.
rvec faded_link_snrs(double mean_db) {
  Rng rng(23);
  rvec snr(phy::kNumDataCarriers);
  for (double& s : snr) s = from_db(mean_db) * std::norm(rng.cgaussian());
  return snr;
}

// Effective-SNR rate selection at a mean SNR of range(0) dB (low / mid /
// high): the per-link query the MAC pays, on a fresh state each call.
void BM_SelectRate(benchmark::State& state) {
  const rvec snr = faded_link_snrs(static_cast<double>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(snr.data());
    auto r = rate::select_rate(snr);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SelectRate)->Arg(5)->Arg(15)->Arg(30);

// The exact PER at the rate the state selects (the base rate when none
// decodes): the 48-erfc mean plus the ~60-step bisection, which is what
// rate::delivered's fallback pays when a draw lands inside the bracket.
void BM_FrameErrorProb(benchmark::State& state) {
  const rvec snr = faded_link_snrs(static_cast<double>(state.range(0)));
  const std::size_t ri = rate::select_rate(snr).value_or(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(snr.data());
    double per = rate::frame_error_prob(snr, ri, 1500);
    benchmark::DoNotOptimize(per);
  }
}
BENCHMARK(BM_FrameErrorProb)->Arg(5)->Arg(15)->Arg(30);

// The rate pick through the cross-state memo the MAC owns, at a mean SNR
// of range(0) dB. range(1) picks the leg:
//   0  hit: one state, drawn again and again as a pool entry is;
//   1  miss: cycles through more distinct states than the memo has slots,
//      keeping only states that share their slot with another, so every
//      call misses. A miss prices certified brackets (the interval mean
//      BER, the closed-form root and two certifying ber calls per
//      modulation asked), not the exact mean or the bisection, unless a
//      threshold lands inside one;
//   2  the miss leg's states without a memo: leg 1 minus leg 2 is the
//      memo's own cost on a miss (BM_SelectRate prices a single,
//      different state).
void BM_EffectiveSnrMemo(benchmark::State& state) {
  constexpr std::size_t kSlots = rate::EffectiveSnrMemo::kSlots;
  const double mean_db = static_cast<double>(state.range(0));
  const std::int64_t leg = state.range(1);
  Rng rng(23);
  std::vector<rvec> states;
  std::array<std::size_t, kSlots> in_slot{};
  for (std::size_t i = 0; i < (leg == 0 ? 1 : 2 * kSlots); ++i) {
    rvec snr(phy::kNumDataCarriers);
    for (double& s : snr) s = from_db(mean_db) * std::norm(rng.cgaussian());
    ++in_slot[rate::EffectiveSnrMemo::slot(snr)];
    states.push_back(std::move(snr));
  }
  if (leg != 0) {
    std::erase_if(states, [&](const rvec& s) {
      return in_slot[rate::EffectiveSnrMemo::slot(s)] < 2;
    });
  }
  rate::EffectiveSnrMemo memo;
  rate::EffectiveSnrMemo* const use = leg == 2 ? nullptr : &memo;
  rate::EffectiveSnrs link;
  std::size_t i = 0;
  for (auto _ : state) {
    link.assign(states[i], use);
    auto r = rate::select_rate(link);
    benchmark::DoNotOptimize(r);
    if (++i == states.size()) i = 0;
  }
}
BENCHMARK(BM_EffectiveSnrMemo)->ArgsProduct({{5, 15, 30}, {0, 1, 2}});

// The certified effective-SNR bracket of one faded state at a mean SNR of
// range(0) dB, at the modulation of the rate the state selects. range(1)
// picks the leg:
//   0  fresh: no memo, so every call prices the bracket (the MAC's first
//      pricing of a state);
//   1  memo hit: the same state through a memo that holds it.
// Both legs copy the 48 SNRs into the link state, as the MAC does.
void BM_EffectiveSnrBound(benchmark::State& state) {
  const rvec snr = faded_link_snrs(static_cast<double>(state.range(0)));
  const phy::Modulation m =
      phy::rate_set()[rate::select_rate(snr).value_or(0)].modulation;
  rate::EffectiveSnrMemo memo;
  rate::EffectiveSnrMemo* const use = state.range(1) == 1 ? &memo : nullptr;
  rate::EffectiveSnrs link;
  for (auto _ : state) {
    link.assign(snr, use);
    benchmark::DoNotOptimize(link.bound(m));
  }
}
BENCHMARK(BM_EffectiveSnrBound)->ArgsProduct({{5, 15, 30}, {0, 1}});

// The mean BER of one faded state at a mean SNR of range(0) dB, at the
// modulation of the rate the state selects, two ways:
//  - BM_MeanBerExact: one glibc-erfc ber() per subcarrier, summed in
//    order, as effective_snr computes it (the fallback's cost);
//  - BM_MeanBerInterval: rate::mean_ber_interval, the erfc_sqrt kernel on
//    the active backend plus the in-order sum (a first pricing's cost).
std::pair<rvec, phy::Modulation> mean_ber_case(const benchmark::State& state) {
  rvec snr = faded_link_snrs(static_cast<double>(state.range(0)));
  const phy::Modulation m =
      phy::rate_set()[rate::select_rate(snr).value_or(0)].modulation;
  return {std::move(snr), m};
}

void BM_MeanBerExact(benchmark::State& state) {
  const auto [snr, m] = mean_ber_case(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(snr.data());
    double sum = 0.0;
    for (const double s : snr) sum += rate::ber(m, std::max(s, 0.0));
    benchmark::DoNotOptimize(sum / static_cast<double>(snr.size()));
  }
}
BENCHMARK(BM_MeanBerExact)->Arg(5)->Arg(15)->Arg(30);

void BM_MeanBerInterval(benchmark::State& state) {
  const auto [snr, m] = mean_ber_case(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(snr.data());
    benchmark::DoNotOptimize(rate::mean_ber_interval(m, snr));
  }
}
BENCHMARK(BM_MeanBerInterval)->Arg(5)->Arg(15)->Arg(30);

// One MPDU's delivery decision, rate::delivered, at the rate the state
// selects and a fresh uniform draw per call. Legs as BM_EffectiveSnrBound:
// range(1) = 0 prices the bracket each call, 1 reads it from the memo.
// A draw inside the bracket's PER bounds settles the value by bisection.
void BM_Delivered(benchmark::State& state) {
  const rvec snr = faded_link_snrs(static_cast<double>(state.range(0)));
  const std::size_t ri = rate::select_rate(snr).value_or(0);
  rate::EffectiveSnrMemo memo;
  rate::EffectiveSnrMemo* const use = state.range(1) == 1 ? &memo : nullptr;
  rate::EffectiveSnrs link;
  Rng rng(29);
  for (auto _ : state) {
    link.assign(snr, use);
    const bool ok = rate::delivered(link, ri, 1500, rng.uniform());
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_Delivered)->ArgsProduct({{5, 15, 30}, {0, 1}});

// The closed-form link model's per-draw cost: one beamforming_sinr over
// an N x N well-conditioned channel with a prebuilt ZF precoder (what each
// SinrPool entry costs; BM_ZfPrecoderBuild prices the build).
void BM_BeamformingSinr(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  const core::ChannelMatrixSet h = core::well_conditioned_channel_set(
      std::vector<std::vector<double>>(n, std::vector<double>(n, 100.0)),
      rng);
  const auto precoder = core::Precoder::build(h);
  rvec phase(n, 0.01);
  phase[0] = 0.0;
  for (auto _ : state) {
    auto rep = core::beamforming_sinr(h, *precoder, phase, 1.0);
    benchmark::DoNotOptimize(rep.sinr.data());
  }
}
BENCHMARK(BM_BeamformingSinr)->Arg(2)->Arg(4)->Arg(10);

// One well-conditioned N x N channel draw (the i.i.d. draw plus in-place
// Gram-Schmidt on every subcarrier), as each saturated-scaling case makes.
void BM_WellConditionedChannelSet(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<std::vector<double>> gains(n,
                                               std::vector<double>(n, 100.0));
  Rng rng(8);
  for (auto _ : state) {
    auto h = core::well_conditioned_channel_set(gains, rng);
    benchmark::DoNotOptimize(&h.at(0)(0, 0));
  }
}
BENCHMARK(BM_WellConditionedChannelSet)->Arg(4)->Arg(10);

// Building the overload workload's arrival source: 12 users of the "mixed"
// profile, each flow seeding its own Rng and taking its first draws.
void BM_PacketSourceBuild(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    traffic::PacketSource src(seed++, 12, traffic::make_profile("mixed", 10.0),
                              0.1);
    benchmark::DoNotOptimize(src.next_arrival_s());
  }
}
BENCHMARK(BM_PacketSourceBuild);

// The overload workload's arrival path: 12 "mixed" users offering 0.4x,
// 1x and 2x a 120 Mb/s cell, drained over a 0.1 s horizon in 0.5 ms steps
// (about one A-MPDU slot), with next_arrival_s() after each step as an
// idle MAC asks it (items = packets; the source is built untimed).
void BM_PacketSourceDrain(benchmark::State& state, double load) {
  constexpr std::size_t kUsers = 12;
  constexpr double kHorizonS = 0.1;
  constexpr int kSteps = 200;
  const traffic::Profile profile =
      traffic::make_profile("mixed", load * 120.0 / kUsers);
  std::uint64_t seed = 1;
  std::int64_t packets = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::optional<traffic::PacketSource> src(std::in_place, seed++, kUsers,
                                             profile, kHorizonS);
    std::optional<net::DownlinkQueue> q(std::in_place);
    state.ResumeTiming();
    for (int k = 1; k <= kSteps; ++k) {
      packets += static_cast<std::int64_t>(
          src->drain_until(kHorizonS * k / kSteps, *q));
      benchmark::DoNotOptimize(src->next_arrival_s());
    }
    state.PauseTiming();
    src.reset();
    q.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(packets);
}
BENCHMARK_CAPTURE(BM_PacketSourceDrain, 0.4, 0.4);
BENCHMARK_CAPTURE(BM_PacketSourceDrain, 1, 1.0);
BENCHMARK_CAPTURE(BM_PacketSourceDrain, 2, 2.0);

// One raw 64-bit draw from the library Rng (its Mersenne Twister),
// amortizing the 312-word twist over every 312th call.
void BM_RngDraw(benchmark::State& state) {
  Rng rng(9);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next_u64());
}
BENCHMARK(BM_RngDraw);

// One uniform double on [-1, 3): a canonical draw, scaled.
void BM_RngUniform(benchmark::State& state) {
  Rng rng(10);
  for (auto _ : state) benchmark::DoNotOptimize(rng.uniform(-1.0, 3.0));
}
BENCHMARK(BM_RngUniform);

// One real Gaussian by the polar method: ~1.27 pairs of canonical draws,
// one log and one sqrt.
void BM_RngGaussian(benchmark::State& state) {
  Rng rng(11);
  for (auto _ : state) benchmark::DoNotOptimize(rng.gaussian(0.7));
}
BENCHMARK(BM_RngGaussian);

// fill_cgaussian over runs of 1, 256 and 8000 complex samples
// (items = samples).
void BM_RngFillCgaussian(benchmark::State& state) {
  Rng rng(12);
  cvec y(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    rng.fill_cgaussian(y, 1e-3);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RngFillCgaussian)->Arg(1)->Arg(256)->Arg(8000);

// The noise floor alone: an 8000-sample receive() with no transmissions
// (items = received samples).
void BM_MediumFloor(benchmark::State& state) {
  constexpr std::size_t kWindow = 8000;
  chan::Medium medium({});
  const chan::NodeId rx = medium.add_node(
      chan::OscillatorParams{.ppm = 3.0, .carrier_hz = 2.4e9,
                             .sample_rate_hz = 10e6,
                             .phase_noise_linewidth_hz = 0.1, .seed = 1},
      1e-3);
  for (auto _ : state) {
    cvec y = medium.receive(rx, 1e-3, kWindow);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kWindow));
}
BENCHMARK(BM_MediumFloor);

// The sample-level medium: one receive() of a 10k-sample window in which
// four transmitters overlap, each with its own SFO and CFO (up to 20 ppm),
// phase noise and 4-tap multipath (items = received samples). The window
// stays put, so every iteration is one more receiver of the same window,
// as in a joint frame.
void BM_MediumReceive(benchmark::State& state) {
  constexpr std::size_t kWindow = 10000;
  constexpr double kFs = 10e6;
  constexpr double kStart = 1e-3;
  const auto osc = [](double ppm, std::uint64_t seed) {
    return chan::OscillatorParams{.ppm = ppm, .carrier_hz = 2.4e9,
                                  .sample_rate_hz = kFs,
                                  .phase_noise_linewidth_hz = 0.1,
                                  .seed = seed};
  };
  chan::Medium medium({});
  const chan::NodeId rx = medium.add_node(osc(-7.0, 1), 1e-3);
  Rng rng(3);
  const std::array<double, 4> ppm{20.0, -20.0, 12.5, -3.0};
  for (std::size_t k = 0; k < ppm.size(); ++k) {
    const chan::NodeId tx = medium.add_node(osc(ppm[k], 2 + k), 1e-3);
    const double delay_s = 20e-9 * static_cast<double>(k + 1);
    medium.set_link(tx, rx, {.gain = 1.0, .n_taps = 4, .tap_decay = 0.5,
                             .rice_k = 0.0, .delay_s = delay_s,
                             .coherence_time_s = 0.25, .sample_rate_hz = kFs,
                             .seed = 10 + k});
    medium.transmit(tx, kStart + static_cast<double>(100 + 10 * k) / kFs,
                    rng.cgaussian_vec(kWindow - 200, 1.0));
  }
  for (auto _ : state) {
    cvec y = medium.receive(rx, kStart, kWindow);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kWindow));
}
BENCHMARK(BM_MediumReceive);

// The joint-frame shape: the lead AP sends a 320-sample header, then all
// four APs (up to 20 ppm apart, 4-tap multipath) a data burst each, and
// four clients read the whole 5k-sample window (items = received samples
// over all four clients). Arg 0 renders the clients with four receive()
// calls, arg 1 with one receive_into(), which walks each oscillator's
// phase noise once instead of once per client.
void BM_MediumReceiveJointWindow(benchmark::State& state) {
  constexpr std::size_t kWindow = 5000;
  constexpr double kFs = 10e6;
  constexpr double kStart = 1e-3;
  const auto osc = [](double ppm, std::uint64_t seed) {
    return chan::OscillatorParams{.ppm = ppm, .carrier_hz = 2.4e9,
                                  .sample_rate_hz = kFs,
                                  .phase_noise_linewidth_hz = 0.1,
                                  .seed = seed};
  };
  chan::Medium medium({});
  const std::array<double, 4> ap_ppm{3.0, -17.0, 19.5, -8.0};
  const std::array<double, 4> client_ppm{-19.0, 20.0, 0.5, -4.0};
  std::vector<chan::NodeId> aps, clients;
  for (std::size_t k = 0; k < 4; ++k) {
    aps.push_back(medium.add_node(osc(ap_ppm[k], 1 + k), 1e-3));
  }
  for (std::size_t k = 0; k < 4; ++k) {
    clients.push_back(medium.add_node(osc(client_ppm[k], 5 + k), 1e-3));
  }
  for (std::size_t a = 0; a < aps.size(); ++a) {
    for (std::size_t c = 0; c < clients.size(); ++c) {
      medium.set_link(aps[a], clients[c],
                      {.gain = 1.0, .n_taps = 4, .tap_decay = 0.5,
                       .rice_k = 0.0,
                       .delay_s = (10.0 + 7.0 * double(a) + 3.0 * double(c)) *
                                  1e-9,
                       .coherence_time_s = 0.25, .sample_rate_hz = kFs,
                       .seed = 10 + 4 * a + c});
    }
  }
  Rng rng(3);
  medium.transmit(aps[0], kStart + 100.0 / kFs, rng.cgaussian_vec(320, 1.0));
  for (std::size_t a = 0; a < aps.size(); ++a) {
    medium.transmit(aps[a], kStart + (500.0 + 0.3 * double(a)) / kFs,
                    rng.cgaussian_vec(kWindow - 700, 1.0));
  }
  const bool batched = state.range(0) != 0;
  std::vector<cvec> out(clients.size());
  for (auto _ : state) {
    if (batched) {
      medium.receive_into(clients, kStart, kWindow, out);
    } else {
      for (std::size_t c = 0; c < clients.size(); ++c) {
        out[c] = medium.receive(clients[c], kStart, kWindow);
      }
    }
    for (cvec& y : out) benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kWindow * clients.size()));
}
BENCHMARK(BM_MediumReceiveJointWindow)->Arg(0)->Arg(1);

// One phase-noise run of range(0) samples (items = samples): every
// iteration restarts at the run's first index, so this is the cost of the
// walk itself, one Gaussian increment per sample.
void BM_PhaseNoiseRun(benchmark::State& state) {
  const chan::Oscillator osc({.ppm = 0.0, .carrier_hz = 2.4e9,
                              .sample_rate_hz = 10e6,
                              .phase_noise_linewidth_hz = 0.1, .seed = 5});
  std::vector<double> run(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    osc.phase_noise_run(100000, run);
    benchmark::DoNotOptimize(run.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PhaseNoiseRun)->Arg(256)->Arg(10000);

// Flight-recorder hot path: a raw record write with a pre-interned name
// — the per-event tax every instrumented site pays. The budget in
// DESIGN.md §11 is <20 ns/record.
void BM_FlightRecordWrite(benchmark::State& state) {
  auto& rec = obs::flight::FlightRecorder::instance();
  rec.set_enabled_for_test(true);
  obs::flight::FlightRing* ring = rec.local_ring();
  const std::uint32_t name = rec.intern("bench/flight_write");
  std::uint64_t i = 0;
  for (auto _ : state) {
    ring->write(obs::flight::EventType::kInstant, name,
                obs::flight::now_ticks(), obs::flight::make_flow(0, i), i);
    ++i;
  }
  benchmark::DoNotOptimize(ring);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_FlightRecordWrite);

// Full span scope: thread-local ring load + two TSC reads + one record —
// the cost ScopedStageTimer adds per stage invocation.
void BM_FlightSpanScope(benchmark::State& state) {
  auto& rec = obs::flight::FlightRecorder::instance();
  rec.set_enabled_for_test(true);
  const std::uint32_t name = rec.intern("bench/flight_span");
  std::uint64_t i = 0;
  for (auto _ : state) {
    obs::flight::SpanScope span(name, obs::flight::make_flow(0, i++));
    benchmark::DoNotOptimize(i);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_FlightSpanScope);

// Latency distributions: run each op repeatedly under a ScopedStageTimer
// so every repetition lands in the op's frame_us histogram, then report
// p50/p90/p99 — tail latency that google-benchmark's mean hides.
void run_latency_distributions(const obs::ObsSink& sink) {
  constexpr int kReps = 200;
  {
    Rng rng(1);
    const cvec x = rng.cgaussian_vec(64);
    for (int i = 0; i < kReps; ++i) {
      const engine::ScopedStageTimer timer(&sink, "fft64");
      cvec y = x;
      fft_inplace(y);
      benchmark::DoNotOptimize(y.data());
    }
  }
  {
    Rng rng(2);
    const cvec x = rng.cgaussian_vec(1024);
    for (int i = 0; i < kReps; ++i) {
      const engine::ScopedStageTimer timer(&sink, "fft1024");
      cvec y = x;
      fft_inplace(y);
      benchmark::DoNotOptimize(y.data());
    }
  }
  {
    Rng rng(1);
    const cvec x = rng.cgaussian_vec(64);
    const FftPlan plan(64);
    cvec y(64);
    for (int i = 0; i < kReps; ++i) {
      const engine::ScopedStageTimer timer(&sink, "fft64_planned");
      std::copy(x.begin(), x.end(), y.begin());
      plan.forward(y);
      benchmark::DoNotOptimize(y.data());
    }
  }
  {
    Rng rng(6);
    const core::ChannelMatrixSet h = core::random_channel_set(4, 4, rng);
    for (int i = 0; i < kReps; ++i) {
      const engine::ScopedStageTimer timer(&sink, "zf_build_4x4");
      auto p = core::Precoder::build(h);
      benchmark::DoNotOptimize(p->scale());
    }
  }
  {
    Rng rng(6);
    const core::ChannelMatrixSet h = core::random_channel_set(4, 4, rng);
    const core::PrecoderConfig cfg;
    Workspace ws;
    core::Precoder p;
    for (int i = 0; i < kReps; ++i) {
      const engine::ScopedStageTimer timer(&sink, "zf_build_4x4_ws");
      const bool ok = p.rebuild_kind(h, cfg, ws.pinv);
      benchmark::DoNotOptimize(ok);
    }
  }
  {
    Rng rng(4);
    phy::ByteVec psdu(1500);
    for (auto& b : psdu) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const phy::Transmitter tx;
    const phy::Mcs mcs{phy::Modulation::kQam64, phy::CodeRate::kThreeQuarters};
    for (int i = 0; i < 50; ++i) {
      const engine::ScopedStageTimer timer(&sink, "tx_chain_1500B");
      auto frame = tx.build_frame(psdu, mcs);
      benchmark::DoNotOptimize(frame.samples.data());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  auto opts = bench::parse_options(argc, argv, "perf_micro");
  // A timing benchmark's whole output is wall-clock derived, so its
  // exports always include timing metrics.
  opts.timing_metrics = true;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  register_backend_benchmarks();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  obs::MetricRegistry reg;
  run_latency_distributions(obs::ObsSink(&reg, 0));
  std::fprintf(stderr, "\n[perf-micro] latency distributions\n");
  engine::print_stage_metrics(reg);

  if (!opts.metrics_out.empty()) {
    const std::string text =
        obs::bench_result_json(opts.info, reg, opts.timing_metrics);
    if (!obs::write_text_file(opts.metrics_out, text)) return 1;
  }
  return 0;
}
