// Engine layer: thread pool, trial runner determinism, and the staged
// pipeline's parity with the JmbSystem facade.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <string_view>
#include <vector>

#include "engine/env.h"
#include "engine/pipeline.h"
#include "engine/system.h"
#include "engine/thread_pool.h"
#include "engine/trial_runner.h"

namespace jmb {
namespace {

TEST(ThreadPool, RunsEveryTask) {
  engine::ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIsReusable) {
  engine::ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.submit([&count] { count.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(count.load(), 1);
  pool.submit([&count] { count.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPool, ZeroThreadsClampsToOne) {
  engine::ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait();
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, TasksMaySubmitFurtherTasks) {
  engine::ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&pool, &count] {
      count.fetch_add(1);
      pool.submit([&count] { count.fetch_add(1); });
    });
  }
  // wait() must also cover the tasks spawned from inside tasks: in_flight
  // is bumped at submit time, before the parent task retires.
  pool.wait();
  EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPool, DestructionWithDrainedQueueIsClean) {
  std::atomic<int> count{0};
  {
    engine::ThreadPool pool(2);
    for (int i = 0; i < 4; ++i) {
      pool.submit([&count] { count.fetch_add(1); });
    }
    pool.wait();  // queue drained; destructor only has to stop idle workers
  }
  EXPECT_EQ(count.load(), 4);
}

// The strict env parser behind JMB_THREADS (and every JMB_* integer knob):
// digits only, warn-once fallback on anything else.
TEST(EngineEnv, ParseU64StrictRejectsNonCanonicalForms) {
  std::uint64_t v = 0;
  EXPECT_TRUE(engine::parse_u64_strict("0", v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(engine::parse_u64_strict("18446744073709551615", v));
  EXPECT_EQ(v, UINT64_MAX);
  EXPECT_FALSE(engine::parse_u64_strict(nullptr, v));
  EXPECT_FALSE(engine::parse_u64_strict("", v));
  EXPECT_FALSE(engine::parse_u64_strict("-1", v));      // sign
  EXPECT_FALSE(engine::parse_u64_strict("+4", v));      // sign
  EXPECT_FALSE(engine::parse_u64_strict(" 4", v));      // leading whitespace
  EXPECT_FALSE(engine::parse_u64_strict("4 ", v));      // trailing whitespace
  EXPECT_FALSE(engine::parse_u64_strict("4x", v));      // trailing garbage
  EXPECT_FALSE(engine::parse_u64_strict("0x10", v));    // hex
  EXPECT_FALSE(engine::parse_u64_strict("18446744073709551616", v));  // 2^64
}

TEST(EngineEnv, EnvU64FallsBackOnMalformedValues) {
  bool warned = false;
  ASSERT_EQ(unsetenv("JMB_TEST_KNOB"), 0);
  EXPECT_EQ(engine::env_u64("JMB_TEST_KNOB", 7, true, warned), 7u);
  EXPECT_FALSE(warned);  // unset is not a warning

  ASSERT_EQ(setenv("JMB_TEST_KNOB", "12", 1), 0);
  EXPECT_EQ(engine::env_u64("JMB_TEST_KNOB", 7, true, warned), 12u);
  EXPECT_FALSE(warned);

  for (const char* bad : {"-3", " 4", "4x", "", "0"}) {
    warned = false;
    ASSERT_EQ(setenv("JMB_TEST_KNOB", bad, 1), 0);
    EXPECT_EQ(engine::env_u64("JMB_TEST_KNOB", 7, true, warned), 7u)
        << "value '" << bad << "'";
    EXPECT_TRUE(warned) << "value '" << bad << "'";
    // Second read with the flag still set stays silent.
    EXPECT_EQ(engine::env_u64("JMB_TEST_KNOB", 7, true, warned), 7u);
  }
  // With min_one off, an explicit 0 is a valid value.
  warned = false;
  ASSERT_EQ(setenv("JMB_TEST_KNOB", "0", 1), 0);
  EXPECT_EQ(engine::env_u64("JMB_TEST_KNOB", 7, false, warned), 0u);
  EXPECT_FALSE(warned);
  ASSERT_EQ(unsetenv("JMB_TEST_KNOB"), 0);
}

TEST(EngineEnv, ParseF64StrictRejectsNonCanonicalForms) {
  double v = 0.0;
  EXPECT_TRUE(engine::parse_f64_strict("0", v));
  EXPECT_DOUBLE_EQ(v, 0.0);
  EXPECT_TRUE(engine::parse_f64_strict("2", v));
  EXPECT_DOUBLE_EQ(v, 2.0);
  EXPECT_TRUE(engine::parse_f64_strict("0.5", v));
  EXPECT_DOUBLE_EQ(v, 0.5);
  EXPECT_TRUE(engine::parse_f64_strict("12.25", v));
  EXPECT_DOUBLE_EQ(v, 12.25);
  EXPECT_FALSE(engine::parse_f64_strict(nullptr, v));
  EXPECT_FALSE(engine::parse_f64_strict("", v));
  EXPECT_FALSE(engine::parse_f64_strict("-1", v));     // sign
  EXPECT_FALSE(engine::parse_f64_strict("+0.5", v));   // sign
  EXPECT_FALSE(engine::parse_f64_strict(" 1.5", v));   // leading whitespace
  EXPECT_FALSE(engine::parse_f64_strict("1.5 ", v));   // trailing whitespace
  EXPECT_FALSE(engine::parse_f64_strict(".5", v));     // leading dot
  EXPECT_FALSE(engine::parse_f64_strict("1.", v));     // trailing dot
  EXPECT_FALSE(engine::parse_f64_strict("1.2.3", v));  // two dots
  EXPECT_FALSE(engine::parse_f64_strict("1e3", v));    // exponent
  EXPECT_FALSE(engine::parse_f64_strict("nan", v));
  EXPECT_FALSE(engine::parse_f64_strict("1.5x", v));   // trailing garbage
}

TEST(EngineEnv, EnvF64FallsBackOnMalformedValues) {
  bool warned = false;
  ASSERT_EQ(unsetenv("JMB_TEST_RATE"), 0);
  EXPECT_DOUBLE_EQ(engine::env_f64("JMB_TEST_RATE", 1.5, warned), 1.5);
  EXPECT_FALSE(warned);  // unset is not a warning

  ASSERT_EQ(setenv("JMB_TEST_RATE", "2.5", 1), 0);
  EXPECT_DOUBLE_EQ(engine::env_f64("JMB_TEST_RATE", 1.5, warned), 2.5);
  EXPECT_FALSE(warned);
  // An explicit 0 is a valid value (it disables rate-style knobs).
  ASSERT_EQ(setenv("JMB_TEST_RATE", "0", 1), 0);
  EXPECT_DOUBLE_EQ(engine::env_f64("JMB_TEST_RATE", 1.5, warned), 0.0);
  EXPECT_FALSE(warned);

  for (const char* bad : {"-3", " 4", "4x", "", ".5", "1e2", "1.2.3"}) {
    warned = false;
    ASSERT_EQ(setenv("JMB_TEST_RATE", bad, 1), 0);
    EXPECT_DOUBLE_EQ(engine::env_f64("JMB_TEST_RATE", 1.5, warned), 1.5)
        << "value '" << bad << "'";
    EXPECT_TRUE(warned) << "value '" << bad << "'";
    // Second read with the flag still set stays silent.
    EXPECT_DOUBLE_EQ(engine::env_f64("JMB_TEST_RATE", 1.5, warned), 1.5);
  }
  ASSERT_EQ(unsetenv("JMB_TEST_RATE"), 0);
}

TEST(EngineEnv, DefaultThreadCountSurvivesMalformedJmbThreads) {
  ASSERT_EQ(setenv("JMB_THREADS", "3", 1), 0);
  EXPECT_EQ(engine::default_thread_count(), 3u);
  for (const char* bad : {"-2", "4x", " 8", "", "0"}) {
    ASSERT_EQ(setenv("JMB_THREADS", bad, 1), 0);
    EXPECT_GE(engine::default_thread_count(), 1u) << "value '" << bad << "'";
  }
  ASSERT_EQ(unsetenv("JMB_THREADS"), 0);
  EXPECT_GE(engine::default_thread_count(), 1u);
}

TEST(TrialRunner, SeedsAreBaseXorIndex) {
  engine::TrialRunner runner({.base_seed = 0xabcd, .n_threads = 1});
  const auto seeds = runner.run(8, [](engine::TrialContext& ctx) {
    return ctx.seed;
  });
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(seeds[i], 0xabcdu ^ static_cast<std::uint64_t>(i));
  }
}

TEST(TrialRunner, ThreadCountDoesNotChangeResults) {
  auto body = [](engine::TrialContext& ctx) {
    // A few dependent draws so any RNG sharing would show.
    double acc = 0.0;
    for (int i = 0; i < 50; ++i) acc += ctx.rng.uniform(0.0, 1.0);
    return acc;
  };
  engine::TrialRunner serial({.base_seed = 99, .n_threads = 1});
  engine::TrialRunner parallel({.base_seed = 99, .n_threads = 4});
  const auto a = serial.run(32, body);
  const auto b = parallel.run(32, body);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "trial " << i;  // bit-identical, not approximate
  }
}

TEST(TrialRunner, MetricsMergeInTrialOrder) {
  auto body = [](engine::TrialContext& ctx) {
    ctx.metrics->stage(engine::kStagePrecode).add_condition(
        static_cast<double>(ctx.index + 1));
    return 0;
  };
  engine::TrialRunner serial({.base_seed = 5, .n_threads = 1});
  engine::TrialRunner parallel({.base_seed = 5, .n_threads = 4});
  (void)serial.run(16, body);
  (void)parallel.run(16, body);
  ASSERT_FALSE(serial.metrics().empty());
  const auto s = serial.metrics().snapshot(engine::kStagePrecode);
  const auto p = parallel.metrics().snapshot(engine::kStagePrecode);
  EXPECT_EQ(s.cond_count, 16u);
  EXPECT_EQ(p.cond_count, 16u);
  EXPECT_DOUBLE_EQ(s.cond_sum, p.cond_sum);
  EXPECT_DOUBLE_EQ(s.mean_condition(), p.mean_condition());
}

TEST(TrialRunner, ExceptionsPropagate) {
  engine::TrialRunner runner({.base_seed = 1, .n_threads = 4});
  EXPECT_THROW(
      runner.run(8,
                 [](engine::TrialContext& ctx) -> int {
                   if (ctx.index == 3) throw std::runtime_error("boom");
                   return 0;
                 }),
      std::runtime_error);
}

core::JointResult run_system_once(std::uint64_t seed) {
  core::SystemParams p;
  p.n_aps = 2;
  p.n_clients = 2;
  p.seed = seed;
  const double gain = core::JmbSystem::gain_for_snr_db(25.0, 1.0);
  core::JmbSystem sys(p, {{gain, gain}, {gain, gain}});
  if (!sys.run_measurement()) return {};
  sys.advance_time(5e-3);
  phy::ByteVec a(200, 0x11), b(200, 0x22);
  return sys.transmit_joint({a, b},
                            {phy::Modulation::kQpsk, phy::CodeRate::kHalf});
}

TEST(TrialRunner, SampleLevelTrialsAreThreadCountInvariant) {
  auto body = [](engine::TrialContext& ctx) {
    return run_system_once(ctx.seed);
  };
  engine::TrialRunner serial({.base_seed = 7, .n_threads = 1});
  engine::TrialRunner parallel({.base_seed = 7, .n_threads = 4});
  const auto a = serial.run(4, body);
  const auto b = parallel.run(4, body);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].per_client.size(), b[i].per_client.size()) << "trial " << i;
    EXPECT_EQ(a[i].slaves_synced, b[i].slaves_synced) << "trial " << i;
    // Bit-identical outcomes, including the analog-domain EVM.
    EXPECT_EQ(a[i].precoder_scale, b[i].precoder_scale) << "trial " << i;
    for (std::size_t c = 0; c < a[i].per_client.size(); ++c) {
      EXPECT_EQ(a[i].per_client[c].ok, b[i].per_client[c].ok);
      EXPECT_EQ(a[i].per_client[c].psdu, b[i].per_client[c].psdu);
      EXPECT_EQ(a[i].per_client[c].evm_snr_db, b[i].per_client[c].evm_snr_db);
    }
  }
}

// Driving the stages directly through the facade's SystemState must
// reproduce JmbSystem::transmit_joint exactly on the same seed.
TEST(FramePipeline, MatchesFacadeOnFixedSeed) {
  const std::uint64_t kSeed = 1234;
  const phy::Mcs mcs{phy::Modulation::kQpsk, phy::CodeRate::kHalf};
  phy::ByteVec pa(150, 0xA5), pb(150, 0x3C);

  // Path 1: the facade.
  core::SystemParams p;
  p.n_aps = 2;
  p.n_clients = 2;
  p.seed = kSeed;
  const double gain = core::JmbSystem::gain_for_snr_db(25.0, 1.0);
  core::JmbSystem facade(p, {{gain, gain}, {gain, gain}});
  ASSERT_TRUE(facade.run_measurement());
  facade.advance_time(5e-3);
  const core::JointResult via_facade = facade.transmit_joint({pa, pb}, mcs);

  // Path 2: hand-run the stages on an identical system.
  core::JmbSystem host(p, {{gain, gain}, {gain, gain}});
  engine::SystemState& sys = host.state();
  engine::FramePipeline pipeline;
  {
    engine::FrameContext ctx(sys);
    ASSERT_TRUE(pipeline.run_measurement(ctx));
  }
  host.advance_time(5e-3);
  std::vector<std::vector<cvec>> streams{sys.tx.build_freq_symbols(pa, mcs),
                                         sys.tx.build_freq_symbols(pb, mcs)};
  ASSERT_EQ(streams[0].size(), streams[1].size());
  engine::FrameContext ctx(sys);
  ctx.streams = &streams;
  const core::JointResult via_stages = pipeline.run_joint(ctx);

  EXPECT_EQ(via_facade.slaves_synced, via_stages.slaves_synced);
  EXPECT_EQ(via_facade.precoder_scale, via_stages.precoder_scale);
  ASSERT_EQ(via_facade.per_client.size(), via_stages.per_client.size());
  for (std::size_t c = 0; c < via_facade.per_client.size(); ++c) {
    EXPECT_EQ(via_facade.per_client[c].ok, via_stages.per_client[c].ok);
    EXPECT_EQ(via_facade.per_client[c].psdu, via_stages.per_client[c].psdu);
    EXPECT_EQ(via_facade.per_client[c].evm_snr_db,
              via_stages.per_client[c].evm_snr_db);
  }
}

TEST(FramePipeline, RecordsPerStageMetrics) {
  core::SystemParams p;
  p.n_aps = 2;
  p.n_clients = 2;
  p.seed = 42;
  const double gain = core::JmbSystem::gain_for_snr_db(25.0, 1.0);
  core::JmbSystem sys(p, {{gain, gain}, {gain, gain}});
  engine::StageMetricsSet metrics;
  sys.attach_metrics(&metrics);
  ASSERT_TRUE(sys.run_measurement());
  sys.advance_time(5e-3);
  phy::ByteVec a(100, 0x01), b(100, 0x02);
  (void)sys.transmit_joint({a, b},
                           {phy::Modulation::kQpsk, phy::CodeRate::kHalf});

  bool saw_measure = false, saw_precode = false, saw_decode = false;
  for (const std::string_view name : metrics.stage_names()) {
    const engine::StageSnapshot m = metrics.snapshot(name);
    if (name == engine::kStageMeasure) {
      saw_measure = true;
      EXPECT_EQ(m.frames, 1u);
    }
    if (name == engine::kStagePrecode) {
      saw_precode = true;
      EXPECT_GT(m.mean_condition(), 0.0);
    }
    if (name == engine::kStageDecode) saw_decode = true;
  }
  EXPECT_TRUE(saw_measure);
  EXPECT_TRUE(saw_precode);
  EXPECT_TRUE(saw_decode);
}

}  // namespace
}  // namespace jmb
