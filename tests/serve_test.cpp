/// Job-server subsystem tests (DESIGN.md §13): canonical schedule-digest
/// keying (rotation angles and geometry must change the key; the
/// checkpoint manifest refuses a digest mismatch), the LRU schedule
/// cache, wire-protocol parsing, admission control, and in-process
/// end-to-end serving — bit-identical results vs direct engine runs,
/// cache hits on repeated shapes, concurrent tenants, preempt-and-resume
/// under a single worker, and graceful shutdown that checkpoints
/// in-flight work.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "circuit/io.hpp"
#include "circuit/supremacy.hpp"
#include "ckpt/reader.hpp"
#include "ckpt/writer.hpp"
#include "core/error.hpp"
#include "core/rng.hpp"
#include "fp32/distributed_f32.hpp"
#include "runtime/distributed.hpp"
#include "sched/digest.hpp"
#include "serve/admission.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/fingerprint.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace quasar {
namespace {

namespace fs = std::filesystem;

std::string test_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("quasar_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

Circuit small_supremacy(int rows, int cols, int depth, std::uint64_t seed) {
  SupremacyOptions options;
  options.rows = rows;
  options.cols = cols;
  options.depth = depth;
  options.seed = seed;
  return make_supremacy_circuit(options);
}

ScheduleOptions options_for(int num_local, int kmax = 5) {
  ScheduleOptions options;
  options.num_local = num_local;
  options.kmax = kmax;
  return options;
}

// ------------------------------------------------------ schedule digest

TEST(ScheduleDigest, StableAcrossCalls) {
  const Circuit circuit = small_supremacy(3, 3, 8, 5);
  const ScheduleOptions options = options_for(7);
  EXPECT_EQ(sched::schedule_digest(circuit, options),
            sched::schedule_digest(circuit, options));
  EXPECT_NE(sched::schedule_digest(circuit, options), 0u);
}

TEST(ScheduleDigest, RotationAngleChangesDigest) {
  // Two circuits identical except for one rotation angle must never
  // share a schedule-cache entry or satisfy each other's manifests.
  Circuit a(4);
  Circuit b(4);
  for (int q = 0; q < 4; ++q) {
    a.h(q);
    b.h(q);
  }
  a.rz(2, 0.25);
  b.rz(2, 0.25000001);
  const ScheduleOptions options = options_for(3);
  EXPECT_NE(sched::schedule_digest(a, options),
            sched::schedule_digest(b, options));
}

TEST(ScheduleDigest, GeometryAndOptionsChangeDigest) {
  const Circuit circuit = small_supremacy(3, 3, 8, 5);
  const std::uint32_t base =
      sched::schedule_digest(circuit, options_for(7));
  EXPECT_NE(base, sched::schedule_digest(circuit, options_for(6)));
  EXPECT_NE(base, sched::schedule_digest(circuit, options_for(7, 4)));
  ScheduleOptions full = options_for(7);
  full.specialization = SpecializationMode::kFull;
  EXPECT_NE(base, sched::schedule_digest(circuit, full));
}

TEST(ScheduleDigest, KeyTextIsVersionedAndReadable) {
  const Circuit circuit = small_supremacy(3, 3, 4, 1);
  const std::string key = sched::schedule_key_text(circuit, options_for(7));
  EXPECT_EQ(key.rfind("quasar-schedule-key 1\n", 0), 0u);
  EXPECT_NE(key.find("options local 7"), std::string::npos);
}

TEST(ScheduleDigest, ManifestRefusesAngleModifiedCircuit) {
  // The manifest carries the canonical circuit+options digest; resuming
  // against a circuit whose only difference is one rotation angle must
  // fail loudly instead of producing silently wrong amplitudes.
  const std::string dir = test_dir("digest_manifest");
  Circuit circuit(6);
  for (int q = 0; q < 6; ++q) circuit.h(q);
  circuit.rz(1, 0.5);
  circuit.cz(0, 5);
  circuit.cnot(2, 4);
  const ScheduleOptions options = options_for(4, 3);
  const Schedule schedule = make_schedule(circuit, options);

  DistributedSimulator sim(6, 4);
  sim.init_basis(0);
  ckpt::CheckpointOptions ckpt_options;
  ckpt_options.directory = dir;
  ckpt::CheckpointWriter writer(ckpt_options);
  CheckpointedRun run;
  run.writer = &writer;
  sim.run(circuit, schedule, run);
  writer.close();

  Circuit modified(6);
  for (int q = 0; q < 6; ++q) modified.h(q);
  modified.rz(1, 0.5000001);
  modified.cz(0, 5);
  modified.cnot(2, 4);

  const auto snapshot = ckpt::CheckpointReader(dir).load_latest();
  ASSERT_TRUE(snapshot.has_value());
  DistributedSimulator rejected(6, 4);
  EXPECT_THROW(rejected.resume(*snapshot, modified, schedule), Error);
  DistributedSimulator accepted(6, 4);
  EXPECT_EQ(accepted.resume(*snapshot, circuit, schedule),
            schedule.stages.size());
}

// -------------------------------------------------------- schedule cache

TEST(ScheduleCache, LruEvictionAndStats) {
  serve::ScheduleCache cache(2);
  auto schedule = [](int tag) {
    auto s = std::make_shared<Schedule>();
    s->num_qubits = tag;
    return std::shared_ptr<const Schedule>(s);
  };
  EXPECT_EQ(cache.lookup("a"), nullptr);
  cache.insert("a", schedule(1));
  cache.insert("b", schedule(2));
  EXPECT_NE(cache.lookup("a"), nullptr);  // refreshes a's recency
  cache.insert("c", schedule(3));         // evicts b, the LRU entry
  EXPECT_EQ(cache.lookup("b"), nullptr);
  EXPECT_NE(cache.lookup("a"), nullptr);
  EXPECT_NE(cache.lookup("c"), nullptr);

  const serve::ScheduleCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(ScheduleCache, HitReturnsSamePointer) {
  serve::ScheduleCache cache(4);
  auto schedule = std::make_shared<const Schedule>();
  cache.insert("key", schedule);
  EXPECT_EQ(cache.lookup("key").get(), schedule.get());
}

// --------------------------------------------------------- wire protocol

TEST(Protocol, JobSpecRoundTrips) {
  serve::JobSpec spec;
  spec.engine = "fp32";
  spec.local = 9;
  spec.kmax = 4;
  spec.mode = SpecializationMode::kFull;
  spec.samples = 16;
  spec.seed = 77;
  spec.uniform_init = true;
  spec.priority = serve::JobSpec::Priority::kBatch;
  spec.transport = TransportKind::kProc;
  spec.stall_ms = 250;

  const serve::JobSpec parsed =
      serve::JobSpec::parse(serve::split_tokens(spec.to_tokens()));
  EXPECT_EQ(parsed.engine, "fp32");
  EXPECT_EQ(parsed.local, 9);
  EXPECT_EQ(parsed.kmax, 4);
  EXPECT_EQ(parsed.mode, SpecializationMode::kFull);
  EXPECT_EQ(parsed.samples, 16);
  EXPECT_EQ(parsed.seed, 77u);
  EXPECT_TRUE(parsed.uniform_init);
  EXPECT_EQ(parsed.priority, serve::JobSpec::Priority::kBatch);
  EXPECT_EQ(parsed.transport, TransportKind::kProc);
  EXPECT_EQ(parsed.stall_ms, 250);
}

TEST(Protocol, JobSpecParsesStrictly) {
  EXPECT_THROW(serve::JobSpec::parse({"v=1", "flux=9"}), Error);
  EXPECT_THROW(serve::JobSpec::parse({"v=1", "engine=fp16"}), Error);
  EXPECT_THROW(serve::JobSpec::parse({"v=1", "local=ten"}), Error);
  EXPECT_THROW(serve::JobSpec::parse({"v=2"}), Error);
  EXPECT_THROW(serve::JobSpec::parse({"engine=fp64"}), Error);  // no v=1
  EXPECT_NO_THROW(serve::JobSpec::parse({"v=1"}));
}

TEST(Protocol, EndpointParsing) {
  const serve::Endpoint u = serve::parse_endpoint("unix:/tmp/x.sock");
  EXPECT_EQ(u.kind, serve::Endpoint::Kind::kUnix);
  EXPECT_EQ(u.path, "/tmp/x.sock");
  EXPECT_EQ(u.to_string(), "unix:/tmp/x.sock");

  const serve::Endpoint t = serve::parse_endpoint("tcp:127.0.0.1:7777");
  EXPECT_EQ(t.kind, serve::Endpoint::Kind::kTcp);
  EXPECT_EQ(t.host, "127.0.0.1");
  EXPECT_EQ(t.port, 7777);

  EXPECT_THROW(serve::parse_endpoint("udp:1.2.3.4:5"), Error);
  EXPECT_THROW(serve::parse_endpoint("unix:"), Error);
  EXPECT_THROW(serve::parse_endpoint("tcp:localhost"), Error);
  EXPECT_THROW(serve::parse_endpoint("tcp:1.2.3.4:notaport"), Error);
}

// ------------------------------------------------------------- admission

TEST(Admission, PeakBytesCoverStateAndBounce) {
  EXPECT_EQ(serve::peak_run_bytes(10, "fp64", 1 << 20),
            (std::uint64_t{16} << 10) + (1u << 20));
  EXPECT_EQ(serve::peak_run_bytes(10, "fp32", 0), std::uint64_t{8} << 10);
}

TEST(Admission, PeakBytesSaturateInsteadOfWrapping) {
  // 16 << n wraps uint64 at n >= 60 (fp64); the sizing must saturate so
  // an exabyte-scale job trips the budget check instead of passing it.
  const std::uint64_t max64 = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(serve::peak_run_bytes(60, "fp64", 0), max64);
  EXPECT_EQ(serve::peak_run_bytes(62, "fp64", 1 << 20), max64);
  EXPECT_EQ(serve::peak_run_bytes(61, "fp32", 0), max64);
  EXPECT_EQ(serve::peak_run_bytes(59, "fp64", 0), std::uint64_t{1} << 63);

  serve::JobSpec spec;
  spec.local = 34;  // g = 28: inside the rank cap, so memory decides
  const Circuit widest(62);
  EXPECT_NE(serve::admission_error(widest, spec,
                                   serve::peak_run_bytes(62, "fp64", 0),
                                   std::uint64_t{8} << 30)
                .find("reason=memory"),
            std::string::npos);
}

TEST(Admission, RejectsGlobalQubitsBeyondRankCap) {
  // g beyond kMaxGlobalQubits must be a geometry rejection (2^g ranks
  // would overflow the pricing model's int), even under an unlimited
  // memory budget.
  serve::JobSpec spec;
  spec.local = 10;
  const Circuit wide(45);  // g = 35
  EXPECT_NE(serve::admission_error(
                wide, spec, 0, std::numeric_limits<std::uint64_t>::max())
                .find("reason=geometry"),
            std::string::npos);
  serve::JobSpec at_cap;
  at_cap.local = 45 - serve::kMaxGlobalQubits;  // g exactly at the cap
  EXPECT_EQ(serve::admission_error(
                wide, at_cap, 0, std::numeric_limits<std::uint64_t>::max()),
            std::string());
}

TEST(Admission, RejectsImpossibleGeometry) {
  serve::JobSpec spec;
  spec.engine = "fp32";
  spec.local = 6;
  const Circuit wide(20);  // g = 14 > 12 for fp32
  EXPECT_NE(serve::admission_error(wide, spec, 0, 1 << 30).find(
                "reason=geometry"),
            std::string::npos);

  serve::JobSpec lopsided;
  lopsided.engine = "fp32";
  lopsided.local = 4;  // g = 6 > l = 4
  const Circuit ten(10);
  EXPECT_NE(serve::admission_error(ten, lopsided, 0, 1 << 30).find(
                "reason=geometry"),
            std::string::npos);
}

TEST(Admission, RejectsFp32Sampling) {
  serve::JobSpec spec;
  spec.engine = "fp32";
  spec.local = 8;
  spec.samples = 4;
  const Circuit circuit(10);
  EXPECT_NE(serve::admission_error(circuit, spec, 0, 1 << 30).find(
                "reason=samples"),
            std::string::npos);
}

TEST(Admission, RejectsOverbudgetAndProcFanout) {
  serve::JobSpec spec;
  spec.local = 8;
  const Circuit circuit(10);
  EXPECT_NE(serve::admission_error(circuit, spec, 1000, 999).find(
                "reason=memory"),
            std::string::npos);

  serve::JobSpec proc;
  proc.local = 4;  // 64 ranks > the 16-process cap
  proc.transport = TransportKind::kProc;
  EXPECT_NE(serve::admission_error(circuit, proc, 0, 1 << 30).find(
                "reason=transport"),
            std::string::npos);
}

TEST(Admission, PricesAndClassifiesJobs) {
  const Circuit circuit = small_supremacy(3, 3, 8, 5);
  const ScheduleOptions options = options_for(7);
  const Schedule schedule = make_schedule(circuit, options);
  serve::JobSpec spec;
  spec.local = 7;

  serve::JobPrice price =
      serve::price_job(circuit, schedule, spec, 1 << 20, 1e9);
  EXPECT_GT(price.predicted_seconds, 0.0);
  EXPECT_GT(price.peak_bytes, std::uint64_t{16} << 9);
  EXPECT_TRUE(price.interactive);  // threshold is effectively infinite

  spec.priority = serve::JobSpec::Priority::kBatch;
  EXPECT_FALSE(serve::price_job(circuit, schedule, spec, 1 << 20, 1e9)
                   .interactive);
  spec.priority = serve::JobSpec::Priority::kInteractive;
  EXPECT_TRUE(serve::price_job(circuit, schedule, spec, 1 << 20, 0.0)
                  .interactive);
}

// ------------------------------------------------------------ end to end

/// The four canonical result lines of a direct (unserved) run.
std::vector<std::string> direct_lines(const Circuit& circuit,
                                      const serve::JobSpec& spec) {
  ScheduleOptions options = options_for(spec.local, spec.kmax);
  options.specialization = spec.mode;
  const Schedule schedule = make_schedule(circuit, options);
  Rng rng(spec.seed);
  std::vector<std::string> lines;
  if (spec.engine == "fp32") {
    DistributedSimulatorF sim(circuit.num_qubits(), spec.local);
    if (spec.uniform_init) {
      sim.init_uniform();
    } else {
      sim.init_basis(0);
    }
    sim.run(circuit, schedule);
    lines.push_back(
        serve::format_fingerprint_line(serve::state_fingerprint(sim)));
    lines.push_back(serve::format_norm_line(sim.norm_squared()));
    lines.push_back(serve::format_entropy_line(sim.entropy()));
    lines.push_back(serve::format_samples_line({}));
    return lines;
  }
  DistributedSimulator sim(circuit.num_qubits(), spec.local);
  if (spec.uniform_init) {
    sim.init_uniform();
  } else {
    sim.init_basis(0);
  }
  sim.run(circuit, schedule);
  lines.push_back(
      serve::format_fingerprint_line(serve::state_fingerprint(sim)));
  lines.push_back(serve::format_norm_line(sim.norm_squared()));
  lines.push_back(serve::format_entropy_line(sim.entropy()));
  lines.push_back(serve::format_samples_line(
      spec.samples > 0 ? sim.sample(spec.samples, rng)
                       : std::vector<Index>{}));
  return lines;
}

std::string circuit_text(const Circuit& circuit) {
  std::ostringstream out;
  write_circuit(out, circuit);
  return out.str();
}

serve::ServeOptions server_options(const std::string& name, int workers) {
  serve::ServeOptions options;
  const std::string root = test_dir(name);
  options.endpoint = serve::parse_endpoint("unix:" + root + "/s.sock");
  options.workers = workers;
  options.scratch_dir = root + "/scratch";
  return options;
}

TEST(JobServer, ServedRunMatchesDirectRunBitIdentically) {
  serve::JobServer server(server_options("serve_parity", 2));
  server.start();

  const Circuit circuit = small_supremacy(3, 3, 8, 5);
  serve::JobSpec spec;
  spec.local = 7;
  spec.samples = 8;

  serve::ServeClient client(server.endpoint());
  const serve::SubmitOutcome outcome =
      client.submit(spec, circuit_text(circuit));
  ASSERT_TRUE(outcome.accepted) << outcome.reject_line;
  ASSERT_TRUE(outcome.done) << outcome.error;
  EXPECT_EQ(outcome.result_lines, direct_lines(circuit, spec));
  server.stop();
}

TEST(JobServer, Fp32ServedRunMatchesDirectRun) {
  serve::JobServer server(server_options("serve_fp32", 1));
  server.start();

  const Circuit circuit = small_supremacy(3, 3, 6, 11);
  serve::JobSpec spec;
  spec.engine = "fp32";
  spec.local = 7;
  spec.uniform_init = true;

  serve::ServeClient client(server.endpoint());
  const serve::SubmitOutcome outcome =
      client.submit(spec, circuit_text(circuit));
  ASSERT_TRUE(outcome.accepted) << outcome.reject_line;
  ASSERT_TRUE(outcome.done) << outcome.error;
  EXPECT_EQ(outcome.result_lines, direct_lines(circuit, spec));
  server.stop();
}

TEST(JobServer, RepeatedShapeHitsScheduleCache) {
  serve::JobServer server(server_options("serve_cache", 1));
  server.start();

  const Circuit circuit = small_supremacy(3, 3, 8, 5);
  serve::JobSpec spec;
  spec.local = 7;
  const std::string text = circuit_text(circuit);

  serve::ServeClient client(server.endpoint());
  const serve::SubmitOutcome first = client.submit(spec, text);
  ASSERT_TRUE(first.done) << first.error;
  EXPECT_FALSE(first.cache_hit);
  const serve::SubmitOutcome second = client.submit(spec, text);
  ASSERT_TRUE(second.done) << second.error;
  EXPECT_TRUE(second.cache_hit);
  // Identical spec + circuit => identical digest and identical results.
  EXPECT_NE(first.queued_line.find("cache=miss"), std::string::npos);
  EXPECT_NE(second.queued_line.find("cache=hit"), std::string::npos);
  EXPECT_EQ(first.result_lines, second.result_lines);

  // A rotation-angle tweak must miss: same shape, different physics.
  Circuit tweaked = circuit;
  tweaked.rz(0, 1e-9);
  const serve::SubmitOutcome third =
      client.submit(spec, circuit_text(tweaked));
  ASSERT_TRUE(third.done) << third.error;
  EXPECT_FALSE(third.cache_hit);
  // And a different local-qubit count must miss even on the same text.
  serve::JobSpec narrower = spec;
  narrower.local = 6;
  const serve::SubmitOutcome fourth = client.submit(narrower, text);
  ASSERT_TRUE(fourth.done) << fourth.error;
  EXPECT_FALSE(fourth.cache_hit);

  const serve::JobServer::Stats stats = server.stats();
  EXPECT_EQ(stats.cache.hits, 1u);
  EXPECT_EQ(stats.cache.misses, 3u);
  server.stop();
}

TEST(JobServer, ConcurrentTenantsGetIndependentResults) {
  serve::JobServer server(server_options("serve_concurrent", 2));
  server.start();

  const Circuit a = small_supremacy(3, 3, 8, 5);
  const Circuit b = small_supremacy(3, 3, 8, 21);
  serve::JobSpec spec;
  spec.local = 7;
  spec.samples = 4;

  serve::SubmitOutcome out_a;
  serve::SubmitOutcome out_b;
  std::thread ta([&] {
    serve::ServeClient client(server.endpoint());
    out_a = client.submit(spec, circuit_text(a));
  });
  std::thread tb([&] {
    serve::ServeClient client(server.endpoint());
    out_b = client.submit(spec, circuit_text(b));
  });
  ta.join();
  tb.join();

  ASSERT_TRUE(out_a.done) << out_a.error;
  ASSERT_TRUE(out_b.done) << out_b.error;
  EXPECT_EQ(out_a.result_lines, direct_lines(a, spec));
  EXPECT_EQ(out_b.result_lines, direct_lines(b, spec));
  EXPECT_NE(out_a.result_lines[0], out_b.result_lines[0]);
  server.stop();
}

TEST(JobServer, PreemptsBatchForInteractiveAndResumesBitIdentically) {
  // One worker: a stalling batch job must yield to an interactive
  // arrival at its next stage boundary, then resume from its checkpoint
  // and still produce the exact result of an undisturbed run.
  serve::JobServer server(server_options("serve_preempt", 1));
  server.start();

  const Circuit batch_circuit = small_supremacy(3, 4, 16, 9);
  serve::JobSpec batch_spec;
  batch_spec.local = 10;
  batch_spec.samples = 4;
  batch_spec.priority = serve::JobSpec::Priority::kBatch;
  batch_spec.stall_ms = 600;

  std::atomic<int> batch_stage{0};
  serve::SubmitOutcome batch_out;
  std::thread batch_thread([&] {
    serve::ServeClient client(server.endpoint());
    batch_out = client.submit(
        batch_spec, circuit_text(batch_circuit),
        [&batch_stage](const std::string& status) {
          const std::size_t at = status.find("stage=");
          if (at != std::string::npos && status.find("state=running") !=
                                             std::string::npos) {
            batch_stage.store(std::atoi(status.c_str() + at + 6));
          }
        });
  });

  // Wait until the batch job is mid-run (inside a stage-boundary stall)
  // so a boundary is still ahead of it, then submit the interactive job.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (batch_stage.load() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_GE(batch_stage.load(), 1) << "batch job never reported progress";

  const Circuit interactive_circuit = small_supremacy(3, 3, 8, 5);
  serve::JobSpec interactive_spec;
  interactive_spec.local = 7;
  interactive_spec.priority = serve::JobSpec::Priority::kInteractive;
  serve::ServeClient client(server.endpoint());
  const serve::SubmitOutcome interactive_out =
      client.submit(interactive_spec, circuit_text(interactive_circuit));
  ASSERT_TRUE(interactive_out.done) << interactive_out.error;
  EXPECT_EQ(interactive_out.result_lines,
            direct_lines(interactive_circuit, interactive_spec));

  batch_thread.join();
  ASSERT_TRUE(batch_out.done) << batch_out.error;
  EXPECT_EQ(batch_out.result_lines,
            direct_lines(batch_circuit, batch_spec));

  const serve::JobServer::Stats stats = server.stats();
  EXPECT_GE(stats.preemptions, 1u);
  EXPECT_GE(stats.resumes, 1u);
  server.stop();
}

TEST(JobServer, RejectsInadmissibleJobs) {
  serve::ServeOptions options = server_options("serve_reject", 1);
  options.max_job_bytes = 1 << 20;  // far below any statevector + bounce
  serve::JobServer server(options);
  server.start();

  const Circuit circuit = small_supremacy(3, 3, 6, 3);
  serve::ServeClient client(server.endpoint());

  serve::JobSpec spec;
  spec.local = 7;
  const serve::SubmitOutcome memory = client.submit(spec, circuit_text(circuit));
  EXPECT_FALSE(memory.accepted);
  EXPECT_NE(memory.reject_line.find("reason=memory"), std::string::npos);

  serve::JobSpec fp32_sampling;
  fp32_sampling.engine = "fp32";
  fp32_sampling.local = 7;
  fp32_sampling.samples = 2;
  const serve::SubmitOutcome samples =
      client.submit(fp32_sampling, circuit_text(circuit));
  EXPECT_FALSE(samples.accepted);
  EXPECT_NE(samples.reject_line.find("reason=samples"), std::string::npos);

  serve::JobSpec single;
  single.local = 9;  // == circuit width: not distributed
  const serve::SubmitOutcome local =
      client.submit(single, circuit_text(circuit));
  EXPECT_FALSE(local.accepted);
  EXPECT_NE(local.reject_line.find("reason=local"), std::string::npos);

  EXPECT_EQ(server.stats().rejected, 3u);
  server.stop();
}

TEST(JobServer, BadSubmitSpecKeepsChannelAligned) {
  // A SUBMIT whose spec fails to parse arrives with its circuit body
  // already in flight. The server must drain the body through END, emit
  // exactly ONE error, and keep the connection request/reply aligned —
  // the body lines must not be parsed as verbs.
  serve::JobServer server(server_options("serve_badspec", 1));
  server.start();

  serve::LineChannel channel(serve::connect_endpoint(server.endpoint()));
  ASSERT_TRUE(channel.write_line("SUBMIT v=1 engine=fp16"));
  const Circuit circuit = small_supremacy(3, 3, 6, 3);
  std::istringstream body(circuit_text(circuit));
  std::string line;
  while (std::getline(body, line)) {
    ASSERT_TRUE(channel.write_line(line));
  }
  ASSERT_TRUE(channel.write_line("END"));

  ASSERT_TRUE(channel.read_line(line));
  EXPECT_EQ(line.rfind("ERROR ", 0), 0u) << line;
  // Alignment check: the next reply answers the next request, not a
  // stale per-body-line error.
  ASSERT_TRUE(channel.write_line("PING"));
  ASSERT_TRUE(channel.read_line(line));
  EXPECT_EQ(line, "PONG");

  // The same connection can still run a good submission end to end.
  ASSERT_TRUE(channel.write_line("SUBMIT v=1 local=7"));
  std::istringstream again(circuit_text(circuit));
  while (std::getline(again, line)) {
    ASSERT_TRUE(channel.write_line(line));
  }
  ASSERT_TRUE(channel.write_line("END"));
  ASSERT_TRUE(channel.read_line(line));
  EXPECT_EQ(line.rfind("QUEUED ", 0), 0u) << line;
  server.stop();
}

TEST(JobServer, OversizedBodyIsRejectedAndDrained) {
  serve::ServeOptions options = server_options("serve_bigbody", 1);
  options.max_body_bytes = 256;
  serve::JobServer server(options);
  server.start();

  serve::LineChannel channel(serve::connect_endpoint(server.endpoint()));
  serve::JobSpec spec;
  spec.local = 3;
  ASSERT_TRUE(channel.write_line("SUBMIT " + spec.to_tokens()));
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(channel.write_line("h 0"));  // well past the 256-byte cap
  }
  ASSERT_TRUE(channel.write_line("END"));

  std::string line;
  ASSERT_TRUE(channel.read_line(line));
  EXPECT_EQ(line.rfind("REJECTED reason=body", 0), 0u) << line;
  ASSERT_TRUE(channel.write_line("PING"));
  ASSERT_TRUE(channel.read_line(line));
  EXPECT_EQ(line, "PONG");
  EXPECT_EQ(server.stats().rejected, 1u);
  server.stop();
}

TEST(JobServer, ControlVerbsAndShutdownRequest) {
  serve::JobServer server(server_options("serve_verbs", 1));
  server.start();
  serve::ServeClient client(server.endpoint());
  EXPECT_TRUE(client.ping());
  const std::string stats = client.stats();
  EXPECT_EQ(stats.rfind("STATS ", 0), 0u);
  EXPECT_NE(stats.find("workers=1"), std::string::npos);
  EXPECT_FALSE(server.shutdown_requested());
  EXPECT_EQ(client.shutdown_server(), "OK shutting down");
  EXPECT_TRUE(server.shutdown_requested());
  server.stop();
}

TEST(JobServer, GracefulStopCheckpointsInFlightJob) {
  serve::ServeOptions options = server_options("serve_drain", 1);
  serve::JobServer server(options);
  server.start();

  const Circuit circuit = small_supremacy(3, 4, 16, 9);
  serve::JobSpec spec;
  spec.local = 10;
  spec.priority = serve::JobSpec::Priority::kBatch;
  spec.stall_ms = 600;

  std::atomic<int> stage{0};
  serve::SubmitOutcome outcome;
  std::thread submit_thread([&] {
    serve::ServeClient client(server.endpoint());
    outcome = client.submit(spec, circuit_text(circuit),
                            [&stage](const std::string& status) {
                              const std::size_t at = status.find("stage=");
                              if (at != std::string::npos &&
                                  status.find("state=running") !=
                                      std::string::npos) {
                                stage.store(std::atoi(status.c_str() + at + 6));
                              }
                            });
  });
  // Wait until a stage has completed: a stop() that lands before stage 0
  // starts rightly commits cursor 0, which is not the drain under test.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (stage.load() < 1 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_GE(stage.load(), 1) << "job never reported a completed stage";

  server.stop();  // preempts the run at its next stage boundary
  submit_thread.join();
  EXPECT_FALSE(outcome.done);
  EXPECT_NE(outcome.error.find("shutdown"), std::string::npos);

  // The drain committed a verified, resumable generation.
  const auto snapshot =
      ckpt::CheckpointReader(options.scratch_dir + "/job-1").load_latest();
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_GT(snapshot->manifest.cursor, 0u);
  EXPECT_NE(snapshot->manifest.schedule_crc, 0u);
}

}  // namespace
}  // namespace quasar
