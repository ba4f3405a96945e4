// Protocol conformance for mscd (DESIGN.md §13): every request kind
// round-trips over a real Unix-domain socket; compile/run payloads are
// byte-identical to what the standalone mscc binary emits for the same
// inputs; and hostile frames — malformed JSON, unknown fields, wrong
// types, oversized frames, nesting bombs, mid-request disconnects —
// produce typed error responses, never a crash or a hang.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "msc/core/convert.hpp"
#include "msc/driver/pipeline.hpp"
#include "msc/service/client.hpp"
#include "msc/service/daemon.hpp"
#include "msc/support/json.hpp"
#include "msc/support/str.hpp"

using namespace msc;

namespace {

std::string tmp_path(const std::string& name) {
  return cat(MSCC_TMPDIR, "/", name);
}

/// Short socket paths: sun_path caps at ~107 bytes and the build dir can
/// be deep, so sockets go to /tmp keyed by pid.
std::string socket_path(const std::string& tag) {
  return cat("/tmp/msc_svc_", tag, "_", ::getpid(), ".sock");
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string run_mscc(const std::string& args) {
  const std::string cmd = cat(MSCC_BINARY, " ", args, " 2>/dev/null");
  std::array<char, 4096> buf{};
  std::string out;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (!pipe) return out;
  std::size_t n;
  while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0)
    out.append(buf.data(), n);
  pclose(pipe);
  return out;
}

std::string quoted(const std::string& s) {
  return cat("\"", json_escape(s), "\"");
}

/// Daemon + connected client for one test.
struct Server {
  service::Daemon daemon;
  service::Client client;

  explicit Server(const std::string& tag,
                  service::ServiceOptions service = {})
      : daemon([&] {
          service::DaemonOptions o;
          o.socket_path = socket_path(tag);
          o.workers = 4;
          o.service = service;
          return o;
        }()) {
    daemon.start();
    client.connect(daemon.socket_path());
  }
  ~Server() { daemon.request_stop(); daemon.wait(); }

  json::Value request(const std::string& frame) {
    return json::parse(client.request(frame, 60'000));
  }
};

void expect_error(const json::Value& doc, const std::string& kind) {
  ASSERT_TRUE(doc.find("ok") != nullptr);
  EXPECT_FALSE(doc.at("ok").b);
  ASSERT_TRUE(doc.find("error") != nullptr);
  EXPECT_EQ(doc.at("error").at("kind").as_string(), kind);
  EXPECT_FALSE(doc.at("error").at("message").as_string().empty());
}

const char* kSource =
    "poly int x;\n"
    "poly int out;\n"
    "int main() {\n"
    "  out = x * 2 + procid();\n"
    "  return out;\n"
    "}\n";

}  // namespace

TEST(ServiceProtocol, CompileRoundTrip) {
  Server s("compile");
  json::Value doc = s.request(
      cat("{\"op\": \"compile\", \"id\": 7, \"source\": ", quoted(kSource),
          "}"));
  EXPECT_TRUE(doc.at("ok").b);
  EXPECT_EQ(doc.at("op").as_string(), "compile");
  EXPECT_EQ(doc.at("id").as_int(), 7);
  EXPECT_EQ(doc.at("cache").as_string(), "miss");
  EXPECT_GT(doc.at("meta_states").as_int(), 0);
  EXPECT_NE(doc.at("automaton").as_string().find("meta-state automaton"),
            std::string::npos);
  // The convert-stats payload is itself a JSON document.
  json::Value stats = json::parse(doc.at("stats").as_string());
  EXPECT_GT(stats.at("meta_states").as_int(), 0);

  // The identical compile is a cache hit with the same automaton.
  json::Value again = s.request(
      cat("{\"op\": \"compile\", \"id\": \"two\", \"source\": ",
          quoted(kSource), "}"));
  EXPECT_EQ(again.at("id").as_string(), "two");
  EXPECT_EQ(again.at("cache").as_string(), "hit");
  EXPECT_EQ(again.at("automaton").as_string(),
            doc.at("automaton").as_string());
}

TEST(ServiceProtocol, CompileMatchesStandaloneMsccOnCorpus) {
  Server s("bytecmp");
  const std::vector<std::string> programs = {
      "kernel_reduce", "kernel_scan", "kernel_oddeven", "barrier_phases",
      "loop_bounded"};
  for (const std::string& name : programs) {
    const std::string path = cat(MSC_CORPUS_DIR, "/", name, ".mimdc");
    const std::string source = read_file(path);
    ASSERT_FALSE(source.empty()) << path;
    json::Value doc = s.request(
        cat("{\"op\": \"compile\", \"source\": ", quoted(source), "}"));
    ASSERT_TRUE(doc.at("ok").b) << name;
    EXPECT_EQ(doc.at("automaton").as_string(),
              run_mscc(cat("--emit meta ", path)))
        << name;

    // The convert-stats document embeds wall-clock phase timings, so the
    // comparison is field-wise over the deterministic members.
    const std::string trace = tmp_path(cat("svc_trace_", name, ".json"));
    run_mscc(cat("--emit meta --trace-convert ", trace, " ", path));
    json::Value daemon_stats = json::parse(doc.at("stats").as_string());
    json::Value local_stats = json::parse(read_file(trace));
    for (const char* field : {"meta_states", "arcs", "reach_calls",
                              "splits_performed", "restarts"})
      EXPECT_EQ(daemon_stats.at(field).as_int(), local_stats.at(field).as_int())
          << name << " " << field;
  }
}

TEST(ServiceProtocol, RunProfileMatchesStandaloneMscc) {
  Server s("runcmp");
  const std::string path = cat(MSC_CORPUS_DIR, "/kernel_reduce.mimdc");
  const std::string source = read_file(path);
  json::Value doc = s.request(
      cat("{\"op\": \"run\", \"source\": ", quoted(source),
          ", \"nprocs\": 8, \"seed\": 3, \"profile\": true}"));
  ASSERT_TRUE(doc.at("ok").b);
  EXPECT_EQ(doc.at("engine").as_string(), "codegen");

  const std::string prof = tmp_path("svc_run_profile.json");
  run_mscc(cat("--run --nprocs 8 --seed 3 --profile-simd ", prof, " ", path));
  EXPECT_EQ(doc.at("simd").as_string(), read_file(prof));

  // Determinism: the same request twice gives the same response payload.
  json::Value doc2 = s.request(
      cat("{\"op\": \"run\", \"source\": ", quoted(source),
          ", \"nprocs\": 8, \"seed\": 3, \"profile\": true}"));
  EXPECT_EQ(doc2.at("simd").as_string(), doc.at("simd").as_string());
  EXPECT_EQ(doc2.at("observed").as_string(), doc.at("observed").as_string());
  EXPECT_EQ(doc2.at("cache").as_string(), "hit");
}

TEST(ServiceProtocol, RunHonoursSimdIsaField) {
  // "simd_isa": "scalar" must reach RunConfig: the embedded simd payload
  // (the mscc --profile-simd schema) reports the resolved ISA.
  Server s("runisa");
  const std::string path = cat(MSC_CORPUS_DIR, "/kernel_reduce.mimdc");
  const std::string source = read_file(path);
  json::Value doc = s.request(
      cat("{\"op\": \"run\", \"source\": ", quoted(source),
          ", \"nprocs\": 8, \"seed\": 3, \"simd_isa\": \"scalar\", "
          "\"profile\": true}"));
  ASSERT_TRUE(doc.at("ok").b);
  json::Value simd = json::parse(doc.at("simd").as_string());
  EXPECT_EQ(simd.at("isa").as_string(), "scalar");
  EXPECT_EQ(simd.at("isa_lane_width").as_int(), 1);

  // An unknown ISA is a protocol error, not a crash.
  json::Value bad = s.request(
      cat("{\"op\": \"run\", \"source\": ", quoted(source),
          ", \"simd_isa\": \"mmx\"}"));
  ASSERT_FALSE(bad.at("ok").b);
}

TEST(ServiceProtocol, CoscheduleRoundTrip) {
  Server s("cosched");
  json::Value doc = s.request(
      "{\"op\": \"coschedule\", \"programs\": [\"reduce@8\", \"scan@8\"], "
      "\"policy\": \"rr\", \"quantum\": 2}");
  ASSERT_TRUE(doc.at("ok").b);
  EXPECT_EQ(doc.at("policy").as_string(), "rr");
  EXPECT_EQ(doc.at("machine_pes").as_int(), 16);
  for (const json::Value& v : doc.at("verdicts").elems)
    EXPECT_EQ(v.as_string(), "ok");
  json::Value cosched = json::parse(doc.at("cosched").as_string());
  EXPECT_EQ(cosched.at("programs").elems.size(), 2u);
}

TEST(ServiceProtocol, StatsAndMetrics) {
  Server s("stats");
  json::Value doc = s.request("{\"op\": \"stats\", \"metrics\": true}");
  ASSERT_TRUE(doc.at("ok").b);
  const json::Value& svc = doc.at("service");
  EXPECT_GE(svc.at("cache").at("misses").as_int(), 0);
  EXPECT_GE(svc.at("quota").at("block_budget").as_int(), 0);
  // The metrics member is the registry's own JSON document.
  json::Value metrics = json::parse(doc.at("metrics").as_string());
  EXPECT_TRUE(metrics.is_object());
}

TEST(ServiceProtocol, ShutdownStopsTheDaemon) {
  service::DaemonOptions o;
  o.socket_path = socket_path("shutdown");
  o.workers = 2;
  service::Daemon daemon(o);
  daemon.start();
  service::Client client;
  client.connect(daemon.socket_path());
  json::Value doc = json::parse(client.request("{\"op\": \"shutdown\"}"));
  EXPECT_TRUE(doc.at("ok").b);
  daemon.wait();  // returns only when every thread is joined
  // The socket file is gone; connecting again fails.
  service::Client again;
  EXPECT_THROW(again.connect(daemon.socket_path(), 100), std::runtime_error);
}

TEST(ServiceProtocol, MalformedFramesGetTypedErrors) {
  Server s("hostile");
  expect_error(s.request("this is not json"), "parse-error");
  expect_error(s.request("{\"op\": \"compile\", }"), "parse-error");
  expect_error(s.request("[1, 2, 3]"), "protocol-error");
  expect_error(s.request("{\"source\": \"int main() { return 0; }\"}"),
               "protocol-error");  // missing op
  expect_error(s.request("{\"op\": \"transmogrify\"}"), "protocol-error");
  expect_error(s.request("{\"op\": \"compile\"}"), "protocol-error");
  expect_error(
      s.request("{\"op\": \"compile\", \"source\": \"x\", \"wat\": 1}"),
      "protocol-error");  // unknown field
  expect_error(
      s.request("{\"op\": \"stats\", \"nprocs\": 4}"),
      "protocol-error");  // field from another op
  expect_error(
      s.request("{\"op\": \"run\", \"source\": \"x\", \"nprocs\": \"8\"}"),
      "protocol-error");  // wrong type
  expect_error(
      s.request("{\"op\": \"run\", \"source\": \"x\", \"nprocs\": 0}"),
      "protocol-error");  // out of range
  expect_error(
      s.request(
          "{\"op\": \"run\", \"source\": \"x\", \"nprocs\": 4, \"active\": 9}"),
      "protocol-error");  // active > nprocs
  expect_error(
      s.request("{\"op\": \"compile\", \"source\": \"x\", \"tenant\": \"\"}"),
      "protocol-error");
  expect_error(s.request("{\"op\": \"coschedule\", \"programs\": []}"),
               "protocol-error");
  // The retired "fast" engine name is an unknown engine, not an alias.
  expect_error(
      s.request("{\"op\": \"run\", \"source\": \"x\", \"engine\": \"fast\"}"),
      "protocol-error");

  // Compile errors in valid requests are their own kind.
  expect_error(
      s.request("{\"op\": \"compile\", \"source\": \"int main( {\"}"),
      "compile-error");
  // Tiny explosion guard trips the typed explosion error.
  const std::string source = read_file(cat(MSC_CORPUS_DIR,
                                           "/barrier_phases.mimdc"));
  const json::Value exploded =
      s.request(cat("{\"op\": \"compile\", \"source\": ", quoted(source),
                    ", \"max_meta_states\": 1}"));
  expect_error(exploded, "explosion");
  // The message cites the paper (§1.2) and arrives byte for byte.
  EXPECT_EQ(exploded.at("error").at("message").as_string(),
            core::ExplosionError(1).what());

  // PaperPrune rejects spawn (§3.2.5); the daemon relays the converter's
  // own CompileError text unchanged.
  const std::string spawner = read_file(cat(MSC_CORPUS_DIR,
                                            "/spawn_reuse.mimdc"));
  const json::Value pruned =
      s.request(cat("{\"op\": \"compile\", \"source\": ", quoted(spawner),
                    ", \"prune\": true}"));
  expect_error(pruned, "compile-error");
  driver::PipelineOptions popts;
  popts.convert.barrier_mode = core::BarrierMode::PaperPrune;
  std::string local;
  try {
    driver::convert(spawner, ir::CostModel{}, popts);
  } catch (const CompileError& e) {
    local = e.what();
  }
  EXPECT_NE(local.find("\xc2\xa7" "3.2.5"), std::string::npos) << local;
  EXPECT_EQ(pruned.at("error").at("message").as_string(), local);

  // After all that abuse the daemon still serves.
  json::Value doc = s.request("{\"op\": \"stats\"}");
  EXPECT_TRUE(doc.at("ok").b);
}

TEST(ServiceProtocol, NestingBombIsAParseError) {
  Server s("bomb");
  std::string bomb = "{\"op\": ";
  for (int i = 0; i < 200; ++i) bomb += "[";
  for (int i = 0; i < 200; ++i) bomb += "]";
  bomb += "}";
  expect_error(s.request(bomb), "parse-error");
}

TEST(ServiceProtocol, OversizedFrameErrorsAndDropsTheConnection) {
  service::ServiceOptions opts;
  opts.limits.max_frame_bytes = 4096;
  Server s("oversize", opts);

  // A full oversized frame (with newline) gets the typed error.
  std::string huge = cat("{\"op\": \"compile\", \"source\": \"",
                         std::string(8192, 'x'), "\"}");
  std::string response;
  s.client.send_line(huge);
  ASSERT_TRUE(s.client.recv_line(response, 60'000));
  expect_error(json::parse(response), "frame-too-large");

  // A fresh connection still works: the daemon dropped only that client.
  service::Client fresh;
  fresh.connect(s.daemon.socket_path());
  json::Value doc = json::parse(fresh.request("{\"op\": \"stats\"}"));
  EXPECT_TRUE(doc.at("ok").b);
}

TEST(ServiceProtocol, MidRequestDisconnectLeavesDaemonServing) {
  Server s("disconnect");
  // Half a frame, no newline, then hang up.
  service::Client half;
  half.connect(s.daemon.socket_path());
  half.send_line("{\"op\": \"compile\", \"source\""); // send_line adds \n; so
  // also model a cut before the newline:
  service::Client cut;
  cut.connect(s.daemon.socket_path());
  cut.shutdown_write();
  half.close();
  cut.close();

  json::Value doc = s.request("{\"op\": \"stats\"}");
  EXPECT_TRUE(doc.at("ok").b);
}

TEST(ServiceProtocol, PipelinedRequestsEachGetOneResponse) {
  Server s("pipelined");
  for (int i = 0; i < 8; ++i)
    s.client.send_line(cat("{\"op\": \"stats\", \"id\": ", i, "}"));
  std::vector<bool> seen(8, false);
  for (int i = 0; i < 8; ++i) {
    std::string line;
    ASSERT_TRUE(s.client.recv_line(line, 60'000));
    json::Value doc = json::parse(line);
    EXPECT_TRUE(doc.at("ok").b);
    seen[static_cast<std::size_t>(doc.at("id").as_int())] = true;
  }
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(seen[static_cast<std::size_t>(i)]);
}

// ------------------------------------------------------------ client EINTR
// A client sharing its process with an interval timer (profilers, GC-ish
// runtimes, alarm-driven tools) sees poll/recv/connect interrupted
// constantly. None of that is a timeout and none of it may tear a frame.

namespace {

void noop_handler(int) {}

/// 2ms SIGALRM storm with SA_RESTART deliberately off, so every blocking
/// syscall in scope actually returns EINTR. Restores state on scope exit.
struct SignalStorm {
  struct sigaction old_action {};
  itimerval old_timer {};

  SignalStorm() {
    struct sigaction sa {};
    sa.sa_handler = noop_handler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;  // no SA_RESTART: syscalls must see EINTR
    sigaction(SIGALRM, &sa, &old_action);
    itimerval timer{};
    timer.it_interval.tv_usec = 2000;
    timer.it_value.tv_usec = 2000;
    setitimer(ITIMER_REAL, &timer, &old_timer);
  }
  ~SignalStorm() {
    setitimer(ITIMER_REAL, &old_timer, nullptr);
    sigaction(SIGALRM, &old_action, nullptr);
  }
};

}  // namespace

TEST(ClientEintr, RecvLineSurvivesASignalStorm) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  service::Client client;
  client.adopt(fds[0]);

  SignalStorm storm;
  std::thread writer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    const char line[] = "{\"ok\": true}\n";
    ASSERT_EQ(::send(fds[1], line, sizeof(line) - 1, 0),
              static_cast<ssize_t>(sizeof(line) - 1));
  });
  // ~40 interruptions before the line arrives: each one used to be
  // mis-read as a timeout. The deadline-based loop must ride them out.
  std::string line;
  EXPECT_TRUE(client.recv_line(line, 10'000));
  EXPECT_EQ(line, "{\"ok\": true}");
  writer.join();
  ::close(fds[1]);
}

TEST(ClientEintr, RecvLineDeadlineHoldsUnderInterruption) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  service::Client client;
  client.adopt(fds[0]);

  SignalStorm storm;
  // No data ever arrives: the genuine timeout must fire — but not early.
  // The buggy EINTR-as-timeout path returned within the first 2ms tick.
  const auto t0 = std::chrono::steady_clock::now();
  std::string line;
  EXPECT_FALSE(client.recv_line(line, 150));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_GE(elapsed.count(), 140);
  EXPECT_LT(elapsed.count(), 5'000);
  ::close(fds[1]);
}

TEST(ClientEintr, ConnectKeepsRetryingThroughSignals) {
  // An unreachable socket under the storm: connect() must spend its whole
  // retry budget (EINTR burns none of it) and then throw — not give up on
  // the first interrupted attempt.
  SignalStorm storm;
  const auto t0 = std::chrono::steady_clock::now();
  service::Client client;
  EXPECT_THROW(client.connect(socket_path("nonexistent"), 200),
               std::runtime_error);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_GE(elapsed.count(), 200);
}

TEST(ServiceObservability, MetricsOpRoundTrip) {
  Server s("metricsop");
  ASSERT_TRUE(s.request(cat("{\"op\": \"compile\", \"tenant\": \"t0\", "
                            "\"source\": ", quoted(kSource), "}"))
                  .at("ok")
                  .b);
  // A request is committed to the metrics *after* its response is written
  // (the trace must cover the write phase), so a scraper racing its own
  // previous request can miss it by one snapshot: poll briefly.
  json::Value doc, m;
  for (int attempt = 0; attempt < 500; ++attempt) {
    doc = s.request("{\"op\": \"metrics\", \"tenant\": \"t0\"}");
    ASSERT_TRUE(doc.at("ok").b);
    // The payload is the labeled schema-2 document, JSON-escaped.
    m = json::parse(doc.at("metrics").as_string());
    if (m.at("requests").at("ok").as_int() >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(m.at("schema").as_int(), 2);
  EXPECT_GT(m.at("uptime_micros").as_int(), 0);
  EXPECT_GE(m.at("requests").at("ok").as_int(), 1);
  EXPECT_EQ(m.at("folded_samples").as_int(), 0);
  const json::Value& requests = m.at("families").at("requests");
  EXPECT_EQ(requests.at("kind").as_string(), "counter");
  bool found = false;
  for (const json::Value& series : requests.at("series").elems)
    if (series.at("tenant").as_string() == "t0" &&
        series.at("op").as_string() == "compile") {
      EXPECT_EQ(series.at("value").as_int(), 1);
      found = true;
    }
  EXPECT_TRUE(found) << doc.at("metrics").as_string();
  // Latency histogram counts cover every request seen so far.
  const json::Value& lat = m.at("families").at("latency_us");
  EXPECT_EQ(lat.at("kind").as_string(), "histogram");
  EXPECT_GT(lat.at("bounds").elems.size(), 4u);
}

TEST(ServiceObservability, TraceFieldAttachesRequestTrace) {
  Server s("traced");
  json::Value doc = s.request(
      cat("{\"op\": \"compile\", \"tenant\": \"t1\", \"trace\": true, "
          "\"source\": ", quoted(kSource), "}"));
  ASSERT_TRUE(doc.at("ok").b);
  json::Value rt = json::parse(doc.at("trace").as_string());
  EXPECT_GE(rt.at("request_id").as_int(), 1);
  EXPECT_GE(rt.at("conn").as_int(), 1);
  EXPECT_EQ(rt.at("tenant").as_string(), "t1");
  EXPECT_EQ(rt.at("op").as_string(), "compile");
  EXPECT_EQ(rt.at("outcome").as_string(), "ok");
  EXPECT_EQ(rt.at("cache").as_string(), "miss");
  EXPECT_GT(rt.at("bytes_in").as_int(), 0);
  const json::Value& phases = rt.at("phase_micros");
  for (const char* p : {"accept", "parse", "admission", "cache", "convert",
                        "run", "serialize", "write"})
    EXPECT_GE(phases.at(p).as_int(), 0) << p;
  EXPECT_GT(phases.at("convert").as_int(), 0) << "a miss must time convert";

  // Untraced requests stay untraced — the member is strictly opt-in.
  json::Value plain = s.request("{\"op\": \"stats\"}");
  EXPECT_EQ(plain.find("trace"), nullptr);
  // Post-parse errors carry the trace too. (Parse failures cannot: the
  // trace flag lives in the frame that failed to parse.)
  json::Value err = s.request(
      "{\"op\": \"compile\", \"trace\": true, \"source\": \"int main( {\"}");
  EXPECT_FALSE(err.at("ok").b);
  json::Value errt = json::parse(err.at("trace").as_string());
  EXPECT_EQ(errt.at("outcome").as_string(), "error");
  EXPECT_EQ(errt.at("error_kind").as_string(), "compile-error");
}

TEST(ServiceObservability, SlowlogCapturesSlowRequests) {
  service::ServiceOptions opts;
  opts.observability.slow_micros = 1;  // everything is "slow"
  opts.observability.slowlog_capacity = 4;
  Server s("slowlog", opts);
  for (int i = 0; i < 6; ++i)
    ASSERT_TRUE(
        s.request(cat("{\"op\": \"stats\", \"id\": ", i, "}")).at("ok").b);

  json::Value doc = s.request("{\"op\": \"slowlog\"}");
  ASSERT_TRUE(doc.at("ok").b);
  EXPECT_EQ(doc.at("threshold_micros").as_int(), 1);
  const json::Value& entries = doc.at("slowlog");
  // Capacity bounds the ring; entries arrive slowest-first and each is a
  // full RequestTrace. (The slowlog op itself is not yet committed when
  // its own snapshot is taken, so at most the 6 stats land.)
  EXPECT_EQ(doc.at("count").as_int(),
            static_cast<std::int64_t>(entries.elems.size()));
  ASSERT_LE(entries.elems.size(), 4u);
  ASSERT_GE(entries.elems.size(), 1u);
  std::int64_t prev = INT64_MAX;
  for (const json::Value& e : entries.elems) {
    EXPECT_LE(e.at("total_us").as_int(), prev);
    prev = e.at("total_us").as_int();
    EXPECT_GE(e.at("request_id").as_int(), 1);
    EXPECT_TRUE(e.find("phase_micros") != nullptr);
  }
}

TEST(ServiceObservability, StatsCarriesUptimeAndDaemonInfo) {
  Server s("statsdaemon");
  json::Value doc = s.request("{\"op\": \"stats\"}");
  ASSERT_TRUE(doc.at("ok").b);
  EXPECT_GT(doc.at("uptime_micros").as_int(), 0);
  const json::Value& daemon = doc.at("service").at("daemon");
  EXPECT_EQ(daemon.at("workers").as_int(), 4);
  EXPECT_GE(daemon.at("queue_depth").as_int(), 0);
  EXPECT_GE(daemon.at("connections_accepted").as_int(), 1);
  EXPECT_GE(daemon.at("connections_active").as_int(), 1);

  // Per-tenant admission snapshots appear once a tenant has been seen.
  ASSERT_TRUE(s.request(cat("{\"op\": \"compile\", \"tenant\": \"seen\", "
                            "\"source\": ", quoted(kSource), "}"))
                  .at("ok")
                  .b);
  json::Value after = s.request("{\"op\": \"stats\"}");
  bool found = false;
  for (const json::Value& t : after.at("service").at("tenants").elems)
    if (t.at("tenant").as_string() == "seen") {
      EXPECT_GE(t.at("admitted").as_int(), 1);
      EXPECT_EQ(t.at("rejected").as_int(), 0);
      found = true;
    }
  EXPECT_TRUE(found);
}

TEST(ServiceObservability, AccessLogGoldenLines) {
  const std::string log_path = tmp_path(cat("access_", ::getpid(), ".jsonl"));
  std::remove(log_path.c_str());
  {
    service::ServiceOptions opts;
    opts.observability.access_log_path = log_path;
    Server s("accesslog", opts);
    ASSERT_TRUE(s.request(cat("{\"op\": \"compile\", \"tenant\": \"alice\", "
                              "\"source\": ", quoted(kSource), "}"))
                    .at("ok")
                    .b);
    ASSERT_TRUE(s.request("{\"op\": \"stats\"}").at("ok").b);
    ASSERT_FALSE(s.request("{\"op\": \"run\"}").at("ok").b);
  }  // daemon drains + joins: every committed line is on disk

  std::ifstream in(log_path);
  ASSERT_TRUE(in.good()) << log_path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);

  // Golden field order: one flat JSON line per request, keys in lifecycle
  // order — consumers parse it positionally with cut/awk as well as JSON.
  const char* kOrder[] = {"\"request_id\": ", "\"conn\": ",    "\"tenant\": ",
                          "\"op\": ",         "\"outcome\": ", "\"error_kind\": ",
                          "\"cache\": ",      "\"bytes_in\": ", "\"bytes_out\": ",
                          "\"start_us\": ",   "\"total_us\": ",
                          "\"phase_micros\": {\"accept\": "};
  std::int64_t prev_id = 0;
  for (const std::string& l : lines) {
    std::size_t pos = 0;
    for (const char* key : kOrder) {
      const std::size_t at = l.find(key, pos);
      ASSERT_NE(at, std::string::npos) << key << " out of order in: " << l;
      pos = at;
    }
    json::Value doc = json::parse(l);
    // One client connection drove every request: ids are monotonic.
    EXPECT_GT(doc.at("request_id").as_int(), prev_id);
    prev_id = doc.at("request_id").as_int();
    EXPECT_EQ(doc.at("conn").as_int(), 1);
  }
  json::Value first = json::parse(lines[0]);
  EXPECT_EQ(first.at("tenant").as_string(), "alice");
  EXPECT_EQ(first.at("outcome").as_string(), "ok");
  json::Value last = json::parse(lines[2]);
  EXPECT_EQ(last.at("outcome").as_string(), "error");
  EXPECT_EQ(last.at("error_kind").as_string(), "protocol-error");
  std::remove(log_path.c_str());
}

TEST(ServiceObservability, MsctopOnceRendersTheTable) {
  service::ServiceOptions opts;
  opts.observability.slow_micros = 1;
  Server s("msctop", opts);
  ASSERT_TRUE(s.request(cat("{\"op\": \"compile\", \"tenant\": \"alice\", "
                            "\"source\": ", quoted(kSource), "}"))
                  .at("ok")
                  .b);

  const std::string cmd = cat(MSCTOP_BINARY, " --socket ",
                              s.daemon.socket_path(), " --once 2>&1");
  std::array<char, 4096> buf{};
  std::string out;
  FILE* pipe = popen(cmd.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::size_t n;
  while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0)
    out.append(buf.data(), n);
  const int rc = pclose(pipe);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("per-tenant/per-op"), std::string::npos) << out;
  EXPECT_NE(out.find("alice"), std::string::npos) << out;
  EXPECT_NE(out.find("compile"), std::string::npos) << out;
  EXPECT_NE(out.find("slowest requests"), std::string::npos) << out;
  EXPECT_EQ(out.find("\x1b["), std::string::npos)
      << "--once must not emit ANSI control sequences";
}

TEST(ServiceProtocol, ReqlogCorpusReplays) {
  // Every checked-in request log must replay to exactly one response per
  // frame, with no crash — fuzzer findings land here as regressions.
  Server s("reqlog");
  const std::vector<std::string> logs = {
      cat(MSC_CORPUS_DIR, "/service_smoke.reqlog"),
      cat(MSC_CORPUS_DIR, "/service_hostile.reqlog"),
  };
  for (const std::string& log : logs) {
    std::ifstream in(log);
    ASSERT_TRUE(in.good()) << log;
    std::string frame;
    int frames = 0;
    while (std::getline(in, frame)) {
      if (frame.empty()) continue;
      std::string response = s.client.request(frame, 60'000);
      json::Value doc;
      ASSERT_NO_THROW(doc = json::parse(response)) << frame;
      ASSERT_TRUE(doc.find("ok") != nullptr) << frame;
      ++frames;
    }
    EXPECT_GT(frames, 0) << log;
  }
}
