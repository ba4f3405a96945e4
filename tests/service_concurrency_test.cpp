// Concurrency battery for mscd (DESIGN.md §13), run under ASan+UBSan in
// CI (MSC_SANITIZE=ON): N workers × M clients hammering one daemon;
// the shared conversion cache is single-miss for identical concurrent
// compiles; per-tenant quotas hold under contention; and shutdown with
// requests in flight answers everything already read, then stops clean.
// The suites that race threads also run under TSan in CI.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "msc/core/convert.hpp"
#include "msc/service/client.hpp"
#include "msc/service/daemon.hpp"
#include "msc/service/service.hpp"
#include "msc/support/diag.hpp"
#include "msc/support/json.hpp"
#include "msc/support/str.hpp"

using namespace msc;

namespace {

std::string socket_path(const std::string& tag) {
  return cat("/tmp/msc_svcc_", tag, "_", ::getpid(), ".sock");
}

/// Reusable start barrier: maximizes the racers' overlap so the
/// single-miss discipline is actually exercised, not just possible.
class Barrier {
 public:
  explicit Barrier(int n) : waiting_for_(n) {}
  void arrive_and_wait() {
    std::unique_lock<std::mutex> lock(mu_);
    if (--waiting_for_ == 0) {
      cv_.notify_all();
    } else {
      cv_.wait(lock, [this] { return waiting_for_ <= 0; });
    }
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int waiting_for_;
};

const char* kSourceA =
    "poly int x;\n"
    "int main() { return x * 3 + procid(); }\n";
const char* kSourceB =
    "poly int x;\npoly int y;\n"
    "int main() { y = x + 1; return y * y; }\n";

std::string quoted(const std::string& s) {
  return cat("\"", json_escape(s), "\"");
}

/// One computing thread plus `waiters` requesters of the same key, held in
/// flight until every waiter is blocked on the slot; the computation then
/// throws whatever `fail` throws. Returns each thread's caught exception.
template <typename Fail>
std::vector<std::exception_ptr> fail_in_flight(service::ConversionCache& cache,
                                               const std::string& key,
                                               int waiters, Fail fail) {
  std::atomic<bool> release{false};
  std::vector<std::exception_ptr> caught(static_cast<std::size_t>(waiters) + 1);
  const auto request = [&](std::size_t slot) {
    try {
      cache.get_or_compute(
          key, [&]() -> std::shared_ptr<const service::CachedConversion> {
            while (!release.load()) std::this_thread::yield();
            fail();
            return nullptr;
          });
    } catch (...) {
      caught[slot] = std::current_exception();
    }
  };
  const std::int64_t misses = cache.stats().misses;
  const std::int64_t waits = cache.stats().inflight_waits;
  std::vector<std::thread> threads;
  threads.emplace_back(request, 0);
  while (cache.stats().misses == misses) std::this_thread::yield();
  for (int t = 1; t <= waiters; ++t)
    threads.emplace_back(request, static_cast<std::size_t>(t));
  while (cache.stats().inflight_waits < waits + waiters)
    std::this_thread::yield();
  release = true;
  for (std::thread& t : threads) t.join();
  return caught;
}

std::string compile_frame(const std::string& source,
                          const std::string& tenant = "anon") {
  return cat("{\"op\": \"compile\", \"tenant\": \"", tenant,
             "\", \"source\": ", quoted(source), "}");
}

}  // namespace

TEST(ServiceConcurrency, IdenticalConcurrentCompilesAreSingleMiss) {
  // In-process Service (no socket noise): 8 racers release together on a
  // barrier, all compiling the same program. Exactly one conversion may
  // run; everyone else must share it — the translate-cache race idiom,
  // one layer up.
  service::Service svc;
  constexpr int kThreads = 8;
  Barrier barrier(kThreads);
  std::vector<std::thread> threads;
  std::vector<std::string> responses(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      barrier.arrive_and_wait();
      responses[static_cast<std::size_t>(t)] =
          svc.handle_line(compile_frame(kSourceA));
    });
  for (std::thread& t : threads) t.join();

  const service::ConversionCache::Stats stats = svc.cache().stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, kThreads - 1);
  EXPECT_EQ(stats.entries, 1);

  // Every response carries the identical automaton; exactly one says
  // "miss".
  int misses = 0;
  std::string automaton;
  for (const std::string& r : responses) {
    json::Value doc = json::parse(r);
    ASSERT_TRUE(doc.at("ok").b) << r;
    if (doc.at("cache").as_string() == "miss") ++misses;
    if (automaton.empty()) automaton = doc.at("automaton").as_string();
    EXPECT_EQ(doc.at("automaton").as_string(), automaton);
  }
  EXPECT_EQ(misses, 1);
}

TEST(ServiceConcurrency, SingleMissHoldsOverTheSocketToo) {
  service::DaemonOptions o;
  o.socket_path = socket_path("singlemiss");
  o.workers = 8;
  service::Daemon daemon(o);
  daemon.start();

  constexpr int kClients = 8;
  Barrier barrier(kClients);
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int c = 0; c < kClients; ++c)
    threads.emplace_back([&] {
      service::Client client;
      client.connect(daemon.socket_path());
      barrier.arrive_and_wait();
      json::Value doc =
          json::parse(client.request(compile_frame(kSourceB), 60'000));
      if (doc.at("ok").b) ++ok;
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(ok.load(), kClients);

  service::Client client;
  client.connect(daemon.socket_path());
  json::Value stats = json::parse(client.request("{\"op\": \"stats\"}"));
  const json::Value& cache = stats.at("service").at("cache");
  EXPECT_EQ(cache.at("misses").as_int(), 1);
  EXPECT_EQ(cache.at("hits").as_int(), kClients - 1);

  daemon.request_stop();
  daemon.wait();
}

TEST(ServiceConcurrency, HammerMixedOpsAcrossClients) {
  service::DaemonOptions o;
  o.socket_path = socket_path("hammer");
  o.workers = 4;
  service::Daemon daemon(o);
  daemon.start();

  constexpr int kClients = 6;
  constexpr int kRequests = 20;
  std::atomic<int> responses{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c)
    threads.emplace_back([&, c] {
      service::Client client;
      client.connect(daemon.socket_path());
      for (int i = 0; i < kRequests; ++i) {
        std::string frame;
        switch ((c + i) % 4) {
          case 0: frame = compile_frame(kSourceA); break;
          case 1: frame = compile_frame(kSourceB); break;
          case 2:
            frame = cat("{\"op\": \"run\", \"source\": ", quoted(kSourceA),
                        ", \"nprocs\": 4, \"seed\": ", i % 3, "}");
            break;
          case 3: frame = "{\"op\": \"stats\"}"; break;
        }
        json::Value doc = json::parse(client.request(frame, 120'000));
        ++responses;
        if (!doc.at("ok").b) ++failures;
      }
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(responses.load(), kClients * kRequests);
  EXPECT_EQ(failures.load(), 0);

  daemon.request_stop();
  daemon.wait();
}

TEST(ServiceConcurrency, ExplosionQuotaHoldsUnderContention) {
  // Tenant "bomber" hammers an exploding compile from 4 threads while
  // tenant "good" works normally. Once the quota (3 strikes) is hit,
  // bomber's requests are rejected with the typed quota error; good's
  // requests all succeed throughout.
  service::ServiceOptions opts;
  opts.quota.explosion_quota = 3;
  service::Service svc(opts);

  // Branchy barrier loop that explodes under a 1-state ceiling.
  const std::string bomb = cat(
      "{\"op\": \"compile\", \"tenant\": \"bomber\", \"source\": ",
      quoted("poly int x;\nint main() { int i; i = 0; while (i < x) { if (x "
             "> 1) { i = i + 1; } else { i = i + 2; } wait; } return i; "
             "}\n"),
      ", \"max_meta_states\": 1}");

  constexpr int kThreads = 4;
  constexpr int kIters = 6;
  std::atomic<int> explosions{0}, quota_rejections{0}, good_failures{0};
  Barrier barrier(kThreads + 1);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      barrier.arrive_and_wait();
      for (int i = 0; i < kIters; ++i) {
        json::Value doc = json::parse(svc.handle_line(bomb));
        const std::string kind = doc.at("error").at("kind").as_string();
        if (kind == "explosion") ++explosions;
        else if (kind == "quota-exceeded") ++quota_rejections;
      }
    });
  threads.emplace_back([&] {
    barrier.arrive_and_wait();
    for (int i = 0; i < kIters; ++i) {
      json::Value doc =
          json::parse(svc.handle_line(compile_frame(kSourceA, "good")));
      if (!doc.at("ok").b) ++good_failures;
    }
  });
  for (std::thread& t : threads) t.join();

  // Every bomber request resolved to exactly one of the two kinds, at
  // least quota strikes exploded, and once the counter passed the quota
  // the rejections began — under contention a few extra explosions may
  // land before the counter is read, but rejections must dominate the
  // tail.
  EXPECT_EQ(explosions + quota_rejections, kThreads * kIters);
  EXPECT_GE(explosions.load(), 3);
  EXPECT_GT(quota_rejections.load(), 0);
  EXPECT_EQ(good_failures.load(), 0);

  // Serially, bomber is now always rejected — deterministically.
  json::Value doc = json::parse(svc.handle_line(bomb));
  EXPECT_EQ(doc.at("error").at("kind").as_string(), "quota-exceeded");
}

TEST(ServiceConcurrency, CacheWaitersEachThrowTheirOwnTypedError) {
  // A failed conversion reaches every in-flight waiter with the type the
  // dispatcher maps to an error kind, but as an exception object of the
  // waiter's own: a shared one is a data race between the threads that
  // read its message and the one that frees it.
  service::Service svc;
  constexpr int kWaiters = 4;
  const auto distinct = [](const std::vector<std::exception_ptr>& caught) {
    for (std::size_t i = 0; i < caught.size(); ++i)
      for (std::size_t j = i + 1; j < caught.size(); ++j)
        if (caught[i] == caught[j]) return false;
    return true;
  };

  const std::string compile_what = CompileError({3, 7}, "no such thing").what();
  auto caught = fail_in_flight(svc.cache(), "compile", kWaiters, [] {
    throw CompileError({3, 7}, "no such thing");
  });
  for (const std::exception_ptr& e : caught) {
    try {
      std::rethrow_exception(e);
    } catch (const CompileError& err) {
      EXPECT_EQ(std::string(err.what()), compile_what);
      EXPECT_EQ(err.loc().line, 3u);
      EXPECT_EQ(err.loc().col, 7u);
    } catch (...) {
      ADD_FAILURE() << "waiter lost the CompileError type";
    }
  }
  EXPECT_TRUE(distinct(caught));

  caught = fail_in_flight(svc.cache(), "explode", kWaiters,
                          [] { throw core::ExplosionError(42); });
  for (const std::exception_ptr& e : caught) {
    try {
      std::rethrow_exception(e);
    } catch (const core::ExplosionError& err) {
      EXPECT_EQ(err.limit(), 42u);
      EXPECT_EQ(std::string(err.what()), core::ExplosionError(42).what());
    } catch (...) {
      ADD_FAILURE() << "waiter lost the ExplosionError type";
    }
  }
  EXPECT_TRUE(distinct(caught));

  // Errors are published, not retained.
  EXPECT_EQ(svc.cache().stats().entries, 0);
  EXPECT_EQ(svc.cache().stats().misses, 2);
}

TEST(ServiceConcurrency, BlockBudgetRejectsOversizedRun) {
  service::ServiceOptions opts;
  opts.quota.block_budget = 10'000;
  service::Service svc(opts);

  // A single run within budget is admitted.
  json::Value ok = json::parse(svc.handle_line(
      cat("{\"op\": \"run\", \"source\": ", quoted(kSourceA),
          ", \"nprocs\": 4, \"max_blocks\": 9000}")));
  EXPECT_TRUE(ok.at("ok").b);

  // Over budget in one request: typed rejection, deterministic.
  json::Value doc = json::parse(svc.handle_line(
      cat("{\"op\": \"run\", \"source\": ", quoted(kSourceA),
          ", \"nprocs\": 4, \"max_blocks\": 20000}")));
  EXPECT_EQ(doc.at("error").at("kind").as_string(), "quota-exceeded");

  // The budget is in-flight, not cumulative: sequential within-budget
  // runs keep working (release() returns the charge).
  for (int i = 0; i < 4; ++i) {
    json::Value again = json::parse(svc.handle_line(
        cat("{\"op\": \"run\", \"source\": ", quoted(kSourceA),
            ", \"nprocs\": 4, \"max_blocks\": 9000}")));
    EXPECT_TRUE(again.at("ok").b) << i;
  }
}

TEST(ServiceConcurrency, PerTenantCountersSumToGlobal) {
  // 8 threads, one tenant each, hammering one in-process Service with a
  // mix of ok and error requests. The single-commit-point design must
  // make every labeled family sum exactly to the matching global — no
  // drops, no double counts, under full contention.
  service::Service svc;
  constexpr int kThreads = 8;
  constexpr int kIters = 25;
  Barrier barrier(kThreads);
  std::atomic<std::int64_t> sent_ok{0}, sent_error{0}, bytes_in{0};
  std::atomic<std::int64_t> compiles{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      const std::string tenant = cat("tenant", t);
      barrier.arrive_and_wait();
      for (int i = 0; i < kIters; ++i) {
        std::string frame;
        switch (i % 4) {
          case 0: frame = compile_frame(kSourceA, tenant); ++compiles; break;
          case 1: frame = compile_frame(kSourceB, tenant); ++compiles; break;
          case 2:
            frame = cat("{\"op\": \"stats\", \"tenant\": \"", tenant, "\"}");
            break;
          case 3:  // typed error: missing source
            frame = cat("{\"op\": \"run\", \"tenant\": \"", tenant, "\"}");
            break;
        }
        bytes_in += static_cast<std::int64_t>(frame.size());
        json::Value doc = json::parse(svc.handle_line(frame));
        if (doc.at("ok").b) ++sent_ok; else ++sent_error;
      }
    });
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(sent_ok + sent_error, kThreads * kIters);

  json::Value m = json::parse(svc.metrics_json());
  EXPECT_EQ(m.at("requests").at("ok").as_int(), sent_ok.load());
  EXPECT_EQ(m.at("requests").at("error").as_int(), sent_error.load());
  EXPECT_EQ(m.at("folded_samples").as_int(), 0);

  const auto family_sum = [&](const char* family,
                              const char* value_key) -> std::int64_t {
    const json::Value* fam = m.at("families").find(family);
    if (!fam) return 0;
    std::int64_t sum = 0;
    for (const json::Value& s : fam->at("series").elems)
      sum += s.at(value_key).as_int();
    return sum;
  };
  // Exact equality, not >=: every request commits exactly once.
  EXPECT_EQ(family_sum("requests", "value"), kThreads * kIters);
  EXPECT_EQ(family_sum("errors.protocol-error", "value"), sent_error.load());
  EXPECT_EQ(family_sum("latency_us", "count"), kThreads * kIters);
  EXPECT_EQ(family_sum("bytes_in", "value"), bytes_in.load());
  // Cache looks: every compile resolves to exactly one of the three
  // states; stats/error requests never touch the cache.
  const std::int64_t looks = family_sum("cache.hit", "value") +
                             family_sum("cache.miss", "value") +
                             family_sum("cache.inflight-wait", "value");
  EXPECT_EQ(looks, compiles.load());

  // Each tenant's own request count is exactly its share.
  const json::Value& requests = m.at("families").at("requests");
  for (int t = 0; t < kThreads; ++t) {
    std::int64_t mine = 0;
    for (const json::Value& s : requests.at("series").elems)
      if (s.at("tenant").as_string() == cat("tenant", t))
        mine += s.at("value").as_int();
    EXPECT_EQ(mine, kIters) << "tenant" << t;
  }
}

TEST(ServiceConcurrency, CleanShutdownWithInflightRequests) {
  service::DaemonOptions o;
  o.socket_path = socket_path("shutdown");
  o.workers = 2;
  service::Daemon daemon(o);
  daemon.start();

  // Several clients pipeline a burst of requests; one more client then
  // requests shutdown. Every frame that reached the daemon must get
  // exactly one response line — ok or a typed shutting-down error — and
  // wait() must join everything without hanging.
  constexpr int kClients = 4;
  constexpr int kBurst = 8;
  std::atomic<int> answered{0};
  std::vector<std::thread> threads;
  Barrier barrier(kClients + 1);
  for (int c = 0; c < kClients; ++c)
    threads.emplace_back([&] {
      service::Client client;
      client.connect(daemon.socket_path());
      barrier.arrive_and_wait();
      // Once shutdown is accepted the daemon may close this connection
      // mid-burst; a refused send (EPIPE) ends the burst like an early
      // EOF does below. An exception escaping this thread would abort
      // the whole test binary.
      try {
        for (int i = 0; i < kBurst; ++i)
          client.send_line(compile_frame(kSourceA));
      } catch (const std::runtime_error&) {
      }
      std::string line;
      // EOF before kBurst lines is fine — the daemon answers what it
      // read before the sockets closed; what matters is no hang and no
      // torn line.
      while (client.recv_line(line, 10'000)) {
        json::Value doc = json::parse(line);
        ASSERT_TRUE(doc.find("ok") != nullptr);
        ++answered;
      }
    });

  barrier.arrive_and_wait();
  service::Client stopper;
  stopper.connect(daemon.socket_path());
  json::Value doc = json::parse(stopper.request("{\"op\": \"shutdown\"}"));
  EXPECT_TRUE(doc.at("ok").b);
  daemon.wait();
  for (std::thread& t : threads) t.join();
  EXPECT_GT(answered.load(), 0);

  // Fully stopped: the socket is unlinked.
  service::Client again;
  EXPECT_THROW(again.connect(daemon.socket_path(), 100), std::runtime_error);
}
