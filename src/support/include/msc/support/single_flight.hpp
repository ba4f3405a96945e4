#ifndef MSC_SUPPORT_SINGLE_FLIGHT_HPP
#define MSC_SUPPORT_SINGLE_FLIGHT_HPP

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

namespace msc {

/// Makes a fresh exception object on every call. A failed single-flight
/// computation leaves its waiters one of these instead of the exception it
/// threw: rethrowing one exception object on several threads shares it,
/// and whichever thread lets go of it last frees its message while another
/// may still be reading it.
using ErrorFactory = std::function<std::exception_ptr()>;

/// Turns what a computation threw into an ErrorFactory. Runs on the
/// computing thread; the factory must capture plain data (a message, a
/// limit), never the exception object itself.
using ErrorCapture = std::function<ErrorFactory(const std::exception_ptr&)>;

/// The default ErrorCapture: waiters get a std::runtime_error carrying
/// the original what() text.
inline ErrorFactory rebuild_as_runtime_error(const std::exception_ptr& error) {
  std::string what = "unknown error";
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    what = e.what();
  } catch (...) {
  }
  return [what] { return std::make_exception_ptr(std::runtime_error(what)); };
}

/// Thread-safe, capacity-bounded LRU cache whose misses are single-flight:
/// the first requester of a key inserts an in-flight slot and computes the
/// value outside the lock; every concurrent requester of the same key
/// blocks on the slot until the value (or the error `compute` threw) is
/// published, then shares it. N racing identical requests therefore cost
/// exactly one computation — 1 miss and N−1 hits, the waiters also counted
/// as in-flight waits. Errors reach every waiter but are not retained, so
/// a transient failure cannot poison its key: the computing thread
/// rethrows its own exception, and each waiter throws a new one from the
/// ErrorFactory that `capture` built. In-flight slots are never evicted;
/// only published values count against the capacity.
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class SingleFlightLru {
 public:
  /// How one get_or_compute() call was satisfied.
  enum class Outcome : std::uint8_t { Hit, Miss, InflightWait };

  struct Stats {
    std::int64_t hits = 0;  ///< includes in-flight waits
    std::int64_t misses = 0;
    std::int64_t inflight_waits = 0;
    std::int64_t evictions = 0;
    std::int64_t entries = 0;
  };

  explicit SingleFlightLru(std::size_t capacity,
                           ErrorCapture capture = rebuild_as_runtime_error)
      : capacity_(capacity == 0 ? 1 : capacity), capture_(std::move(capture)) {}

  /// Look up `key`; on a miss, run `compute()` exactly once across all
  /// threads and publish its result. Throws what `compute` threw to the
  /// computing thread, and the captured rebuild of it to every waiter.
  /// `outcome`, when non-null, reports how this call was satisfied (set
  /// before any throw).
  template <typename Compute>
  Value get_or_compute(const Key& key, Compute&& compute,
                       Outcome* outcome = nullptr) {
    std::shared_ptr<Slot> slot;
    {
      std::unique_lock<std::mutex> lock(mu_);
      auto it = map_.find(key);
      if (it != map_.end()) {
        slot = it->second;
        if (outcome) *outcome = Outcome::Hit;
        if (!slot->ready) {
          ++stats_.inflight_waits;
          if (outcome) *outcome = Outcome::InflightWait;
          cv_.wait(lock, [&] { return slot->ready; });
        }
        ++stats_.hits;
        // The slot may have been evicted or cleared while we waited; it
        // still holds the value, so touch the LRU only if it is listed.
        if (slot->listed) lru_.splice(lru_.begin(), lru_, slot->pos);
        if (slot->error) {
          const ErrorFactory rebuild = slot->error;
          lock.unlock();
          std::rethrow_exception(rebuild());
        }
        return slot->value;
      }
      slot = std::make_shared<Slot>();
      map_.emplace(key, slot);
      ++stats_.misses;
      if (outcome) *outcome = Outcome::Miss;
    }

    std::exception_ptr error;
    ErrorFactory rebuild;
    Value value{};
    try {
      value = compute();
    } catch (...) {
      error = std::current_exception();
      rebuild = capture_(error);
    }

    {
      std::lock_guard<std::mutex> lock(mu_);
      slot->value = value;
      slot->error = std::move(rebuild);
      slot->ready = true;
      // clear() may have dropped (or replaced) the key while we computed.
      auto it = map_.find(key);
      if (it != map_.end() && it->second == slot) {
        if (error) {
          map_.erase(it);
        } else {
          lru_.push_front(key);
          slot->pos = lru_.begin();
          slot->listed = true;
          evict_locked();
        }
      }
      stats_.entries = static_cast<std::int64_t>(lru_.size());
    }
    cv_.notify_all();

    if (error) std::rethrow_exception(error);
    return value;
  }

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    Stats s = stats_;
    s.entries = static_cast<std::int64_t>(lru_.size());
    return s;
  }

  /// Drop every entry and zero the counters (tests). In-flight slots live
  /// on in their requesters, which publish to their waiters as usual.
  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [key, slot] : map_) slot->listed = false;
    map_.clear();
    lru_.clear();
    stats_ = Stats{};
  }

 private:
  struct Slot {
    bool ready = false;
    bool listed = false;  ///< published and present in lru_ at `pos`
    typename std::list<Key>::iterator pos;
    Value value{};
    ErrorFactory error;  ///< set when the computation failed
  };

  void evict_locked() {
    while (lru_.size() > capacity_) {
      auto it = map_.find(lru_.back());
      it->second->listed = false;
      map_.erase(it);
      lru_.pop_back();
      ++stats_.evictions;
    }
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  const std::size_t capacity_;
  const ErrorCapture capture_;
  std::unordered_map<Key, std::shared_ptr<Slot>, Hash> map_;
  std::list<Key> lru_;  ///< published keys, most recently used first
  Stats stats_;
};

}  // namespace msc

#endif  // MSC_SUPPORT_SINGLE_FLIGHT_HPP
