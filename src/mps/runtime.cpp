#include "mps/runtime.hpp"

#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "util/thread_rank.hpp"

namespace ptucker::mps {

Runtime::Runtime(int world_size)
    : universe_(std::make_unique<Universe>(world_size)) {}

Runtime::~Runtime() = default;

int Runtime::world_size() const { return universe_->world_size(); }

void Runtime::run(const std::function<void(Comm&)>& body) {
  universe_->clear_abort();
  universe_->reset_schedule();
  universe_->clear_async_leaks();
  const int p = universe_->world_size();

  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(p));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(p));

  for (int r = 0; r < p; ++r) {
    threads.emplace_back([this, r, &body, &errors]() {
      util::set_thread_rank(r);
      try {
        Comm comm = Comm::world(universe_.get(), r);
        body(comm);
      } catch (const AbortError&) {
        // Secondary failure caused by another rank's abort; the original
        // exception carries the diagnosis.
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        try {
          std::rethrow_exception(errors[static_cast<std::size_t>(r)]);
        } catch (const std::exception& e) {
          universe_->abort(e.what());
        } catch (...) {
          universe_->abort("unknown exception");
        }
      }
      util::set_thread_rank(-1);
    });
  }
  for (auto& t : threads) t.join();

  for (auto& err : errors) {
    if (err) std::rethrow_exception(err);
  }
  if (universe_->aborted()) {
    // All ranks saw only AbortError (shouldn't happen, but be defensive).
    throw InternalError("parallel region aborted: " +
                        universe_->abort_reason());
  }
  // A handle dropped mid-flight also leaves its messages in mailboxes, so
  // this check precedes assert_quiescent: the leak names the op, the
  // quiescence failure would only name the symptom.
  universe_->assert_no_async_leaks();
  // Before assert_quiescent: a divergent schedule usually leaks messages
  // too, and the schedule diagnosis is the actionable one.
  universe_->verify_schedule();
  universe_->assert_quiescent();
}

const CommStats& Runtime::rank_stats(int rank) const {
  return universe_->stats(rank);
}

CommStats Runtime::total_stats() const { return universe_->total_stats(); }

CommStats Runtime::max_stats() const { return universe_->max_stats(); }

void Runtime::reset_stats() { universe_->reset_stats(); }

void Runtime::set_recv_timeout_ms(long ms) {
  universe_->set_recv_timeout(std::chrono::milliseconds(ms));
}

void run(int world_size, const std::function<void(Comm&)>& body) {
  Runtime rt(world_size);
  rt.run(body);
}

}  // namespace ptucker::mps
