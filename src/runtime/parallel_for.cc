#include "runtime/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>

#include "runtime/thread_pool.h"

namespace scis::runtime::internal {

namespace {

// Shared between the caller and the worker claim-loops of one region.
struct RegionState {
  std::atomic<size_t> next{0};  // next unclaimed chunk index
  std::atomic<size_t> done{0};  // chunks finished (success or failure)
  size_t total = 0;
  std::mutex mu;
  std::condition_variable cv;
  std::exception_ptr error;  // first chunk exception, rethrown by the caller
};

// Claims chunks off state->next until the grid is exhausted, counting each
// one with `count_chunk` before marking it done: the caller reads the stats
// once every chunk is done, so a count made after that would be missed.
void ClaimLoop(const std::shared_ptr<RegionState>& state, size_t begin,
               size_t end, size_t grain,
               const std::function<void(size_t, size_t, size_t)>& chunk_fn,
               void (*count_chunk)(uint64_t)) {
  for (;;) {
    const size_t c = state->next.fetch_add(1, std::memory_order_relaxed);
    if (c >= state->total) break;
    const size_t b = begin + c * grain;
    const size_t e = std::min(b + grain, end);
    try {
      chunk_fn(c, b, e);
    } catch (...) {
      std::lock_guard<std::mutex> lock(state->mu);
      if (!state->error) state->error = std::current_exception();
    }
    count_chunk(1);
    if (state->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        state->total) {
      // Last chunk anywhere: wake the caller if it is already waiting.
      std::lock_guard<std::mutex> lock(state->mu);
      state->cv.notify_all();
    }
  }
}

}  // namespace

bool UseSerialPath(size_t num_chunks) {
  if (num_chunks <= 1) return true;
  if (ThreadPool::OnWorkerThread()) return true;  // nested region: run inline
  return NumThreads() <= 1 || GetPool() == nullptr;
}

void RunChunked(size_t begin, size_t end, size_t grain, size_t num_chunks,
                const std::function<void(size_t, size_t, size_t)>& chunk_fn) {
  ThreadPool* pool = GetPool();
  auto state = std::make_shared<RegionState>();
  state->total = num_chunks;

  // One claim-loop task per worker that could usefully participate; the
  // caller runs its own loop, so cap at chunks - 1 helpers. chunk_fn is
  // captured by pointer: the caller blocks below until every chunk is done,
  // keeping it alive.
  const size_t helpers =
      std::min<size_t>(static_cast<size_t>(pool->num_threads()),
                       num_chunks - 1);
  const auto* fn = &chunk_fn;
  for (size_t t = 0; t < helpers; ++t) {
    pool->Submit([state, begin, end, grain, fn] {
      ClaimLoop(state, begin, end, grain, *fn, CountWorkerChunks);
    });
  }

  ClaimLoop(state, begin, end, grain, chunk_fn, CountInlineChunks);

  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&state] {
    return state->done.load(std::memory_order_acquire) == state->total;
  });
  if (state->error) std::rethrow_exception(state->error);
}

}  // namespace scis::runtime::internal
