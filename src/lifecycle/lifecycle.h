// LifecycleManager: the one-stop wiring of the continuous-learning loop —
// SampleStore + SampleTap (served traffic capture), DriftController (SSE
// confidence checks + incremental retrain), CheckpointPublisher (validated
// hot-swap into the server). scis_serve constructs one behind --lifecycle;
// the demo, bench, and tests drive RunCheck() synchronously for
// deterministic loops.
//
// Layout under `dir`:
//   <dir>/samples/seg-XXXXXXXX.log   the append-only traffic log
//   <dir>/checkpoints/gen-XXXXXX.bin published v3 checkpoints, one per
//                                    successful swap generation
#ifndef SCIS_LIFECYCLE_LIFECYCLE_H_
#define SCIS_LIFECYCLE_LIFECYCLE_H_

#include <functional>
#include <memory>
#include <string>

#include "lifecycle/checkpoint_publisher.h"
#include "lifecycle/drift_controller.h"
#include "lifecycle/sample_store.h"

namespace scis::lifecycle {

struct LifecycleOptions {
  std::string dir;  // root directory (samples/ and checkpoints/ under it)
  SampleStoreOptions store;
  size_t tap_capacity_rows = 8192;  // bounded serve-side queue
  DriftControllerOptions drift;
};

class LifecycleManager {
 public:
  // `ckpt` is the checkpoint the server is serving (rebuilt into the
  // trainable model); `swap` installs published engines (normally
  // ImputationServer::HotSwap).
  static Result<std::unique_ptr<LifecycleManager>> Create(
      const Checkpoint& ckpt, CheckpointPublisher::SwapFn swap,
      LifecycleOptions opts);

  ~LifecycleManager();  // Stop()

  LifecycleManager(const LifecycleManager&) = delete;
  LifecycleManager& operator=(const LifecycleManager&) = delete;

  // The bounded, non-blocking hook scis_serve installs on the request path
  // (ServerOptions::sample_hook). Never blocks the event loop.
  std::function<void(const Matrix&)> SampleHook();

  // Drains the tap, then runs one synchronous drift check (deterministic
  // path for the demo / bench / tests).
  Result<DriftController::CheckOutcome> RunCheck();

  // Background periodic checks at drift.check_interval_ms.
  void Start();
  void Stop();

  SampleStore& store() { return *store_; }
  SampleTap& tap() { return *tap_; }
  DriftController& controller() { return *controller_; }
  const CheckpointPublisher& publisher() const { return *publisher_; }

 private:
  LifecycleManager() = default;

  std::shared_ptr<SampleStore> store_;
  std::unique_ptr<SampleTap> tap_;
  std::unique_ptr<CheckpointPublisher> publisher_;
  std::unique_ptr<DriftController> controller_;
};

}  // namespace scis::lifecycle

#endif  // SCIS_LIFECYCLE_LIFECYCLE_H_
