// Virtual-time background services for the discrete-event runtime.
//
// The engine cannot spawn fibers mid-run, so activity that overlaps the
// tasks' own execution — the staging drain agent shipping checkpoints to the
// parallel tier — is modelled as a serial service timeline instead: work is
// booked on a BackgroundWorker at a start time and a duration, and the
// worker reports when it completes. Tasks later synchronise with that
// completion time via TaskState::advance_to. Completion times are a pure
// function of the booking sequence, so every rank replaying the same
// bookings computes bit-identical schedules — the determinism contract the
// golden perf suite pins.
#pragma once

#include <algorithm>

namespace sion::par {

// One exclusive background agent (e.g. a burst-buffer node's drain link):
// jobs run serially in booking order, each starting no earlier than both its
// requested time and the previous job's completion.
class BackgroundWorker {
 public:
  // Book `duration` seconds of exclusive work starting at or after
  // `earliest`; returns the completion time.
  double schedule(double earliest, double duration) {
    const double start = std::max(earliest, busy_until_);
    busy_until_ = start + std::max(0.0, duration);
    return busy_until_;
  }

 private:
  double busy_until_ = 0.0;
};

}  // namespace sion::par
