// Serializing virtual resources (NIC, PCIe copy engine, device compute
// engine, host core). A resource executes one operation at a time; acquiring
// it returns the [start, end) span the operation occupies on the virtual
// timeline.
//
// Allocation is *interval-based with backfill*: acquire(ready, cost) takes
// the earliest free gap at or after `ready` that fits `cost`, which keeps
// the simulation work-conserving when grants arrive out of virtual-time
// order. Backfill makes the schedule independent of grant order only for
// contenders that share a ready time; with unequal ready times, whichever
// caller arrives first keeps the earlier slot. Determinism therefore comes
// from the caller order: a job's fibers acquire in a fixed turn sequence
// (support/sched.hpp).
#pragma once

#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

#include "vt/time.hpp"

namespace clmpi::vt {

class Resource {
 public:
  struct Span {
    TimePoint start;
    TimePoint end;
  };

  explicit Resource(std::string name) : name_(std::move(name)) {}

  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  /// Occupy the earliest free interval of length `cost` starting no earlier
  /// than `ready`. Thread-safe.
  Span acquire(TimePoint ready, Duration cost);

  /// Occupy two resources simultaneously (e.g. sender TX + receiver RX for a
  /// wire transfer): the earliest interval free on *both*. Deadlock-free for
  /// concurrent callers (internal lock ordering); a and b may alias.
  static Span acquire_joint(Resource& a, Resource& b, TimePoint ready, Duration cost);

  /// End of the latest allocation (when the resource finally goes idle).
  [[nodiscard]] TimePoint free_time() const;

  /// Total busy time accumulated (for utilization reporting).
  [[nodiscard]] Duration busy_time() const;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Forget all history; used between bench repetitions.
  void reset();

 private:
  /// Earliest start >= t with a free gap of length `cost`. Lock held.
  [[nodiscard]] TimePoint earliest_fit(TimePoint t, Duration cost) const;

  /// Insert [start, start+cost) into the busy list. Lock held; the interval
  /// must not overlap an existing one.
  void insert(TimePoint start, Duration cost);

  std::string name_;
  mutable std::mutex mutex_;
  /// Sorted, disjoint busy intervals. Zero-length intervals are not stored.
  std::vector<Span> busy_;
  Duration total_busy_{};
};

}  // namespace clmpi::vt
