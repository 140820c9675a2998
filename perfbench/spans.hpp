// In-memory wall-clock spans around the benchmark's own calls into the
// simulator's layers (Cluster::run, simmpi, clmpi, ocl).
//
// A span has a name, a start, an end, the span that caused it and the op it
// belongs to. Spans are kept in memory while the benchmark runs and written
// out once at the end (write_csv). Each lane is one sequential task — the
// host thread, or one rank body — so a lane records without locking; rank
// bodies run on fibers that may migrate between workers, which rules out a
// thread_local span stack.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

std::int64_t now_ns();

struct Span {
  const char* name{nullptr};  ///< a string literal naming layer and call
  std::uint64_t id{0};
  std::uint64_t parent{0};  ///< 0: no parent
  std::uint32_t op{0};
  std::int32_t lane{-1};  ///< rank, or -1 for the host thread
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
};

class SpanLog;

/// One sequential recorder. A span opened on an empty stack takes the
/// lane's root parent, which links rank bodies to the host's Cluster::run.
class Lane {
 public:
  void begin(const char* name);
  void end();
  void set_root_parent(std::uint64_t id) { root_parent_ = id; }
  [[nodiscard]] std::uint64_t top() const { return stack_.empty() ? 0 : stack_.back(); }

 private:
  friend class SpanLog;
  Lane(SpanLog* log, std::int32_t lane) : log_(log), lane_(lane) {}
  SpanLog* log_;
  std::int32_t lane_;
  std::uint64_t next_seq_{0};
  std::uint64_t root_parent_{0};
  std::vector<std::size_t> open_;  ///< indices into spans_ of open spans
  std::vector<std::uint64_t> stack_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction; does nothing
/// when `lane` is null (the untraced passes).
class Scope {
 public:
  Scope(Lane* lane, const char* name) : lane_(lane) {
    if (lane_ != nullptr) lane_->begin(name);
  }
  ~Scope() {
    if (lane_ != nullptr) lane_->end();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Lane* lane_;
};

class SpanLog {
 public:
  /// Start op `op` on `nranks` ranks: rank lanes exist from here on.
  void start_op(std::uint32_t op, int nranks);
  [[nodiscard]] std::uint32_t op() const { return op_; }

  Lane& host() { return lane(-1); }
  Lane& rank(int r) { return lane(r); }

  /// Every recorded span, ordered by (op, start).
  [[nodiscard]] std::vector<Span> spans() const;

  /// Wall seconds per span name: the total duration and the self time
  /// (duration minus the part covered by child spans on the same lane).
  struct Time {
    double total_s{0.0};
    double self_s{0.0};
    std::uint64_t count{0};
  };
  using Times = std::map<std::string_view, Time>;  ///< keyed by span name
  /// Times of every op, by op id.
  [[nodiscard]] std::map<std::uint32_t, Times> times() const;

  /// Write every span as CSV (id,parent,op,lane,name,start_ns,end_ns);
  /// returns false when the file cannot be written.
  bool write_csv(const std::string& path) const;

 private:
  Lane& lane(int r);
  std::uint32_t op_{0};
  std::vector<std::unique_ptr<Lane>> lanes_;  ///< [0] host, [r + 1] rank r
};

}  // namespace perfbench
