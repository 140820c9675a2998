// Self-tests of the benchmark harness: its statistics, its error count, its
// metric names and units, and the exactness of the counts the traced pass
// reports. Runs every check and exits nonzero when any failed.
//
//   perfbench_selftest   (or: python3 perfbench/run.py --selftest)
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "harness.hpp"
#include "obs/metrics.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

std::vector<double> iota(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // reversed: median/tail must sort
  return v;
}

void test_median_and_tail() {
  using perfbench::median;
  using perfbench::tail;
  check(median({3.0}) == 3.0, "median of one sample");
  check(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "median of an even count averages the middle two");
  check(median(iota(41)) == 21.0, "median of 1..41");

  // 40 samples: the tail is the 30th smallest, p75, with exactly 10 above.
  const perfbench::Tail t40 = tail(iota(40));
  check(t40.value == 30.0 && t40.beyond == 10 && t40.percentile == 75.0 && t40.count == 40,
        "tail of 40 samples is p75 with 10 samples beyond it");
  const perfbench::Tail t100 = tail(iota(100));
  check(t100.value == 90.0 && t100.percentile == 90.0, "tail of 100 samples is p90");
  const perfbench::Tail t11 = tail(iota(11));
  check(t11.value == 1.0 && t11.beyond == 10, "11 samples: the minimum has 10 beyond it");
  const perfbench::Tail t10 = tail(iota(10));
  check(t10.value == 10.0 && t10.beyond == 0 && t10.percentile == 100.0,
        "10 samples: no percentile has 10 beyond it, the maximum is reported as such");
  // Ties: the rank, not the value, decides what lies beyond.
  std::vector<double> ties(30, 1.0);
  ties.push_back(2.0);
  const perfbench::Tail tt = tail(ties);
  check(tt.value == 1.0 && tt.beyond == 10, "tail rank is positional under ties");
}

void test_error_rate() {
  using perfbench::error_rate;
  check(error_rate(0, 0) == 0.0, "error_rate of nothing attempted is 0");
  check(error_rate(40, 0) == 0.0, "error_rate with no failures is 0");
  check(error_rate(40, 1) == 0.025, "error_rate counts failed over attempted");
  check(error_rate(3, 3) == 1.0, "error_rate is 1 when every op failed");
}

void test_names() {
  using perfbench::valid_metric_name;
  check(valid_metric_name("simmpi.matched"), "dotted layer names are valid");
  check(valid_metric_name("latency_s_p50"), "underscores are valid");
  check(valid_metric_name("vt.fig10_speedup-2"), "digits and '-' are valid");
  check(!valid_metric_name(".hidden"), "a name may not start with '.'");
  check(!valid_metric_name("_x"), "a name may not start with '_'");
  check(!valid_metric_name("a b"), "spaces are invalid");
  check(!valid_metric_name("a/b"), "'/' is invalid in a name");
  check(!valid_metric_name(""), "the empty name is invalid");
  check(!valid_metric_name(std::string(65, 'a')), "names are at most 64 characters");
  check(valid_metric_name(std::string(64, 'a')), "64 characters are allowed");
}

bool valid_unit(const std::string& u) {
  if (u.empty() || u.size() > 16) return false;
  for (const char c : u) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '/' || c == '%' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

/// Both passes of a short msg_rate run: every reported name and unit is
/// well formed, each name appears once, and the passes report exactly the
/// documented metric sets.
void test_reported_metrics() {
  const std::set<std::string> end_to_end = {"setup_s",     "latency_s_p50", "latency_s_tail",
                                            "ops_per_s",   "msgs_per_s",    "bytes_per_s",
                                            "peak_rss_mb"};
  for (const bool trace : {false, true}) {
    perfbench::Options o;
    o.workload = "msg_rate";
    o.seed = 3;
    o.seconds = 0.2;
    o.trace = trace;
    const perfbench::Report r = perfbench::measure(o);
    std::set<std::string> names;
    bool well_formed = true;
    for (const auto& m : r.metrics) {
      well_formed = well_formed && perfbench::valid_metric_name(m.name) && valid_unit(m.unit);
      names.insert(m.name);
    }
    const std::string pass = trace ? "traced pass" : "timed pass";
    check(well_formed, pass + ": every metric name and unit is well formed");
    check(names.size() == r.metrics.size(), pass + ": no metric name repeats");
    check(r.correct && r.failed == 0, pass + ": a short msg_rate run is correct");
    if (!trace) check(names == end_to_end, pass + ": reports exactly the end-to-end metrics");
    if (trace) {
      check(names.size() == 24 && names.count("simmpi.matched") == 1 &&
                names.count("obs.overhead_ratio") == 1,
            pass + ": reports the 24 per-layer metrics");
    }
  }
}

/// simmpi.matched (shard hits + wildcard slow path) of two traced msg_rate
/// ops must repeat exactly and equal the messages the workload declares.
void test_matched_repeats() {
  ::setenv("CLMPI_SCHED", "fibers", 1);
  ::setenv("CLMPI_FIBER_WORKERS", std::to_string(perfbench::kOpWorkers).c_str(), 1);
  auto w = perfbench::make_workload("msg_rate", 11);
  w->prepare_reference();
  auto& reg = clmpi::obs::Registry::instance();
  clmpi::obs::set_metrics_enabled(true);
  std::vector<std::uint64_t> matched;
  for (int op = 0; op < 2; ++op) {
    perfbench::SpanLog spans;
    spans.start_op(1, w->nranks());
    perfbench::OpContext ctx;
    ctx.spans = &spans;
    ctx.trace = true;
    reg.reset();
    const perfbench::OpOutcome o = w->run_op(0, ctx);
    check(o.ok, "traced msg_rate op " + std::to_string(op) + " is correct");
    std::uint64_t hit = 0;
    std::uint64_t slow = 0;
    (void)reg.value("simmpi.mailbox.shard_hit", hit);
    (void)reg.value("simmpi.mailbox.wildcard_slowpath", slow);
    matched.push_back(hit + slow);
  }
  clmpi::obs::set_metrics_enabled(false);
  check(matched[0] == matched[1], "simmpi.matched repeats exactly across two traced ops (" +
                                      std::to_string(matched[0]) + ", " +
                                      std::to_string(matched[1]) + ")");
  check(static_cast<double>(matched[0]) == w->declared(0).msgs,
        "simmpi.matched equals the declared messages per op");
}

}  // namespace

int main() {
  test_median_and_tail();
  test_error_rate();
  test_names();
  test_matched_repeats();
  test_reported_metrics();
  std::printf("%s: %d failed check(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
