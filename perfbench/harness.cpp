#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <optional>
#include <sstream>
#include <thread>

#include "clmpi/runtime.hpp"
#include "obs/metrics.hpp"
#include "ocl/context.hpp"
#include "ocl/platform.hpp"
#include "ocl/queue.hpp"
#include "simmpi/cluster.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

namespace mpi = clmpi::mpi;
namespace ocl = clmpi::ocl;
namespace obs = clmpi::obs;

/// Traced ops per traced pass: enough for per-kind medians, few enough that
/// msg_rate's span log (about 20k spans per op) stays in the tens of MB.
constexpr int kMaxTracedOps = 24;

/// Untraced and traced cycles each of the pool probe runs.
constexpr int kProbeCycles = 3;

using Counters = std::map<std::string, std::uint64_t, std::less<>>;

std::uint64_t get(const Counters& c, std::string_view name) {
  const auto it = c.find(name);
  return it == c.end() ? 0 : it->second;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MB of 2^20 bytes
}

/// Everything one closed loop of ops produced.
struct Loop {
  std::vector<double> latency_s;
  std::vector<int> kind;
  std::vector<OpOutcome> outcome;
  std::vector<Counters> counters;  ///< per op, traced loops only
  std::vector<std::uint32_t> op_id;
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::string first_mismatch;
  double wall_s{0.0};

  void note(const OpOutcome& o) {
    ++attempted;
    if (!o.ok) {
      ++failed;
      if (first_mismatch.empty()) first_mismatch = o.mismatch;
    }
  }

  void add(int k, std::uint32_t id, double latency, OpOutcome o) {
    note(o);
    latency_s.push_back(latency);
    kind.push_back(k);
    op_id.push_back(id);
    outcome.push_back(std::move(o));
  }
};

/// Traced ops whose trace hash or makespan differs from the first traced op
/// of their kind in `loop`. Reported, never retried or filtered.
int divergent_ops(const Loop& loop) {
  std::map<int, const OpOutcome*> first;
  int n = 0;
  for (std::size_t i = 0; i < loop.kind.size(); ++i) {
    const OpOutcome& o = loop.outcome[i];
    const auto [it, inserted] = first.emplace(loop.kind[i], &o);
    if (!inserted && (o.trace_hash != it->second->trace_hash || o.makespan_s != it->second->makespan_s)) {
      ++n;
    }
  }
  return n;
}

class Bench {
 public:
  explicit Bench(const Options& o) : opt_(o), pool_(pool_size()) {}

  Report run();

 private:
  static OpOutcome run_op(Workload& w, int kind, const OpContext& ctx) {
    try {
      return w.run_op(kind, ctx);
    } catch (const std::exception& e) {
      OpOutcome o;
      o.ok = false;
      o.mismatch = std::string(w.name()) + " op threw: " + e.what();
      return o;
    }
  }
  OpOutcome run_op(int kind, const OpContext& ctx) { return run_op(*workload_, kind, ctx); }

  /// Ops one at a time, kinds alternating from first_kind_, until `seconds`
  /// have passed and every kind ran equally often. With `interleave`,
  /// cycles (one op of each kind) alternate traced and untraced until
  /// kMaxTracedOps ran traced, so both sets see the same host conditions;
  /// otherwise every op is untraced.
  void closed_loop(double seconds, bool interleave, Loop& untraced, Loop& traced) {
    const int nk = static_cast<int>(workload_->kinds().size());
    const std::int64_t start = now_ns();
    for (int i = 0;; ++i) {
      if (i > 0 && i % nk == 0 && seconds_since(start) >= seconds) break;
      const int kind = (first_kind_ + i) % nk;
      const bool trace = interleave && (i / nk) % 2 == 0 &&
                         traced.kind.size() < static_cast<std::size_t>(kMaxTracedOps);
      Loop& loop = trace ? traced : untraced;
      const std::uint32_t id = next_op_++;
      OpContext ctx;
      if (trace) {
        ctx.spans = &spans_;
        ctx.trace = true;
        spans_.start_op(id, workload_->nranks());
        obs::Registry::instance().reset();
        obs::set_metrics_enabled(true);
      }
      const std::int64_t t0 = now_ns();
      OpOutcome o = run_op(kind, ctx);
      const double latency = seconds_since(t0);
      if (trace) {
        obs::set_metrics_enabled(false);
        Counters c;
        for (auto& s : obs::Registry::instance().snapshot()) c.emplace(std::move(s.name), s.value);
        loop.counters.push_back(std::move(c));
      }
      loop.add(kind, id, latency, std::move(o));
    }
    untraced.wall_s = seconds_since(start);
  }

  /// kProbeCycles cycles at pool_ fiber workers, each an untraced cycle
  /// (latency, for sched.speedup_1w) then a traced one (vt::Tracer only, no
  /// counters or spans: trace hash and makespan for the determinism report).
  void pool_probe(Loop& untraced, Loop& traced) {
    ScopedWorkers pool(pool_);
    const int nk = static_cast<int>(workload_->kinds().size());
    for (int c = 0; c < 2 * kProbeCycles; ++c) {
      const bool trace = c % 2 == 1;
      for (int k = 0; k < nk; ++k) {
        const int kind = (first_kind_ + k) % nk;
        OpContext ctx;
        ctx.trace = trace;
        const std::int64_t t0 = now_ns();
        OpOutcome o = run_op(kind, ctx);
        (trace ? traced : untraced).add(kind, next_op_++, seconds_since(t0), std::move(o));
      }
    }
  }

  /// Fig. 10 of record: nanopowder's baseline makespan over its clMPI
  /// makespan, from one traced op of each at kOpWorkers, both checked
  /// against the nanopowder reference. Nanopowder is not a timed workload of
  /// the benchmark (see README.md), so himeno's traced pass runs this.
  double fig10_probe(Loop& probe) {
    const std::unique_ptr<Workload> np = make_workload("nanopowder", opt_.seed);
    np->prepare_reference();
    notes_.push_back("vt.fig10_speedup: from one traced nanopowder op of each kind");
    if (const std::string c = np->caveat(); !c.empty()) notes_.push_back("nanopowder caveat: " + c);
    std::vector<double> makespan;
    for (int kind = 0; kind < 2; ++kind) {
      OpContext ctx;
      ctx.trace = true;
      OpOutcome o = run_op(*np, kind, ctx);
      makespan.push_back(o.makespan_s);
      probe.add(kind, next_op_++, 0.0, std::move(o));
    }
    return ratio(makespan[0], makespan[1]);
  }

  /// Median enqueue+wait wall time of an empty kernel on one queue, in a
  /// one-rank cluster on the workload's profile; records ocl and clmpi spans.
  double ocl_roundtrip_us();

  void stamp() const;
  std::vector<Metric> end_to_end(const Loop& loop) const;
  /// `pool_untraced`/`pool_traced`: the pool probe's ops.
  std::vector<Metric> per_layer(const Loop& untraced, const Loop& traced,
                                const std::map<std::uint32_t, SpanLog::Times>& times,
                                const Loop& pool_untraced, const Loop& pool_traced,
                                double roundtrip_us);
  /// Mean over kinds of the per-kind median of `f(op)` over a loop; with
  /// equal op counts per kind this is the per-op figure of the mix.
  template <typename F>
  double per_op(const Loop& loop, F&& f) const;

  Options opt_;
  int pool_;
  std::unique_ptr<Workload> workload_;
  std::vector<double> setup_s_;
  int first_kind_{0};
  std::uint32_t next_op_{1};
  SpanLog spans_;
  std::vector<std::string> notes_;
  double fig10_probe_{0.0};  ///< fig10_probe(), when it ran
  bool exact_ok_{true};  ///< exact-count checks of the traced pass
};

void Bench::stamp() const {
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n", opt_.workload.c_str(),
              static_cast<unsigned long long>(opt_.seed), opt_.seconds, opt_.trace ? 1 : 0);
  std::printf("# stamp: nproc=%u workers=%d launcher=fibers threads=main+%d worker+progress "
              "probe_pool=%d compiler=\"%s\" build=%s git=%s\n",
              std::thread::hardware_concurrency(), kOpWorkers, kOpWorkers, pool_, __VERSION__,
              PERFBENCH_BUILD_TYPE, opt_.git.c_str());
  std::printf("# config: %s\n", workload_->describe().c_str());
  if (const std::string c = workload_->caveat(); !c.empty()) std::printf("# caveat: %s\n", c.c_str());
  const auto kinds = workload_->kinds();
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    const Declared d = workload_->declared(static_cast<int>(k));
    std::printf("# declared per op, %s: %.0f msgs, %.0f bytes (%s)\n", kinds[k].c_str(), d.msgs,
                d.bytes, d.computed ? "computed from the app config" : "from the benchmark's message plan");
  }
  std::printf("# closed loop: 1 client, 1 op in flight; kinds alternate op by op starting "
              "with %s (chosen by the seed)\n",
              kinds[static_cast<std::size_t>(first_kind_)].c_str());
}

std::vector<Metric> Bench::end_to_end(const Loop& loop) const {
  double msgs = 0.0;
  double bytes = 0.0;
  for (const int k : loop.kind) {
    const Declared d = workload_->declared(k);
    msgs += d.msgs;
    bytes += d.bytes;
  }
  const auto kinds = workload_->kinds();
  for (std::size_t k = 0; k < kinds.size() && kinds.size() > 1; ++k) {
    std::vector<double> v;
    for (std::size_t i = 0; i < loop.kind.size(); ++i) {
      if (loop.kind[i] == static_cast<int>(k)) v.push_back(loop.latency_s[i]);
    }
    std::printf("# latency p50 of %s ops: %.6f s over %zu ops\n", kinds[k].c_str(), median(v),
                v.size());
  }
  std::string order;
  for (const double l : loop.latency_s) order += " " + std::to_string(l);
  std::printf("# op latencies in run order (s):%s\n", order.c_str());
  const Tail t = tail(loop.latency_s);
  if (kinds.size() > 1) {
    std::printf("# latency_s_p50 is the mean of the per-kind medians; the median of all ops "
                "would fall in the gap between the kinds' op sizes\n");
  }
  std::printf("# latency_s_tail is p%.2f over %zu ops (%zu ops beyond it)\n", t.percentile,
              t.count, t.beyond);
  std::printf("# error_rate %.6g (%llu failed of %llu attempted)\n",
              error_rate(loop.attempted, loop.failed),
              static_cast<unsigned long long>(loop.failed),
              static_cast<unsigned long long>(loop.attempted));
  const auto n = static_cast<double>(loop.latency_s.size());
  return {
      {"setup_s", median(setup_s_), "s"},
      {"latency_s_p50", per_op(loop, [&loop](std::size_t i) { return loop.latency_s[i]; }), "s"},
      {"latency_s_tail", t.value, "s"},
      {"ops_per_s", n / loop.wall_s, "1/s"},
      {"msgs_per_s", msgs / loop.wall_s, "1/s"},
      {"bytes_per_s", bytes / loop.wall_s, "B/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

template <typename F>
double Bench::per_op(const Loop& loop, F&& f) const {
  const int nk = static_cast<int>(workload_->kinds().size());
  double sum = 0.0;
  for (int k = 0; k < nk; ++k) {
    std::vector<double> v;
    for (std::size_t i = 0; i < loop.kind.size(); ++i) {
      if (loop.kind[i] == k) v.push_back(f(i));
    }
    if (!v.empty()) sum += median(v);
  }
  return sum / nk;
}

double Bench::ocl_roundtrip_us() {
  constexpr int kCommands = 200;
  std::vector<double> samples;
  spans_.start_op(next_op_++, 1);
  Lane* host = &spans_.host();
  Scope run_span(host, "cluster.run");
  spans_.rank(0).set_root_parent(host->top());
  mpi::Cluster::Options o;
  o.nranks = 1;
  o.profile = &workload_->profile();
  mpi::Cluster::run(o, [&](mpi::Rank& rank) {
    Lane* lane = &spans_.rank(0);
    Scope body(lane, "rank.body");
    ocl::Platform platform(rank.profile(), rank.rank(), rank.tracer());
    ocl::Context context(platform.device());
    std::optional<clmpi::rt::Runtime> runtime;
    {
      Scope s(lane, "clmpi.runtime_create");
      runtime.emplace(rank, platform.device());
    }
    auto queue = context.create_queue("probe");
    ocl::Program program;
    program.define(
        "noop", [](const ocl::NDRange&, const ocl::KernelArgs&) {},
        [](const ocl::NDRange&, const clmpi::sys::SystemProfile&) { return clmpi::vt::Duration{}; });
    const ocl::KernelPtr kernel = program.create_kernel("noop");
    for (int i = 0; i < kCommands; ++i) {
      const std::int64_t t0 = now_ns();
      ocl::EventPtr ev;
      {
        Scope s(lane, "ocl.enqueue");
        ev = queue->enqueue_ndrange(kernel, ocl::NDRange::linear(1), {}, rank.clock());
      }
      {
        Scope s(lane, "ocl.wait");
        ev->wait(rank.clock());
      }
      samples.push_back(seconds_since(t0) * 1e6);
    }
    Scope s(lane, "clmpi.finish");
    runtime->finish(rank.clock());
  });
  return median(samples);
}

std::vector<Metric> Bench::per_layer(const Loop& untraced, const Loop& traced,
                                     const std::map<std::uint32_t, SpanLog::Times>& times,
                                     const Loop& pool_untraced, const Loop& pool_traced,
                                     double roundtrip_us) {
  const auto kinds = workload_->kinds();
  const auto& C = traced.counters;
  auto counter = [&](std::string_view name) {
    return [&C, name](std::size_t i) { return static_cast<double>(get(C[i], name)); };
  };
  auto matched = [&](std::size_t i) {
    return static_cast<double>(get(C[i], "simmpi.mailbox.shard_hit") +
                               get(C[i], "simmpi.mailbox.wildcard_slowpath"));
  };

  // Exact count: matched messages equal the declared messages of the op.
  for (std::size_t i = 0; i < traced.kind.size(); ++i) {
    const double declared = workload_->declared(traced.kind[i]).msgs;
    if (matched(i) != declared) {
      exact_ok_ = false;
      notes_.push_back("simmpi.matched " + std::to_string(matched(i)) + " != declared " +
                       std::to_string(declared) + " on traced op " +
                       std::to_string(traced.op_id[i]));
      break;
    }
  }

  // Span-derived wall time per op, summed over ranks.
  auto span_s = [&](const char* name) {
    return [&, name](std::size_t i) {
      const auto op = times.find(traced.op_id[i]);
      if (op == times.end()) return 0.0;
      const auto it = op->second.find(name);
      return it == op->second.end() ? 0.0 : it->second.total_s;
    };
  };

  // Determinism, measured where it is at stake: at the pool size, where
  // grant order still depends on wall-clock interleaving (ROADMAP.md item 2).
  const int pool_divergent = divergent_ops(pool_traced);
  const int op_divergent = divergent_ops(traced);
  std::vector<std::vector<double>> makespans(kinds.size());
  for (std::size_t i = 0; i < traced.kind.size(); ++i) {
    makespans[static_cast<std::size_t>(traced.kind[i])].push_back(traced.outcome[i].makespan_s);
  }
  auto kind_makespan = [&](const char* name) {
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      if (kinds[k] == name && !makespans[k].empty()) return median(makespans[k]);
    }
    return 0.0;
  };
  double fig9 = 0.0;
  double fig10 = fig10_probe_;
  if (workload_->name() == "himeno") fig9 = ratio(kind_makespan("hand"), kind_makespan("clmpi"));
  if (workload_->name() == "nanopowder") {
    fig10 = ratio(kind_makespan("baseline"), kind_makespan("clmpi"));
  }
  notes_.push_back("vt.divergent_ops: " + std::to_string(pool_divergent) + " of " +
                   std::to_string(pool_traced.kind.size()) + " traced ops at " +
                   std::to_string(pool_) +
                   " fiber workers differ in trace hash or makespan from the first op of their "
                   "kind; reported, not gated (with more than one worker, grant order still "
                   "depends on wall-clock interleaving: ROADMAP.md item 2). At " +
                   std::to_string(kOpWorkers) + " worker: " + std::to_string(op_divergent) +
                   " of " + std::to_string(traced.kind.size()) + ".");

  // sched: the per-op latency at one worker over the same at the pool size.
  auto latency = [](const Loop& l) { return [&l](std::size_t i) { return l.latency_s[i]; }; };
  const double p50_untraced = per_op(untraced, latency(untraced));
  const double p50_traced = per_op(traced, latency(traced));
  const double speedup = ratio(p50_untraced, per_op(pool_untraced, latency(pool_untraced)));

  const bool app_owned = traced.outcome.front().launch_s < 0.0;
  if (app_owned) {
    notes_.push_back("cluster.launch_s/teardown_s: not observable, the app owns its "
                     "Cluster::run; reported as 0");
  }
  auto launch = [&](std::size_t i) { return std::max(0.0, traced.outcome[i].launch_s); };
  auto teardown = [&](std::size_t i) { return std::max(0.0, traced.outcome[i].teardown_s); };

  double pool_hwm = 0.0;
  double depth_hwm = 0.0;
  double fallbacks = 0.0;
  for (const Counters& c : C) {
    pool_hwm = std::max(pool_hwm, static_cast<double>(get(c, "xfer.pool.in_use_bytes.hwm")));
    depth_hwm = std::max(depth_hwm, static_cast<double>(get(c, "rt.dispatcher.queue_depth.hwm")));
    fallbacks += static_cast<double>(get(c, "xfer.fallbacks"));
  }
  double pool_hits = 0.0, pool_acq = 0.0, memo_hits = 0.0, selects = 0.0;
  double jobs = 0.0, batches = 0.0, enq = 0.0, flushes = 0.0, unexpected = 0.0, all_matched = 0.0;
  for (std::size_t i = 0; i < C.size(); ++i) {
    const Counters& c = C[i];
    pool_hits += static_cast<double>(get(c, "xfer.pool.hits"));
    pool_acq += static_cast<double>(get(c, "xfer.pool.acquires"));
    for (const auto& [name, v] : c) {
      if (name.starts_with("xfer.select.")) {
        selects += static_cast<double>(v);
        if (name == "xfer.select.memo_hit") memo_hits += static_cast<double>(v);
      }
    }
    jobs += static_cast<double>(get(c, "rt.dispatcher.jobs"));
    batches += static_cast<double>(get(c, "rt.dispatcher.batches"));
    enq += static_cast<double>(get(c, "progress.coalesce.enqueued"));
    flushes += static_cast<double>(get(c, "progress.coalesce.flushes"));
    unexpected += static_cast<double>(get(c, "simmpi.mailbox.unexpected"));
    all_matched += matched(i);
  }

  return {
      {"sched.speedup_1w", speedup, "x"},
      {"cluster.launch_s", per_op(traced, launch), "s"},
      {"cluster.teardown_s", per_op(traced, teardown), "s"},
      {"simmpi.post_s", per_op(traced, span_s("simmpi.post")), "s"},
      {"simmpi.wait_s", per_op(traced, span_s("simmpi.wait")), "s"},
      {"simmpi.coll_s", per_op(traced, span_s("simmpi.coll")), "s"},
      {"simmpi.matched", per_op(traced, matched), "count"},
      {"simmpi.unexpected_ratio", ratio(unexpected, all_matched), "ratio"},
      {"simmpi.blocking_waits", per_op(traced, counter("progress.blocking_waits")), "count"},
      {"simmpi.coalesce_batch", ratio(enq, flushes), "count"},
      {"transfer.pool_hit_ratio", ratio(pool_hits, pool_acq), "ratio"},
      {"transfer.pool_hwm_mb", pool_hwm / (1024.0 * 1024.0), "MB"},
      {"transfer.memo_hit_ratio", ratio(memo_hits, selects), "ratio"},
      {"transfer.fallbacks", fallbacks, "count"},
      {"clmpi.dispatch_jobs", per_op(traced, counter("rt.dispatcher.jobs")), "count"},
      {"clmpi.jobs_per_batch", ratio(jobs, batches), "count"},
      {"clmpi.queue_depth_hwm", depth_hwm, "count"},
      {"ocl.cmd_roundtrip_us", roundtrip_us, "us"},
      {"vt.spans", per_op(traced, [&](std::size_t i) {
         return static_cast<double>(traced.outcome[i].vt_spans);
       }), "count"},
      {"vt.divergent_ops", static_cast<double>(pool_divergent), "count"},
      {"vt.makespan_s", median(makespans[0]), "s"},
      {"vt.fig9_clmpi_over_hand", fig9, "x"},
      {"vt.fig10_speedup", fig10, "x"},
      {"obs.overhead_ratio", ratio(p50_traced, p50_untraced), "ratio"},
  };
}

Report Bench::run() {
  ::setenv("CLMPI_SCHED", "fibers", 1);
  ::setenv("CLMPI_FIBER_WORKERS", std::to_string(kOpWorkers).c_str(), 1);
  // Counters stay off except in the traced loop, whatever the environment.
  obs::set_metrics_enabled(false);

  // Set-up, several times: profiles, the reference results and one untimed
  // warm-up op. The last set-up's workload is the one measured.
  std::uint64_t setup_failed = 0;
  std::string setup_mismatch;
  const std::int64_t setup_start = now_ns();
  for (int rep = 0; rep < kSetupReps ||
                    (rep < kMaxSetupReps && seconds_since(setup_start) < kSetupSeconds);
       ++rep) {
    const std::int64_t t0 = now_ns();
    workload_ = make_workload(opt_.workload, opt_.seed);
    first_kind_ = static_cast<int>(opt_.seed % workload_->kinds().size());
    workload_->prepare_reference();
    const OpOutcome warm = run_op(first_kind_, {});
    setup_s_.push_back(seconds_since(t0));
    if (!warm.ok) {
      ++setup_failed;
      if (setup_mismatch.empty()) setup_mismatch = "warm-up: " + warm.mismatch;
    }
  }
  stamp();
  std::printf("# set-up ran %zu times; peak RSS after set-up: %.1f MB\n", setup_s_.size(),
              peak_rss_mb());

  std::vector<Metric> metrics;
  std::uint64_t attempted = setup_s_.size();
  std::uint64_t failed = setup_failed;
  std::string mismatch = setup_mismatch;
  auto absorb = [&](const Loop& l) {
    attempted += l.attempted;
    failed += l.failed;
    if (mismatch.empty()) mismatch = l.first_mismatch;
  };

  if (!opt_.trace) {
    Loop loop;
    Loop unused;
    closed_loop(opt_.seconds, false, loop, unused);
    absorb(loop);
    metrics = end_to_end(loop);
  } else {
    Loop untraced;
    Loop traced;
    closed_loop(opt_.seconds, true, untraced, traced);
    absorb(untraced);
    absorb(traced);
    Loop pool_untraced;
    Loop pool_traced;
    pool_probe(pool_untraced, pool_traced);
    absorb(pool_untraced);
    absorb(pool_traced);
    if (workload_->name() == "himeno") {
      Loop probe;
      fig10_probe_ = fig10_probe(probe);
      absorb(probe);
    }
    const double roundtrip_us = ocl_roundtrip_us();
    const auto times = spans_.times();
    metrics = per_layer(untraced, traced, times, pool_untraced, pool_traced, roundtrip_us);
    if (!opt_.spans_out.empty()) {
      if (spans_.write_csv(opt_.spans_out)) {
        std::printf("# spans written to %s\n", opt_.spans_out.c_str());
      } else {
        std::printf("# could not write spans to %s\n", opt_.spans_out.c_str());
      }
    }
    // Layer self time over the traced ops, from the recorded spans.
    SpanLog::Times total;
    for (const std::uint32_t id : traced.op_id) {
      const auto op = times.find(id);
      if (op == times.end()) continue;
      for (const auto& [name, t] : op->second) {
        SpanLog::Time& acc = total[name];
        acc.total_s += t.total_s;
        acc.self_s += t.self_s;
        acc.count += t.count;
      }
    }
    const auto n = static_cast<double>(traced.op_id.size());
    for (const auto& [name, t] : total) {
      std::printf("# span %-28.*s per op: %10.6f s total, %10.6f s self, %8.1f calls\n",
                  static_cast<int>(name.size()), name.data(), t.total_s / n, t.self_s / n, static_cast<double>(t.count) / n);
    }
  }

  for (const std::string& n : notes_) std::printf("# %s\n", n.c_str());
  if (!mismatch.empty()) std::printf("# first mismatch: %s\n", mismatch.c_str());
  for (const Metric& m : metrics) {
    std::printf("%-26s %.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  return {failed == 0 && exact_ok_, attempted, failed, std::move(metrics)};
}

/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) os << ", ";
    os << '"' << metrics[i].name << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
       << metrics[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

}  // namespace

int pool_size() { return std::max(2, static_cast<int>(std::thread::hardware_concurrency() / 2)); }

Report measure(const Options& options) { return Bench(options).run(); }

int run(const Options& options) {
  if (!make_workload(options.workload, options.seed)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s' (himeno, nanopowder, msg_rate)\n",
                 options.workload.c_str());
    return 2;
  }
  const Report r = measure(options);
  std::printf("%s\n", result_json(r.correct, r.attempted, r.failed, r.metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace perfbench
