#include "spans.hpp"

#include <algorithm>
#include <fstream>
#include <unordered_map>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Lane::begin(const char* name) {
  // Lane index in the top 16 bits keeps ids unique across lanes without
  // any shared counter.
  const std::uint64_t id =
      (static_cast<std::uint64_t>(lane_ + 2) << 48) | ++next_seq_;
  Span s;
  s.name = name;
  s.id = id;
  s.parent = stack_.empty() ? root_parent_ : stack_.back();
  s.op = log_->op();
  s.lane = lane_;
  s.start_ns = now_ns();
  open_.push_back(spans_.size());
  spans_.push_back(s);
  stack_.push_back(id);
}

void Lane::end() {
  spans_[open_.back()].end_ns = now_ns();
  open_.pop_back();
  stack_.pop_back();
}

void SpanLog::start_op(std::uint32_t op, int nranks) {
  op_ = op;
  lane(nranks - 1);  // materialize every rank lane before ranks run
  for (auto& l : lanes_) l->root_parent_ = 0;
}

Lane& SpanLog::lane(int r) {
  const auto index = static_cast<std::size_t>(r + 1);
  while (lanes_.size() <= index) {
    lanes_.push_back(std::unique_ptr<Lane>(
        new Lane(this, static_cast<std::int32_t>(lanes_.size()) - 1)));
  }
  return *lanes_[index];
}

std::vector<Span> SpanLog::spans() const {
  std::vector<Span> all;
  for (const auto& l : lanes_) all.insert(all.end(), l->spans_.begin(), l->spans_.end());
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.op != b.op ? a.op < b.op : a.start_ns < b.start_ns;
  });
  return all;
}

std::map<std::uint32_t, SpanLog::Times> SpanLog::times() const {
  auto seconds = [](const Span& s) { return static_cast<double>(s.end_ns - s.start_ns) * 1e-9; };
  std::unordered_map<std::uint64_t, const Span*> by_id;
  for (const auto& l : lanes_) {
    for (const Span& s : l->spans_) by_id.emplace(s.id, &s);
  }
  // Children on the same lane nest and never overlap; rank bodies under the
  // host's Cluster::run overlap each other, so only same-lane children count
  // against their parent's self time.
  std::unordered_map<std::uint64_t, double> covered;
  for (const auto& [id, s] : by_id) {
    if (const auto it = by_id.find(s->parent); it != by_id.end() && it->second->lane == s->lane) {
      covered[s->parent] += seconds(*s);
    }
  }
  std::map<std::uint32_t, Times> out;
  for (const auto& [id, s] : by_id) {
    Time& t = out[s->op][s->name];
    const double d = seconds(*s);
    t.total_s += d;
    ++t.count;
    const auto it = covered.find(id);
    t.self_s += d - (it == covered.end() ? 0.0 : it->second);
  }
  return out;
}

bool SpanLog::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "id,parent,op,lane,name,start_ns,end_ns\n";
  for (const Span& s : spans()) {
    out << s.id << ',' << s.parent << ',' << s.op << ',' << s.lane << ',' << s.name << ','
        << s.start_ns << ',' << s.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
