#include "traced.hpp"

#include <algorithm>
#include <map>
#include <vector>

#include "obs/histogram.hpp"

namespace perfbench {

SpanTotals Traced::spans() const {
  std::map<int, std::vector<quasar::obs::SpanEvent>> by_thread;
  for (const quasar::obs::SpanEvent& e : session_.spans()) {
    by_thread[e.thread].push_back(e);
  }
  SpanTotals totals;
  for (auto& [thread, events] : by_thread) {
    // Begin order with the outer span first on ties; a span's parent is
    // the innermost open span one level up on the same thread.
    std::stable_sort(events.begin(), events.end(),
                     [](const auto& a, const auto& b) {
                       return a.begin_ns != b.begin_ns
                                  ? a.begin_ns < b.begin_ns
                                  : a.depth < b.depth;
                     });
    std::vector<double> child_s(events.size(), 0.0);
    std::vector<std::size_t> open;
    for (std::size_t i = 0; i < events.size(); ++i) {
      while (!open.empty() && events[open.back()].depth >= events[i].depth) {
        open.pop_back();
      }
      const double dur = (events[i].end_ns - events[i].begin_ns) * 1e-9;
      if (!open.empty()) child_s[open.back()] += dur;
      open.push_back(i);
    }
    for (std::size_t i = 0; i < events.size(); ++i) {
      const double dur = (events[i].end_ns - events[i].begin_ns) * 1e-9;
      const std::string category = events[i].category;
      const std::string full = category + "/" + events[i].name;
      totals.self_s[category] += dur - child_s[i];
      totals.self_s[full] += dur - child_s[i];
    }
  }
  return totals;
}

double Traced::histogram_count(const std::string& name) const {
  for (const quasar::obs::HistogramSnapshot& h : session_.histograms()) {
    if (h.name == name) return static_cast<double>(h.count);
  }
  return 0.0;
}

}  // namespace perfbench
