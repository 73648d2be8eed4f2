// A trace session installed for the traced phase of a run, and the
// per-layer readings taken from it: span self times, counters and
// latency-histogram sample counts the program already records.
#pragma once

#include <string>

#include "bench.hpp"
#include "obs/trace.hpp"

namespace perfbench {

class Traced {
 public:
  Traced() { quasar::obs::set_global_session(&session_); }
  ~Traced() { stop(); }
  Traced(const Traced&) = delete;
  Traced& operator=(const Traced&) = delete;

  /// Uninstalls the session; readings stay available.
  void stop() {
    if (active_) quasar::obs::set_global_session(nullptr);
    active_ = false;
  }
  /// Self seconds per "category/name" and per "category".
  SpanTotals spans() const;
  double counter(const char* name) const {
    return static_cast<double>(session_.counter_value(name));
  }
  /// Samples recorded into the named latency histogram.
  double histogram_count(const std::string& name) const;

 private:
  quasar::obs::TraceSession session_;
  bool active_ = true;
};

}  // namespace perfbench
