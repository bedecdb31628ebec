#include "src/obs/trace.hpp"

#include "src/common/types.hpp"

namespace rtlb {

namespace {

/// Counters accumulate by name within one span.
void accumulate(std::vector<TraceCounter>& counters, std::string_view name,
                std::int64_t delta) {
  for (TraceCounter& c : counters) {
    if (c.name == name) {
      c.value += delta;
      return;
    }
  }
  counters.push_back(TraceCounter{std::string(name), delta});
}

void write_counters(JsonWriter& w, const std::vector<TraceCounter>& counters) {
  w.begin_object();
  for (const TraceCounter& c : counters) w.field(c.name, c.value);
  w.end_object();
}

}  // namespace

std::uint64_t Trace::now_ns() const {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - epoch_)
                                        .count());
}

int Trace::begin_span(std::string_view name) {
  TraceSpan span;
  span.name = std::string(name);
  span.start_ns = now_ns();
  span.parent = open_.empty() ? -1 : open_.back();
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(std::move(span));
  open_.push_back(index);
  return index;
}

void Trace::end_span(int index) {
  RTLB_CHECK(!open_.empty() && open_.back() == index,
             "Trace::end_span: spans must close in LIFO order");
  TraceSpan& span = spans_[static_cast<std::size_t>(index)];
  span.dur_ns = now_ns() - span.start_ns;
  open_.pop_back();
}

void Trace::count(std::string_view name, std::int64_t delta) {
  if (open_.empty()) {
    accumulate(root_counters_, name, delta);
  } else {
    accumulate(spans_[static_cast<std::size_t>(open_.back())].counters, name, delta);
  }
}

void Trace::clear() {
  RTLB_CHECK(open_.empty(), "Trace::clear: spans still open");
  spans_.clear();
  root_counters_.clear();
}

JsonRender Trace::json() const {
  return JsonRender([this](JsonWriter& w) {
    w.begin_object().key("spans").begin_array();
    for (const TraceSpan& s : spans_) {
      // Same endpoint-derived rounding as chrome_json(), so nesting stays
      // exact in the integer microseconds consumers see.
      const std::int64_t start = static_cast<std::int64_t>(s.start_ns / 1000);
      const std::int64_t end = static_cast<std::int64_t>((s.start_ns + s.dur_ns) / 1000);
      w.begin_object()
          .field("name", s.name)
          .field("start_us", start)
          .field("dur_us", end - start)
          .field("parent", s.parent);
      if (!s.counters.empty()) write_counters(w.key("counters"), s.counters);
      w.end_object();
    }
    w.end_array();
    write_counters(w.key("counters"), root_counters_);
    w.end_object();
  });
}

JsonRender Trace::chrome_json() const {
  return JsonRender([this](JsonWriter& w) {
    w.begin_object().key("traceEvents").begin_array();
    for (const TraceSpan& s : spans_) {
      // ts and dur are truncated to whole microseconds; deriving dur from the
      // truncated ENDPOINTS (rather than truncating dur_ns itself) keeps
      // nesting exact after rounding -- a child that closed before its parent
      // in nanoseconds can never overshoot the parent's envelope in the
      // emitted integers (tools/trace_validate checks this).
      const std::int64_t ts = static_cast<std::int64_t>(s.start_ns / 1000);
      const std::int64_t end = static_cast<std::int64_t>((s.start_ns + s.dur_ns) / 1000);
      w.begin_object()
          .field("name", s.name)
          .field("cat", "rtlb")
          .field("ph", "X")
          .field("ts", ts)
          .field("dur", end - ts)
          .field("pid", 1)
          .field("tid", 1);
      if (!s.counters.empty()) write_counters(w.key("args"), s.counters);
      w.end_object();
    }
    w.end_array().field("displayTimeUnit", "ms").end_object();
  });
}

}  // namespace rtlb
