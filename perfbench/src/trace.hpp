// Spans recorded by the benchmark around its calls into spooftrack's
// layers. The program itself is not instrumented: each span covers one call
// into a layer's public function, made from the benchmark's own code.
//
// A span has a name, a start and an end (steady clock), the span that
// caused it, an optional incident id, and the CPU time spent in it. Spans
// opened on the main thread charge process CPU time, so a call that fans
// out over the library's worker pools is charged for all of its threads;
// spans opened on a worker thread charge that thread's CPU time only.
// Spans are kept in memory and written out once, as Chrome trace-event
// JSON (chrome://tracing, Perfetto).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

double wall_s();          // steady clock, seconds
double process_cpu_s();   // CPU time of every thread of the process
double thread_cpu_s();    // CPU time of the calling thread

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  double cpu = 0.0;
  std::int64_t id = -1;
  std::int64_t parent = -1;
  std::int64_t incident = -1;
  std::uint32_t thread = 0;

  double duration() const noexcept { return end - start; }
};

/// One row of the layer table: every span of one name.
struct LayerRow {
  std::string name;
  std::size_t count = 0;
  double wall = 0.0;   // summed span durations
  double self = 0.0;   // wall minus the time child spans cover
  double cpu = 0.0;
  /// self / summed self time of every span. Spans on worker threads add
  /// their own busy time, so a parallel layer's share is its share of the
  /// work, not of the elapsed time.
  double share = 0.0;
};

class Tracer {
 public:
  Tracer();

  /// Parent marker: use the innermost span open on the calling thread.
  static constexpr std::int64_t kInnermost = -2;

  std::int64_t next_id() noexcept { return next_id_.fetch_add(1); }
  bool on_main_thread() const noexcept {
    return std::this_thread::get_id() == main_thread_;
  }
  std::uint32_t thread_number();
  void record(Span span);

  /// Spans recorded so far (call once recording has stopped).
  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Summed duration of every span called `name`.
  double total(const std::string& name) const;
  /// Durations of every span called `name`, in recording order.
  std::vector<double> durations(const std::string& name) const;
  /// Per incident id: summed duration of its spans called `name`.
  std::map<std::int64_t, double> per_incident(const std::string& name) const;

  std::vector<LayerRow> layer_table() const;
  void print_layer_table(std::ostream& out, const std::string& title) const;

 private:
  std::thread::id main_thread_;
  std::atomic<std::int64_t> next_id_{0};
  std::mutex mutex_;  // guards spans_ and threads_
  std::vector<Span> spans_;
  std::map<std::thread::id, std::uint32_t> threads_;
};

/// Writes the spans of every tracer as Chrome trace-event "X" events, one
/// trace process per tracer; `meta` lands in the file's otherData object.
void write_chrome_json(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& meta,
    const std::vector<const Tracer*>& tracers);

/// RAII span. A null tracer makes it a no-op, so traced and untraced runs
/// execute the same code.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, std::int64_t incident = -1,
        std::int64_t parent = Tracer::kInnermost);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// This span's id (-1 when untraced), for children on other threads.
  std::int64_t id() const noexcept { return span_.id; }

 private:
  Tracer* tracer_;
  Span span_;
  bool main_ = false;
  double cpu_start_ = 0.0;
};

}  // namespace perfbench
