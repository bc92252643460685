#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iomanip>
#include <stdexcept>

namespace perfbench {

namespace {

double clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Ids of the spans open on this thread, innermost last.
thread_local std::vector<std::int64_t> open_spans;

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

Tracer::Tracer() : main_thread_(std::this_thread::get_id()) {}

std::uint32_t Tracer::thread_number() {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = threads_.try_emplace(
      std::this_thread::get_id(), static_cast<std::uint32_t>(threads_.size()));
  return it->second;
}

void Tracer::record(Span span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

double Tracer::total(const std::string& name) const {
  double sum = 0.0;
  for (const Span& span : spans_) {
    if (span.name == name) sum += span.duration();
  }
  return sum;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(span.duration());
  }
  return out;
}

std::map<std::int64_t, double> Tracer::per_incident(
    const std::string& name) const {
  std::map<std::int64_t, double> out;
  for (const Span& span : spans_) {
    if (span.name == name && span.incident >= 0) {
      out[span.incident] += span.duration();
    }
  }
  return out;
}

std::vector<LayerRow> Tracer::layer_table() const {
  // Child intervals per parent, merged so that children running in
  // parallel on several threads are not subtracted twice.
  std::map<std::int64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& span : spans_) {
    if (span.parent >= 0) children[span.parent].emplace_back(span.start, span.end);
  }
  std::map<std::string, LayerRow> rows;
  double self_total = 0.0;
  for (const Span& span : spans_) {
    double covered = 0.0;
    if (const auto it = children.find(span.id); it != children.end()) {
      auto intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      double cursor = span.start;
      for (auto [start, end] : intervals) {
        start = std::max(start, cursor);
        end = std::min(end, span.end);
        if (end > start) {
          covered += end - start;
          cursor = end;
        }
      }
    }
    LayerRow& row = rows[span.name];
    row.name = span.name;
    ++row.count;
    row.wall += span.duration();
    row.self += std::max(0.0, span.duration() - covered);
    row.cpu += span.cpu;
    self_total += std::max(0.0, span.duration() - covered);
  }
  std::vector<LayerRow> out;
  for (auto& [name, row] : rows) {
    row.share = self_total > 0.0 ? row.self / self_total : 0.0;
    out.push_back(row);
  }
  std::sort(out.begin(), out.end(), [](const LayerRow& a, const LayerRow& b) {
    return a.self > b.self;
  });
  return out;
}

void Tracer::print_layer_table(std::ostream& out,
                               const std::string& title) const {
  out << "layer table: " << title << "\n";
  out << "  " << std::left << std::setw(28) << "span" << std::right
      << std::setw(8) << "count" << std::setw(12) << "wall_s"
      << std::setw(12) << "self_s" << std::setw(12) << "cpu_s"
      << std::setw(9) << "share" << "\n";
  for (const LayerRow& row : layer_table()) {
    out << "  " << std::left << std::setw(28) << row.name << std::right
        << std::setw(8) << row.count << std::fixed << std::setprecision(4)
        << std::setw(12) << row.wall << std::setw(12) << row.self
        << std::setw(12) << row.cpu << std::setprecision(1) << std::setw(8)
        << row.share * 100.0 << "%\n";
  }
  out.unsetf(std::ios::fixed);
  out << std::setprecision(6);
}

void write_chrome_json(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& meta,
    const std::vector<const Tracer*>& tracers) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace: " + path);
  double epoch = 0.0;
  bool any = false;
  for (const Tracer* tracer : tracers) {
    for (const Span& span : tracer->spans()) {
      epoch = any ? std::min(epoch, span.start) : span.start;
      any = true;
    }
  }
  out << std::setprecision(15);
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{";
  for (std::size_t i = 0; i < meta.size(); ++i) {
    out << (i ? "," : "") << '"' << json_escape(meta[i].first) << "\":\""
        << json_escape(meta[i].second) << '"';
  }
  out << "},\"traceEvents\":[";
  bool first = true;
  for (std::size_t pid = 0; pid < tracers.size(); ++pid) {
    for (const Span& span : tracers[pid]->spans()) {
      out << (first ? "\n" : ",\n") << "{\"name\":\"" << json_escape(span.name)
          << "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":" << pid + 1
          << ",\"tid\":" << span.thread
          << ",\"ts\":" << (span.start - epoch) * 1e6
          << ",\"dur\":" << span.duration() * 1e6 << ",\"args\":{\"id\":"
          << span.id << ",\"parent\":" << span.parent
          << ",\"incident\":" << span.incident
          << ",\"cpu_us\":" << span.cpu * 1e6 << "}}";
      first = false;
    }
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("cannot write trace: " + path);
}

Scope::Scope(Tracer* tracer, const char* name, std::int64_t incident,
             std::int64_t parent)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  span_.name = name;
  span_.id = tracer_->next_id();
  span_.parent = parent != Tracer::kInnermost
                     ? parent
                     : (open_spans.empty() ? -1 : open_spans.back());
  span_.incident = incident;
  span_.thread = tracer_->thread_number();
  main_ = tracer_->on_main_thread();
  open_spans.push_back(span_.id);
  cpu_start_ = main_ ? process_cpu_s() : thread_cpu_s();
  span_.start = wall_s();
}

Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.end = wall_s();
  span_.cpu = (main_ ? process_cpu_s() : thread_cpu_s()) - cpu_start_;
  open_spans.pop_back();
  tracer_->record(std::move(span_));
}

}  // namespace perfbench
