// Span recorder for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own code around calls into the
// program's layers (no instrumentation inside the program). Each span has a
// name, a start, an end and the index of the span that was open when it
// began. Spans stay in memory until the run ends and are then written out
// as JSON lines.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    [[nodiscard]] double seconds() const { return (end_ns - start_ns) * 1e-9; }
  };

  // RAII span; a null tracer records nothing.
  class Scope {
   public:
    Scope(Tracer* t, std::string name) : t_(t) {
      if (t_ != nullptr) id_ = t_->begin(std::move(name));
    }
    ~Scope() {
      if (t_ != nullptr) t_->end(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int id_ = -1;
  };

  int begin(std::string name) {
    spans_.push_back({std::move(name), now_ns(), 0, open_});
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }
  void end(int id) {
    spans_[id].end_ns = now_ns();
    open_ = spans_[id].parent;
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

  // Summed duration of spans named `name` recorded at index >= from.
  [[nodiscard]] double total(const std::string& name, std::size_t from = 0) const {
    double s = 0;
    for (std::size_t i = from; i < spans_.size(); ++i)
      if (spans_[i].name == name) s += spans_[i].seconds();
    return s;
  }
  // Summed self time (duration minus direct children) of spans named
  // `name` recorded at index >= from.
  [[nodiscard]] double self(const std::string& name, std::size_t from = 0) const {
    double s = 0;
    for (std::size_t i = from; i < spans_.size(); ++i) {
      if (spans_[i].name != name) continue;
      s += spans_[i].seconds() - children_seconds(static_cast<int>(i));
    }
    return s;
  }
  [[nodiscard]] double children_seconds(int parent) const {
    double s = 0;
    for (std::size_t j = static_cast<std::size_t>(parent) + 1; j < spans_.size(); ++j)
      if (spans_[j].parent == parent) s += spans_[j].seconds();
    return s;
  }

  void write_jsonl(const std::string& path) const {
    std::ofstream os(path, std::ios::trunc);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << "{\"id\":" << i << ",\"name\":\"" << s.name
         << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
         << ",\"parent\":" << s.parent << "}\n";
    }
  }

 private:
  std::vector<Span> spans_;
  int open_ = -1;
};

}  // namespace perfbench
