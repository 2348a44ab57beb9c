// In-memory span recorder for the traced run. The benchmark opens a span
// around each public call it makes into a layer; spans nest by call order on
// the benchmark's own thread, so a layer's self time is its span minus its
// direct children. Spans stay in memory until the run ends, then become
// per-layer statistics and a Chrome trace_event file.
#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  using NameId = uint32_t;

  /// Interns a span name; call once per name, outside the timed loop.
  NameId Name(const std::string& name);

  /// Spans opened until the next call carry `request` (0 = none), the id
  /// shared by every span of one window or update.
  void SetRequest(uint64_t request) { request_ = request; }

  uint32_t Begin(NameId name);
  void End(uint32_t span);

  class Scope {
   public:
    /// A null tracer makes the scope a no-op, so one code path serves the
    /// traced and the untraced timing of the same decomposition.
    Scope(Tracer* tracer, NameId name)
        : tracer_(tracer), span_(tracer ? tracer->Begin(name) : 0) {}
    ~Scope() {
      if (tracer_ != nullptr) tracer_->End(span_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    uint32_t span_;
  };

  /// Self time (span minus direct children) of every closed span, grouped
  /// by name, in microseconds.
  std::map<std::string, std::vector<double>> SelfTimesUs() const;
  /// Whole-span durations, grouped by name, in microseconds.
  std::map<std::string, std::vector<double>> DurationsUs() const;

  size_t num_spans() const { return spans_.size(); }

  /// Writes the spans as Chrome trace_event JSON (B/E pairs on one track,
  /// request ids in args). Only whole root trees among the first
  /// `max_spans` spans are written, to bound the file size.
  bool WriteChromeTrace(const std::string& path, size_t max_spans) const;

 private:
  struct Span {
    NameId name;
    int32_t parent;
    uint64_t request;
    uint64_t begin_ns;
    uint64_t end_ns;
    uint64_t child_ns;  ///< summed durations of direct children
  };

  std::vector<std::string> names_;
  std::unordered_map<std::string, NameId> name_ids_;
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
  uint64_t request_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
