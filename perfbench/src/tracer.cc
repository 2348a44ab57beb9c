#include "tracer.h"

#include <cstdio>

#include "common.h"

namespace perfbench {

Tracer::NameId Tracer::Name(const std::string& name) {
  auto it = name_ids_.find(name);
  if (it != name_ids_.end()) return it->second;
  const NameId id = static_cast<NameId>(names_.size());
  names_.push_back(name);
  name_ids_.emplace(name, id);
  return id;
}

uint32_t Tracer::Begin(NameId name) {
  const uint32_t index = static_cast<uint32_t>(spans_.size());
  const int32_t parent =
      open_.empty() ? -1 : static_cast<int32_t>(open_.back());
  spans_.push_back(Span{name, parent, request_, NowNs(), 0, 0});
  open_.push_back(index);
  return index;
}

void Tracer::End(uint32_t span) {
  Span& s = spans_[span];
  s.end_ns = NowNs();
  if (!open_.empty() && open_.back() == span) open_.pop_back();
  if (s.parent >= 0) spans_[s.parent].child_ns += s.end_ns - s.begin_ns;
}

std::map<std::string, std::vector<double>> Tracer::SelfTimesUs() const {
  std::map<std::string, std::vector<double>> out;
  for (const Span& s : spans_) {
    if (s.end_ns == 0) continue;
    const uint64_t total = s.end_ns - s.begin_ns;
    const uint64_t self = total > s.child_ns ? total - s.child_ns : 0;
    out[names_[s.name]].push_back(static_cast<double>(self) * 1e-3);
  }
  return out;
}

std::map<std::string, std::vector<double>> Tracer::DurationsUs() const {
  std::map<std::string, std::vector<double>> out;
  for (const Span& s : spans_) {
    if (s.end_ns == 0) continue;
    out[names_[s.name]].push_back(static_cast<double>(s.end_ns - s.begin_ns) *
                                  1e-3);
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path, size_t max_spans) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const uint64_t origin = spans_.empty() ? 0 : spans_.front().begin_ns;
  auto ts = [&](uint64_t ns) {
    return static_cast<double>(ns - origin) * 1e-3;
  };
  bool first = true;
  auto emit = [&](const Span& s, char ph, uint64_t at) {
    std::fprintf(f,
                 "%s\n{\"name\": %s, \"cat\": \"perfbench\", \"ph\": \"%c\", "
                 "\"ts\": %.3f, \"pid\": 1, \"tid\": 1, \"args\": "
                 "{\"request\": %llu}}",
                 first ? "" : ",", JsonString(names_[s.name]).c_str(), ph,
                 ts(at), static_cast<unsigned long long>(s.request));
    first = false;
  };
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [");
  std::vector<uint32_t> stack;
  for (uint32_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns == 0) continue;
    if (s.parent < 0 && i >= max_spans) break;
    // Spans nest by call order on one thread: everything above the parent
    // on the stack has already ended.
    while (!stack.empty() && static_cast<int32_t>(stack.back()) != s.parent) {
      emit(spans_[stack.back()], 'E', spans_[stack.back()].end_ns);
      stack.pop_back();
    }
    emit(s, 'B', s.begin_ns);
    stack.push_back(i);
  }
  while (!stack.empty()) {
    emit(spans_[stack.back()], 'E', spans_[stack.back()].end_ns);
    stack.pop_back();
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
