#include "bench.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace perfbench {

std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = seed ^ (a * 0x9e3779b97f4a7c15ULL) ^ (b * 0xc2b2ae3d27d4eb4fULL);
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(
      values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lower + upper) / 2;
}

Tracer::Tracer(Clock::time_point origin, int ranks)
    : origin_(origin), lists_(static_cast<std::size_t>(ranks) + 1) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
      .count();
}

Tracer::Ref Tracer::begin(int list, const char* name, Ref parent) {
  auto& spans = lists_[static_cast<std::size_t>(list)];
  spans.push_back(Span{name, now_ns(), -1, parent});
  return Ref{list, static_cast<int>(spans.size()) - 1};
}

void Tracer::end(Ref ref) {
  lists_[static_cast<std::size_t>(ref.list)][static_cast<std::size_t>(ref.index)].end_ns =
      now_ns();
}

std::vector<double> Tracer::durations(const char* name) const {
  std::vector<double> out;
  for (const auto& spans : lists_) {
    for (const auto& s : spans) {
      if (s.end_ns >= 0 && std::strcmp(s.name, name) == 0) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
      }
    }
  }
  return out;
}

std::size_t Tracer::span_count() const {
  std::size_t n = 0;
  for (const auto& spans : lists_) n += spans.size();
  return n;
}

void Tracer::write_chrome_json(const std::string& path) const {
  // Span id: list * 2^32 + index, unique across lists; parent 0 = none.
  const auto id_of = [](Ref ref) -> std::uint64_t {
    if (ref.list < 0) return 0;
    return (static_cast<std::uint64_t>(ref.list) << 32) +
           static_cast<std::uint64_t>(ref.index) + 1;
  };
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  char buf[256];
  for (std::size_t l = 0; l < lists_.size(); ++l) {
    for (std::size_t i = 0; i < lists_[l].size(); ++i) {
      const Span& s = lists_[l][i];
      if (s.end_ns < 0) continue;
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%zu,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu}}",
                    first ? "" : ",\n", s.name, l, static_cast<double>(s.start_ns) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                    static_cast<unsigned long long>(
                        id_of(Ref{static_cast<int>(l), static_cast<int>(i)})),
                    static_cast<unsigned long long>(id_of(s.parent)));
      out << buf;
      first = false;
    }
  }
  out << "]}\n";
}

Clock::time_point RankTimes::last_entry() const {
  return *std::max_element(entry_.begin(), entry_.end());
}

Clock::time_point RankTimes::first_exit() const {
  return *std::min_element(exit_.begin(), exit_.end());
}

double RankTimes::median_app_s() const {
  std::vector<double> apps;
  apps.reserve(entry_.size());
  for (std::size_t r = 0; r < entry_.size(); ++r) {
    apps.push_back(seconds_between(entry_[r], exit_[r]));
  }
  return median(std::move(apps));
}

}  // namespace perfbench
