#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <thread>
#include <utility>

namespace lanebench {

namespace {
std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Open spans of this thread, innermost last, tagged with their tracer so
// that two tracers on one thread never adopt each other's spans.
thread_local std::vector<std::pair<const Tracer*, int>> t_open;

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}
}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_ns_(now_ns()) {}

Tracer::Scope::Scope(Tracer& tracer, const char* name, int op)
    : tracer_(tracer) {
  if (tracer_.enabled_) id_ = tracer_.begin(name, op);
}

Tracer::Scope::~Scope() {
  if (id_ >= 0) tracer_.end(id_);
}

int Tracer::begin(const char* name, int op) {
  const std::uint64_t self =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  int parent = -1;
  for (auto it = t_open.rbegin(); it != t_open.rend(); ++it) {
    if (it->first == this) {
      parent = it->second;
      break;
    }
  }
  int id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.name = name;
    s.parent = parent;
    s.op = op >= 0 || parent < 0 ? op : spans_[parent].op;
    const auto it = std::find(tids_.begin(), tids_.end(), self);
    s.tid = static_cast<int>(it - tids_.begin());
    if (it == tids_.end()) tids_.push_back(self);
    id = static_cast<int>(spans_.size());
    spans_.push_back(std::move(s));
    spans_.back().start_ns = now_ns() - origin_ns_;
  }
  t_open.emplace_back(this, id);
  return id;
}

void Tracer::end(int id) {
  const std::int64_t t = now_ns() - origin_ns_;
  const auto open = std::find(t_open.rbegin(), t_open.rend(),
                              std::make_pair(static_cast<const Tracer*>(this), id));
  if (open != t_open.rend()) t_open.erase(std::next(open).base());
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::write_chrome_json(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write trace " + path);
  std::fprintf(f, "{\"traceEvents\":[");
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"op\":%d}}",
                 i == 0 ? "" : ",", json_escape(s.name).c_str(), s.tid,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
                 s.op);
  }
  std::fprintf(f, "\n],\"displayTimeUnit\":\"ms\"}\n");
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write trace " + path);
}

std::int64_t self_ns(const std::vector<Span>& spans, int i) {
  const Span& p = spans[static_cast<std::size_t>(i)];
  std::vector<std::pair<std::int64_t, std::int64_t>> kids;
  for (const Span& s : spans) {
    if (s.parent != i) continue;
    const std::int64_t a = std::max(s.start_ns, p.start_ns);
    const std::int64_t b = std::min(s.end_ns, p.end_ns);
    if (b > a) kids.emplace_back(a, b);
  }
  std::sort(kids.begin(), kids.end());
  std::int64_t covered = 0;
  std::int64_t reach = p.start_ns;
  for (const auto& [a, b] : kids) {
    const std::int64_t from = std::max(a, reach);
    if (b > from) covered += b - from;
    reach = std::max(reach, b);
  }
  return (p.end_ns - p.start_ns) - covered;
}

double unattributed_pct(const std::vector<Span>& spans, int i) {
  const Span& p = spans[static_cast<std::size_t>(i)];
  const std::int64_t dur = p.end_ns - p.start_ns;
  if (dur <= 0) return 0.0;
  return 100.0 * static_cast<double>(self_ns(spans, i)) /
         static_cast<double>(dur);
}

}  // namespace lanebench
