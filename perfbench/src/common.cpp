#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "runtime/trace.hpp"

namespace perfbench {

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
      if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
    } else if (key == "--trace") {
      if (val != "0" && val != "1") throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = val == "1";
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return a;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

LatencySummary summarize(const std::vector<double>& samples, double tail_q) {
  LatencySummary s;
  s.count = static_cast<int64_t>(samples.size());
  if (static_cast<double>(s.count) * (1.0 - tail_q) < 10.0 - 1e-9) {
    throw std::runtime_error("summarize: " + std::to_string(s.count) +
                             " samples leave fewer than ten beyond the tail percentile "
                             "(a longer --seconds gives more)");
  }
  s.p50 = percentile(samples, 0.5);
  s.tail = percentile(samples, tail_q);
  s.tail_q = tail_q;
  return s;
}

double pooled_rate(const std::vector<std::vector<double>>& bursts_ms) {
  double events = 0.0, span_ms = 0.0;
  for (const auto& b : bursts_ms) {
    if (b.empty()) continue;
    events += static_cast<double>(b.size());
    span_ms += *std::max_element(b.begin(), b.end());
  }
  return span_ms > 0.0 ? events / (span_ms / 1000.0) : 0.0;
}

uint64_t mix_seed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<double> poisson_schedule_ms(double rps, double duration_ms, uint64_t seed) {
  if (!(rps > 0.0)) throw std::invalid_argument("poisson_schedule_ms: rps must be > 0");
  std::vector<double> out;
  uint64_t state = seed;
  double t = 0.0;
  for (;;) {
    state = mix_seed(state, 0);
    // 53 random bits -> u in (0, 1].
    const double u = (static_cast<double>(state >> 11) + 1.0) * 0x1.0p-53;
    t += -std::log(u) * 1000.0 / rps;
    if (t >= duration_ms) break;
    out.push_back(t);
  }
  return out;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name.front()))) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.' || c == '-';
  });
}

std::string format_number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

void Result::metric(const std::string& name, double value, const std::string& unit) {
  if (!valid_metric_name(name)) throw std::logic_error("bad metric name '" + name + "'");
  if (!std::isfinite(value)) throw std::runtime_error("metric '" + name + "' is not finite");
  if (!metrics_.emplace(name, std::make_pair(value, unit)).second) {
    throw std::logic_error("metric '" + name + "' reported twice");
  }
}

void Result::fail(const std::string& why) {
  std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
  failures_.push_back(why);
}

std::string Result::json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max<int64_t>(1, attempted));
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + format_number(vu.first) + ", \"unit\": \"" +
           vu.second + "\"}";
  }
  out += "}}";
  return out;
}

// ------------------------------------------------------------- Tracer

namespace {

uint32_t bench_tid() {
  static std::mutex mu;
  static uint32_t next = 0;
  thread_local uint32_t id = [] {
    const std::lock_guard<std::mutex> lock(mu);
    return next++;
  }();
  return id;
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer t;
  return t;
}

int64_t Tracer::begin(const std::string& name, int64_t parent, int64_t request) {
  if (!enabled()) return 0;
  Span s;
  s.name = name;
  s.ts_us = ndsnn::runtime::trace::now_us();
  s.parent = parent;
  s.request = request;
  s.tid = bench_tid();
  const std::lock_guard<std::mutex> lock(mu_);
  s.id = next_id_++;
  open_[s.id] = spans_.size();
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Tracer::end(int64_t id) {
  if (id == 0) return;
  const double now = ndsnn::runtime::trace::now_us();
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = open_.find(id);
  if (it == open_.end()) return;
  Span& s = spans_[it->second];
  s.dur_us = now - s.ts_us;
  open_.erase(it);
}

std::vector<Tracer::Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, double> Tracer::total_ms() const {
  std::map<std::string, double> out;
  for (const auto& s : spans()) out[s.name] += s.dur_us / 1000.0;
  return out;
}

std::map<std::string, double> Tracer::self_ms() const {
  const std::vector<Span> all = spans();
  std::map<int64_t, double> child_us;
  for (const auto& s : all) {
    if (s.parent != 0) child_us[s.parent] += s.dur_us;
  }
  std::map<std::string, double> out;
  for (const auto& s : all) {
    const auto it = child_us.find(s.id);
    out[s.name] += (s.dur_us - (it == child_us.end() ? 0.0 : it->second)) / 1000.0;
  }
  return out;
}

namespace {
/// Chrome trace row of benchmark thread 0, past the runtime's rows.
constexpr uint32_t kBenchTidBase = 1000;
}  // namespace

void finish_trace(const std::string& workload, uint64_t seed) {
  Tracer& t = Tracer::instance();
  const auto self = t.self_ms();
  const auto total = t.total_ms();
  std::fprintf(stderr, "\nper-span time (benchmark-side spans), ms:\n%-34s %12s %12s\n",
               "span", "total", "self");
  for (const auto& [name, ms] : total) {
    std::fprintf(stderr, "%-34s %12.3f %12.3f\n", name.c_str(), ms, self.at(name));
  }
  std::filesystem::create_directories(".bench_out");
  const std::string path =
      ".bench_out/trace_" + workload + "_" + std::to_string(seed) + ".json";
  // The benchmark's spans go in beside the runtime's own op/phase spans,
  // as category "bench" on rows of their own.
  std::vector<ndsnn::runtime::trace::Span> all = ndsnn::runtime::trace::snapshot();
  for (const auto& s : t.spans()) {
    ndsnn::runtime::trace::Span r;
    r.name = s.name;
    r.cat = "bench";
    r.ts_us = s.ts_us;
    r.dur_us = s.dur_us;
    r.tid = kBenchTidBase + s.tid;
    r.kind = "id=" + std::to_string(s.id) + " parent=" + std::to_string(s.parent) +
             " request=" + std::to_string(s.request);
    all.push_back(std::move(r));
  }
  std::ofstream(path) << ndsnn::runtime::trace::chrome_json(all);
  std::fprintf(stderr, "chrome trace: %s (%lld runtime spans dropped)\n", path.c_str(),
               static_cast<long long>(ndsnn::runtime::trace::dropped()));
}

// -------------------------------------------------------------- machine

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

Roofline measure_roofline() {
  Roofline r;
  {
    // Buffers the size of the served model's activations (a few hundred
    // KiB), so the roof is the cache level the ops actually stream from.
    const std::size_t n = std::size_t{256} << 10;
    const int reps = 400;
    std::vector<char> a(n, 1), b(n, 2);
    std::vector<double> gbps;
    for (int rep = 0; rep < 5; ++rep) {
      const auto t0 = Clock::now();
      for (int k = 0; k < reps; ++k) {
        std::memcpy(b.data(), a.data(), n);
        a[static_cast<std::size_t>(k)] = b[n - 1 - static_cast<std::size_t>(k)];
      }
      const double s = ms_between(t0, Clock::now()) / 1000.0;
      gbps.push_back(2.0 * static_cast<double>(n) * reps / s / 1e9);  // read + write
    }
    r.copy_gbps = median(gbps);
  }
  {
    // saxpy over an L1-resident vector: the achievable fp32 MAC rate of
    // the same vector units the op kernels use.
    const std::size_t n = 2048;
    std::vector<float> x(n, 1.0001F), y(n, 0.0F);
    const float a = 0.999F;
    const int reps = 20000;
    std::vector<double> rates;
    for (int rep = 0; rep < 5; ++rep) {
      const auto t0 = Clock::now();
      for (int k = 0; k < reps; ++k) {
        float* __restrict yp = y.data();
        const float* __restrict xp = x.data();
        for (std::size_t i = 0; i < n; ++i) yp[i] = yp[i] + a * xp[i];
      }
      const double s = ms_between(t0, Clock::now()) / 1000.0;
      rates.push_back(static_cast<double>(n) * reps / s / 1e9);
    }
    volatile float sink = y[n / 2];
    (void)sink;
    r.mac_gmacs = median(rates);
  }
  return r;
}

}  // namespace perfbench
