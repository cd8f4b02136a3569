#include "serving.hpp"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>

#include "metric_names.hpp"
#include "runtime/trace.hpp"

namespace perfbench {

ServeStack::ServeStack(const ndsnn::nn::SpikingNetwork& net, const std::string& model)
    : model_(model) {
  ndsnn::serve::RegistryOptions ropts;
  ropts.executor_threads = kExecutorThreads;
  registry_ = std::make_unique<ndsnn::serve::ModelRegistry>(ropts);
  registry_->add(model, [&net](const ndsnn::runtime::CompileOptions& opts) {
    return ndsnn::runtime::CompiledNetwork::compile(net, opts);
  });
  (void)registry_->acquire(model);  // load (compile) now, inside set-up
  ndsnn::serve::ServerOptions sopts;
  sopts.default_model = model;
  server_ = std::make_unique<ndsnn::serve::Server>(*registry_, sopts);
  server_->start();
}

ServeStack::~ServeStack() {
  server_->stop();
  server_.reset();
  registry_.reset();
}

ndsnn::runtime::ExecutorStats ServeStack::executor_stats() {
  return registry_->acquire(model_)->executor().stats();
}

Connection::Connection(uint16_t port) : fd_(ndsnn::serve::connect_local(port)) {}
Connection::~Connection() { ::close(fd_); }

namespace {
/// How long before a due time the sender stops sleeping and spins.
constexpr auto kSpin = std::chrono::microseconds(300);
}  // namespace

std::vector<Outcome> open_loop(const std::vector<int>& fds, const std::vector<Planned>& plan,
                               const FrameEncoder& encode, const ResponseCheck& check,
                               std::size_t window, bool span) {
  namespace serve = ndsnn::serve;
  struct Inflight {
    std::size_t index;
    Clock::time_point due;
    int64_t span_id;
  };
  std::vector<Outcome> out(plan.size());
  std::mutex mu;
  std::condition_variable answered_cv;  // an in-flight frame was answered or failed
  std::vector<std::deque<Inflight>> inflight(fds.size());
  std::vector<bool> dead(fds.size(), false);
  std::size_t sent = 0;  // guarded by mu
  bool sender_done = false;

  const auto t0 = Clock::now() + std::chrono::milliseconds(2);
  auto at = [&](double ms) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(ms));
  };
  auto send_all = [&] {
    for (std::size_t i = 0; i < plan.size(); ++i) {
      const Planned& p = plan[i];
      const auto due = at(p.due_ms);
      // Sleep to just before the due time and spin the rest: a timer
      // wake-up from idle on a VM can be a millisecond late, and that
      // lateness would be charged to the request.
      std::this_thread::sleep_until(due - kSpin);
      while (Clock::now() < due) {
      }
      out[i].lag_ms = ms_between(due, Clock::now());
      const std::vector<uint8_t> frame = encode(p.item);
      const auto c = static_cast<std::size_t>(p.conn);
      {
        std::unique_lock<std::mutex> lock(mu);
        answered_cv.wait(lock,
                         [&] { return dead[c] || window == 0 || inflight[c].size() < window; });
        if (dead[c]) continue;
        const int64_t id = span ? Tracer::instance().begin("client.operation", 0,
                                                           static_cast<int64_t>(i) + 1)
                                : 0;
        inflight[c].push_back({i, due, id});
        ++sent;
      }
      try {
        serve::send_frame(fds[c], frame);
      } catch (const std::exception&) {
        const std::lock_guard<std::mutex> lock(mu);
        dead[c] = true;  // the receiver fails what is in flight
      }
    }
  };
  std::thread sender([&] {
    try {
      send_all();
    } catch (const std::exception&) {
      // Nothing more goes out; the receiver fails what is in flight.
      const std::lock_guard<std::mutex> lock(mu);
      std::fill(dead.begin(), dead.end(), true);
    }
    const std::lock_guard<std::mutex> lock(mu);
    sender_done = true;
  });
  // Joins the sender on every way out of this function.
  struct Joiner {
    std::thread& t;
    ~Joiner() { t.join(); }
  } joiner{sender};

  std::size_t answered = 0;
  const auto give_up = at(plan.empty() ? 0.0 : plan.back().due_ms) + std::chrono::seconds(30);
  std::vector<pollfd> pfds(fds.size());
  for (;;) {
    {
      const std::lock_guard<std::mutex> lock(mu);
      // Fail everything in flight on a dead connection.
      for (std::size_t c = 0; c < fds.size(); ++c) {
        if (!dead[c]) continue;
        for (const auto& f : inflight[c]) Tracer::instance().end(f.span_id);
        answered += inflight[c].size();
        inflight[c].clear();
      }
      answered_cv.notify_all();
      if (sender_done && answered == sent) break;
    }
    if (Clock::now() > give_up) {
      const std::lock_guard<std::mutex> lock(mu);
      for (std::size_t c = 0; c < fds.size(); ++c) dead[c] = true;
      continue;
    }
    {
      const std::lock_guard<std::mutex> lock(mu);
      for (std::size_t c = 0; c < fds.size(); ++c) pfds[c] = {dead[c] ? -1 : fds[c], POLLIN, 0};
    }
    if (::poll(pfds.data(), pfds.size(), 50) <= 0) continue;
    for (std::size_t c = 0; c < fds.size(); ++c) {
      if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      serve::ResponseFrame resp;
      bool good = false;
      try {
        std::vector<uint8_t> payload;
        good = serve::recv_frame(fds[c], payload) == serve::RecvStatus::kFrame;
        if (good) resp = serve::decode_response(payload.data(), payload.size());
      } catch (const std::exception&) {
        good = false;
      }
      const auto now = Clock::now();
      Inflight f{};
      {
        const std::lock_guard<std::mutex> lock(mu);
        if (!good || inflight[c].empty()) {
          dead[c] = true;
          continue;
        }
        f = inflight[c].front();
        inflight[c].pop_front();
        ++answered;
      }
      answered_cv.notify_all();
      Tracer::instance().end(f.span_id);
      Outcome& o = out[f.index];
      o.ok = check(plan[f.index].item, resp);
      if (o.ok) o.lat_ms = ms_between(f.due, now);
    }
  }
  return out;
}

void merge(Tally& into, const Tally& t) {
  into.sent += t.sent;
  into.ok += t.ok;
  into.lat_ms.insert(into.lat_ms.end(), t.lat_ms.begin(), t.lat_ms.end());
  into.lag_ms.insert(into.lag_ms.end(), t.lag_ms.begin(), t.lag_ms.end());
}

Tally tally(const std::vector<Outcome>& outcomes, const std::string& phase, Result& result) {
  Tally t;
  for (const auto& o : outcomes) {
    ++t.sent;
    t.ok += o.ok ? 1 : 0;
    t.lat_ms.push_back(o.lat_ms);
    t.lag_ms.push_back(o.lag_ms);
  }
  if (t.ok != t.sent) {
    result.fail(phase + ": " + std::to_string(t.sent - t.ok) +
                " operations were not answered kOk with the expected logits");
  }
  std::fprintf(stderr, "%s: sent %lld ok %lld failed %lld\n", phase.c_str(),
               static_cast<long long>(t.sent), static_cast<long long>(t.ok),
               static_cast<long long>(t.sent - t.ok));
  return t;
}

void timed_sub_runs(const Args& args, const std::string& what,
                    const std::function<SubRun(int r, double sub_ms)>& sub_run, Result& result) {
  const double sub_ms = args.seconds * 1000.0 / kSubRuns;
  std::vector<double> setup_s, p50, tail;
  std::vector<Tally> bursts;
  int64_t sent = 0, ok = 0;
  for (int r = 0; r < kSubRuns; ++r) {
    const SubRun sr = sub_run(r, sub_ms);
    const LatencySummary lat = summarize(sr.nominal.lat_ms, kTailQ);
    setup_s.push_back(sr.setup_s);
    p50.push_back(lat.p50);
    tail.push_back(lat.tail);
    sent += sr.nominal.sent;
    ok += sr.nominal.ok;
    std::string rates;
    for (const Tally& b : sr.bursts) {
      bursts.push_back(b);
      sent += b.sent;
      ok += b.ok;
      char buf[32];
      std::snprintf(buf, sizeof(buf), " %.0f", capacity_rate({b}));
      rates += buf;
    }
    std::fprintf(stderr,
                 "%s sub-run %d: set-up %.3f s; %lld paced, p50 %.3f ms, p%.0f %.3f ms, lag p99 "
                 "%.3f ms; capacity/s:%s\n",
                 what.c_str(), r, sr.setup_s, static_cast<long long>(lat.count), lat.p50,
                 kTailQ * 100, lat.tail, percentile(sr.nominal.lag_ms, 0.99), rates.c_str());
  }
  result.attempted = sent;
  result.failed = sent - ok;
  result.metric("setup_s", median(setup_s), "s");
  result.metric("peak_rss_mb", peak_rss_mb(), "MB");
  result.metric("throughput_per_s", capacity_rate(bursts), "1/s");
  result.metric("p50_ms", median(p50), "ms");
  result.metric("tail_ms", median(tail), "ms");
  result.metric("ok_frac", static_cast<double>(ok) / static_cast<double>(std::max<int64_t>(1, sent)),
                "fraction");
}

ClientLog traced_blocks(const std::function<Tally(int pair, bool span)>& block, Result& result) {
  Tally plain, traced;
  for (int b = 0; b < 4; ++b) {
    const bool span = b % 2 == 1;
    Tracer::instance().enable(span);
    ndsnn::runtime::trace::set_enabled(span);
    const Tally t = block(b / 2, span);
    ndsnn::runtime::trace::set_enabled(false);
    Tracer::instance().enable(true);
    merge(span ? traced : plain, t);
  }
  const double p50_plain = median(plain.lat_ms);
  result.metric("trace.overhead_frac", (median(traced.lat_ms) - p50_plain) / p50_plain,
                "fraction");
  result.metric("loadgen.lag_p99_ms", percentile(plain.lag_ms, 0.99), "ms");
  return {plain.sent + traced.sent, plain.ok + traced.ok};
}

void report_executor(const ndsnn::runtime::ExecutorStats& st, Result& result) {
  result.metric("runtime.executor.queue_wait_p50_ms", st.queue_p50_ms, "ms");
  result.metric("runtime.executor.queue_wait_p95_ms", st.queue_p95_ms, "ms");
  result.metric("runtime.executor.utilization", st.worker_utilization, "fraction");
  result.metric("runtime.executor.shed", static_cast<double>(st.shed_requests), "count");
  result.metric("runtime.executor.stream_steps", static_cast<double>(st.stream_steps), "count");
  result.metric("runtime.executor.backpressure_rejections",
                static_cast<double>(st.backpressure_rejections), "count");
}

double report_codec(int64_t n, const std::function<CodecRound(int64_t i)>& round,
                    Result& result) {
  double ms = 0.0, bytes = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const auto t0 = Clock::now();
    const CodecRound r = round(i);
    ms += ms_between(t0, Clock::now());
    bytes += static_cast<double>(r.bytes);
    if (!r.same) result.fail("wire codec round trip changed a tensor");
  }
  const double us = ms * 1000.0 / static_cast<double>(n);
  result.metric("serve.wire.codec_us", us, "us");
  result.metric("serve.wire.frame_bytes", bytes / static_cast<double>(n), "bytes");
  return us;
}

double capacity_rate(const std::vector<Tally>& bursts) {
  std::vector<std::vector<double>> done;
  for (const Tally& b : bursts) {
    done.emplace_back();
    for (const double ms : b.lat_ms) {
      if (ms < kFailedMs) done.back().push_back(ms);
    }
  }
  return pooled_rate(done);
}

bool bitwise_equal(const ndsnn::tensor::Tensor& a, const ndsnn::tensor::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * static_cast<std::size_t>(a.numel())) ==
             0;
}

std::string op_kind(const std::string& k) {
  if (k.size() > 5 && k.compare(k.size() - 5, 5, "-conv") == 0) return "conv";
  if (k.size() > 7 && k.compare(k.size() - 7, 7, "-linear") == 0) return "linear";
  if (k == "alif") return "lif";
  if (k == "residual") return "reshape";
  return k;
}

void op_cost(const ndsnn::runtime::OpReport& report, const ndsnn::tensor::Tensor& in,
             const ndsnn::tensor::Tensor& out, double* macs, double* bytes) {
  const std::string kind = op_kind(report.kind);
  const auto in_n = static_cast<double>(in.numel());
  const auto out_n = static_cast<double>(out.numel());
  *bytes = 4.0 * (in_n + out_n) + static_cast<double>(report.bytes);
  if (kind == "conv") {
    // Each stored weight meets every output position of every row once.
    const double positions = out.rank() == 4 ? static_cast<double>(out.dim(2) * out.dim(3)) : 1.0;
    *macs = static_cast<double>(report.nnz) * positions * static_cast<double>(out.dim(0));
  } else if (kind == "linear") {
    *macs = static_cast<double>(report.nnz) * static_cast<double>(out.dim(0));
  } else if (kind == "pool") {
    *macs = in_n;
  } else if (kind == "reshape") {
    *macs = 0.0;
  } else {  // bn, lif: one multiply-add per element
    *macs = out_n;
  }
}

void report_op_walk(const OpWalk& walk, double calls, const Roofline& roof, Result& result) {
  double total_us = 0.0;
  for (const auto& [kind, us] : walk.us) total_us += us;
  for (const auto& kind : kOpKinds) {
    if (walk.us.count(kind) == 0) continue;
    const double us = walk.us.at(kind);
    const double macs = walk.macs.at(kind);
    const double bytes = walk.bytes.at(kind);
    result.metric("runtime.op.self_us." + kind, us / calls, "us");
    result.metric("runtime.op.share." + kind, total_us > 0 ? us / total_us : 0.0, "fraction");
    result.metric("runtime.op.macs." + kind, macs / calls, "count");
    result.metric("runtime.op.bytes." + kind, bytes / calls, "bytes");
    // Roofline: the op's lower-bound time at the probed MAC rate and copy
    // bandwidth, over its measured time (1.0 = at the bound).
    const double bound_us =
        std::max(macs / (roof.mac_gmacs * 1e3), bytes / (roof.copy_gbps * 1e3));
    result.metric("runtime.op.bound_frac." + kind, us > 0 ? bound_us / us : 0.0, "fraction");
  }
}

void report_phases(double calls, Result& result) {
  std::map<std::string, double> us;
  for (const auto& s : ndsnn::runtime::trace::snapshot()) {
    if (std::strcmp(s.cat, "phase") == 0) us[s.name] += s.dur_us;
  }
  for (const auto& phase : kPhases) {
    const auto it = us.find(phase);
    result.metric("runtime.phase.us." + phase, it == us.end() ? 0.0 : it->second / calls, "us");
  }
}

}  // namespace perfbench
