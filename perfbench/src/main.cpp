// perfbench: runs one seeded workload for a fixed time and prints one JSON
// record per repetition (run.py turns them into the benchmark's metrics).
//
//   perfbench --workload <host-dag|cluster-matmul|cluster-protocol>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--trace-dir <dir>] [--tiny] [--corrupt]
//
// Every repetition runs in a child process forked from this one, so each
// starts from the same process state (heap, allocator arenas, resident set),
// and a repetition that crashes or hangs is counted as failed instead of
// ending the run.  --trace 0 measures untraced repetitions for the whole
// time.  --trace 1 alternates untraced and traced repetitions: in a traced
// one the runtime records its Chrome trace into --trace-dir and every
// TaskBuilder::run call is timed, so the two kinds together give the tracing
// overhead.  The last line of standard output is the JSON document; the exit
// code is 0 when every repetition passed its output check.
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <sstream>
#include <string>

#include "harness.hpp"

namespace perfbench {

double host_now() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

int SpanLog::open(std::string name, int parent) {
  spans_.push_back({std::move(name), host_now(), 0.0, parent});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::close(int id) { spans_[static_cast<std::size_t>(id)].end = host_now(); }

nanos::Task* SpawnTimer::run(ompss::TaskBuilder& builder, nanos::TaskFn fn) {
  ++calls_;
  if (!enabled_) return builder.run(std::move(fn));
  const auto t0 = std::chrono::steady_clock::now();
  nanos::Task* t = builder.run(std::move(fn));
  samples_us_.push_back(
      std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - t0).count());
  return t;
}

namespace {

struct Rep {
  bool ok = true;
  std::string error;
  double vt_s = 0;
  double vt0 = 0;
  double flops = 0;     ///< useful work of the timed phase
  double peak_rss = 0;  ///< resident-memory high-water mark of the repetition
  int gpus = 0;
  std::vector<std::string> trace_files;  ///< written when the Env is destroyed
  SpanLog spans;
  Layers layers;
};

/// The runtime writes one Chrome trace per runtime image: `path` itself on a
/// single node, `path`.node<i> for each node of a cluster.
std::vector<std::string> trace_files(ompss::Env& env, const std::string& path) {
  if (!env.is_cluster()) return {path};
  std::vector<std::string> files;
  for (int n = 0; n < env.node_count(); ++n) files.push_back(path + ".node" + std::to_string(n));
  return files;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const std::size_t k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

Rep run_rep(const std::string& name, const Options& opt) {
  reset_peak_rss();
  Rep r;
  SpanLog& s = r.spans;
  std::unique_ptr<Workload> w = make_workload(name);
  // The Env's threads must be joined before the workload's inputs go away.
  struct EnvReset {
    Workload& w;
    ~EnvReset() { w.destroy_env(); }
  } env_reset{*w};

  const int rep = s.open("rep", -1);
  const int setup = s.open("setup", rep);
  const int env_span = s.open("env", setup);
  w->make_env(opt);
  s.close(env_span);
  const int inputs = s.open("inputs", setup);
  w->make_inputs(opt);
  s.close(inputs);

  ompss::Env& env = w->env();
  if (opt.traced) r.trace_files = trace_files(env, opt.trace_path);
  r.flops = w->timed_flops();
  for (int n = 0; n < env.node_count(); ++n) r.gpus += env.node_runtime(n).gpu_count();
  std::atomic<bool> deadlocked{false};
  env.clock().set_deadlock_handler([&deadlocked](const std::string&) { deadlocked = true; });

  SpawnTimer timer(opt.traced);
  env.run([&] {
    try {
      const int prepare = s.open("prepare", setup);
      w->prepare();
      s.close(prepare);
      s.close(setup);

      const Counters before = harvest(env);
      const double rss0 = rss_bytes();
      r.vt0 = env.clock().now();
      const int timed = s.open("timed", rep);
      const int spawn = s.open("spawn", timed);
      w->spawn(timer);
      s.close(spawn);
      const int taskwait = s.open("taskwait", timed);
      ompss::taskwait_noflush();
      s.close(taskwait);
      s.close(timed);
      r.vt_s = env.clock().now() - r.vt0;
      const double rss1 = rss_bytes();
      r.layers = derive_layers(before, harvest(env), env.node_count());
      const double spawned = static_cast<double>(timer.calls());
      r.layers["tasks.spawned"] = spawned;
      r.layers["rss_bytes_per_task"] = spawned > 0 ? std::max(0.0, rss1 - rss0) / spawned : 0.0;
      r.layers["ompss.spawn_us.p50"] = percentile(timer.samples_us(), 0.50);
      r.layers["ompss.spawn_us.p99"] = percentile(timer.samples_us(), 0.99);

      const int check = s.open("check", rep);
      ompss::taskwait();
      if (opt.corrupt) w->corrupt();
      std::string why;
      if (!w->check(why)) {
        r.ok = false;
        r.error = why;
      }
      s.close(check);
      r.peak_rss = peak_rss_bytes();
    } catch (const vt::Cancelled&) {
      throw;  // deadlock unwinding; recorded below
    } catch (const std::exception& e) {
      r.ok = false;
      r.error = std::string("exception: ") + e.what();
    }
  });
  if (deadlocked) {
    r.ok = false;
    r.error = "deadlock detected by the virtual clock";
  }
  s.close(rep);
  return r;
}

// --- JSON output -------------------------------------------------------------

std::string quote(const std::string& in) {
  std::string out = "\"";
  for (char c : in) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string rep_json(const Rep& r) {
  std::ostringstream os;
  os << "{\"ok\":" << (r.ok ? "true" : "false") << ",\"error\":" << quote(r.error)
     << ",\"vt_s\":" << num(r.vt_s) << ",\"vt0\":" << num(r.vt0) << ",\"flops\":" << num(r.flops)
     << ",\"peak_rss\":" << num(r.peak_rss) << ",\"gpus\":" << r.gpus << ",\"trace_files\":[";
  for (std::size_t k = 0; k < r.trace_files.size(); ++k) os << (k ? "," : "") << quote(r.trace_files[k]);
  os << "],\"spans\":[";
  const auto& spans = r.spans.spans();
  for (std::size_t k = 0; k < spans.size(); ++k) {
    const Span& sp = spans[k];
    os << (k ? "," : "") << "{\"name\":" << quote(sp.name) << ",\"start\":" << num(sp.start)
       << ",\"end\":" << num(sp.end) << ",\"parent\":" << sp.parent << "}";
  }
  os << "],\"layers\":{";
  bool first = true;
  for (const auto& [name, v] : r.layers) {
    os << (first ? "" : ",") << quote(name) << ":" << num(v);
    first = false;
  }
  os << "}}";
  return os.str();
}

/// A repetition's JSON record, as its child process reported it.
struct Record {
  bool ok = false;
  std::string json;
};

Record failed_record(std::string why) {
  Rep r;
  r.ok = false;
  r.error = std::move(why);
  return {false, rep_json(r)};
}

/// Runs one repetition in a forked child and collects its record.  The child
/// is killed if it has not finished after `timeout_s`.
Record run_isolated(const std::string& name, const Options& opt, double timeout_s) {
  int fds[2];
  if (pipe(fds) != 0) return failed_record("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return failed_record("fork failed");
  }
  if (pid == 0) {
    close(fds[0]);
    Rep r;
    try {
      r = run_rep(name, opt);
    } catch (const std::exception& e) {
      r.ok = false;
      r.error = std::string("exception: ") + e.what();
    }
    const std::string js = rep_json(r);
    for (std::size_t off = 0; off < js.size();) {
      const ssize_t n = write(fds[1], js.data() + off, js.size() - off);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    _exit(r.ok ? 0 : 1);
  }
  close(fds[1]);
  std::string out;
  bool timed_out = false;
  const double deadline = host_now() + timeout_s;
  for (;;) {
    pollfd pfd{fds[0], POLLIN, 0};
    const int left_ms = static_cast<int>(std::max(0.0, deadline - host_now()) * 1000);
    const int ready = poll(&pfd, 1, left_ms);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) {
      timed_out = ready == 0;
      kill(pid, SIGKILL);
      break;
    }
    char buf[65536];
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (timed_out) return failed_record("no result after " + num(timeout_s) + " s (hang?)");
  if (!WIFEXITED(status) || out.empty()) {
    return failed_record("repetition process died" +
                         (WIFSIGNALED(status) ? " on signal " + std::to_string(WTERMSIG(status))
                                              : std::string()));
  }
  return {WEXITSTATUS(status) == 0, out};
}

/// Runs repetitions until `seconds` have passed and each kind ran at least
/// three times.  With `traced_too`, traced and untraced repetitions
/// alternate, so that a drift in host speed falls on both alike.
void measure(const std::string& name, const Options& opt, double seconds, bool traced_too,
             std::vector<Record>& untraced, std::vector<Record>& traced) {
  constexpr std::size_t kMinReps = 3;
  constexpr double kRepTimeoutS = 60;
  Options traced_opt = opt;
  traced_opt.traced = true;
  const double t0 = host_now();
  for (std::size_t k = 0;; ++k) {
    if (traced_too && k % 2 == 1) {
      traced.push_back(run_isolated(name, traced_opt, kRepTimeoutS));
    } else {
      untraced.push_back(run_isolated(name, opt, kRepTimeoutS));
    }
    const bool enough = untraced.size() >= kMinReps && (!traced_too || traced.size() >= kMinReps);
    if (enough && host_now() - t0 >= seconds) return;
  }
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <host-dag|cluster-matmul|"
               "cluster-protocol> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-dir <dir>] [--tiny] [--corrupt]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::string trace_dir = ".";
  double seconds = 10;
  int trace = 0;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      opt.tiny = true;
    } else if (arg == "--corrupt") {
      opt.corrupt = true;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (arg == "--trace-dir" && has_value) {
      trace_dir = argv[++i];
    } else {
      return usage(("unknown or incomplete argument " + arg).c_str());
    }
  }
  std::unique_ptr<Workload> proto = make_workload(workload);
  if (!proto) return usage("unknown workload");
  if (!(seconds > 0)) return usage("--seconds must be positive");
  if (trace != 0 && trace != 1) return usage("--trace must be 0 or 1");

  host_now();  // start the process clock
  opt.trace_path = trace_dir + "/" + workload + ".trace.json";
  proto->precompute(opt);  // inherited by every forked repetition
  std::vector<Record> untraced;
  std::vector<Record> traced;
  measure(workload, opt, seconds, trace == 1, untraced, traced);

  bool all_ok = true;
  std::ostringstream os;
  os << "{\"workload\":" << quote(workload);
  for (auto* set : {&untraced, &traced}) {
    os << (set == &untraced ? ",\"untraced\":[" : ",\"traced\":[");
    for (std::size_t k = 0; k < set->size(); ++k) {
      all_ok = all_ok && (*set)[k].ok;
      os << (k ? "," : "") << (*set)[k].json;
    }
    os << "]";
  }
  os << "}";
  std::printf("%s\n", os.str().c_str());
  return all_ok ? 0 : 1;
}
