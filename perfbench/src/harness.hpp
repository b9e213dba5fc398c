// perfbench harness: the pieces shared by the workloads (workloads.cpp), the
// counter harvester (harvest.cpp) and the repetition loop (main.cpp).
//
// A workload is measured in repetitions.  Each repetition builds a fresh Env
// and its seeded inputs (set-up), runs the timed phase (every spawn, then the
// final `taskwait noflush`), and then checks the output after a flushing
// taskwait.  Everything is observed from outside the runtime: host time
// around calls into the public ompss:: API, virtual time from the Env's
// clock, and the counters the runtime layers publish into common::Stats.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ompss/ompss.hpp"

namespace perfbench {

/// Host seconds on a steady clock, relative to the first call in the process.
double host_now();

/// One benchmark-side span: a phase of a repetition, timed in host seconds.
struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;  ///< index of the enclosing span, -1 for the root
};

/// The spans of one repetition, kept in memory and emitted with its record.
class SpanLog {
public:
  /// Opens a span under `parent` and returns its index.
  int open(std::string name, int parent);
  void close(int id);
  const std::vector<Span>& spans() const { return spans_; }

private:
  std::vector<Span> spans_;
};

/// Times individual TaskBuilder::run calls when enabled (traced runs only).
class SpawnTimer {
public:
  explicit SpawnTimer(bool enabled) : enabled_(enabled) {}

  nanos::Task* run(ompss::TaskBuilder& builder, nanos::TaskFn fn);
  std::size_t calls() const { return calls_; }
  const std::vector<double>& samples_us() const { return samples_us_; }

private:
  bool enabled_;
  std::size_t calls_ = 0;
  std::vector<double> samples_us_;
};

struct Options {
  std::uint64_t seed = 1;
  bool tiny = false;     ///< smoke-test sizes
  bool traced = false;   ///< enable the runtime's Chrome trace and spawn timing
  bool corrupt = false;  ///< damage the output before the check (self-test)
  std::string trace_path;  ///< where the runtime writes its trace when traced
};

/// A seeded workload.  One object serves exactly one repetition (or, for
/// precompute(), the whole run).
class Workload {
public:
  virtual ~Workload() = default;

  /// Constructs the Env (the "env" span measures exactly this call).
  virtual void make_env(const Options& opt) = 0;
  /// Generates the seeded inputs on the host.
  virtual void make_inputs(const Options& opt) = 0;
  /// Runs on the Env's driver thread before timing starts (e.g. the
  /// task-based initialization of cluster-matmul).  Part of set-up.
  virtual void prepare() {}
  /// Spawns the timed task graph; the caller adds the final taskwait.
  virtual void spawn(SpawnTimer& timer) = 0;
  /// Damages one output value so that check() must fail.
  virtual void corrupt() = 0;
  /// Checks the output after the flushing taskwait.  On failure, says why.
  virtual bool check(std::string& why) = 0;
  /// Useful floating-point work of the timed phase (0 if not meaningful).
  virtual double timed_flops() const { return 0; }
  /// Work done once per run, before any repetition, that the checks reuse
  /// (e.g. a serial reference result).  Never timed.
  virtual void precompute(const Options&) {}

  ompss::Env& env() { return *env_; }
  void destroy_env() { env_.reset(); }

protected:
  std::unique_ptr<ompss::Env> env_;
};

/// The workload called `name`, or null if there is none.
std::unique_ptr<Workload> make_workload(const std::string& name);

/// Named per-layer values of one repetition.
using Layers = std::map<std::string, double>;

/// Snapshot of every common::Stats reachable from an Env: the cluster and
/// node runtimes (names already carry their layer prefix), each simnet
/// endpoint (prefixed "simnet.") and each simcuda device (prefixed
/// "simcuda.").  Accumulators with the same name are merged across sources.
struct Accum {
  double count = 0;
  double sum = 0;
  double max = 0;
};
using Counters = std::map<std::string, Accum>;

Counters harvest(ompss::Env& env);

/// Turns the counter deltas of the timed phase into the per-layer metric
/// names (docs in perfbench/README.md); ratios come with their bases.
Layers derive_layers(const Counters& before, const Counters& after, int nodes);

/// Current resident memory of this process, in bytes.
double rss_bytes();
/// Resident-memory high-water mark since the last reset_peak_rss(), in bytes
/// (since process start where the kernel cannot reset it).
double peak_rss_bytes();
void reset_peak_rss();

}  // namespace perfbench
