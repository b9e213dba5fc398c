// The three benchmark workloads.  Why each exists is recorded in
// perfbench/README.md; in short:
//  * host-dag         — zero-cost wavefront on one SMP node: all time is host
//                       bookkeeping in the ompss, dependency and scheduler layers.
//  * cluster-matmul   — Fig. 9's best configuration: the cluster data plane
//                       (staging, peer transfers, GPU kernels) in virtual time.
//  * cluster-protocol — over02's decentralized throughput leg at 16 nodes: the
//                       write/commit protocol with almost no bytes moved.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <numeric>
#include <utility>

#include "apps/matmul/matmul.hpp"
#include "apps/platform.hpp"
#include "harness.hpp"

namespace perfbench {

namespace {

/// splitmix64: a small, portable generator, so a seed means the same inputs
/// on every standard library.
class Rng {
public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

private:
  std::uint64_t state_;
};

// ---------------------------------------------------------------------------
// host-dag: a W x W wavefront of zero-cost SMP tasks.  Task (i, j) reads its
// north and west neighbours and, with probability 1/4, one seeded cell of an
// earlier row; it writes 1 + max(inputs).  Accesses are dependence-only, so
// the coherence layer stays out of the way and virtual time never advances.
//
// A gate task holds the wavefront's root until the last task is submitted,
// as a first task waiting on its input would.  Without it the two workers
// drain tasks as fast as the driver spawns them and every task pays a worker
// sleep/wake round trip, whose latency drifts with the host's load and made
// run medians spread twice as wide.  With it the timed phase is the spawn
// loop (ompss + dependency insert) followed by the drain (release + pick).

/// A one-shot latch that a task body can wait on.
class Gate {
public:
  void wait() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return open_; });
  }
  void open() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

class HostDag final : public Workload {
public:
  void make_env(const Options& opt) override {
    nanos::RuntimeConfig cfg;
    cfg.scheduler = "dep";
    cfg.smp_workers = 2;  // driver + 2 workers stay within a 4-core host
    if (opt.traced) cfg.trace_path = opt.trace_path;
    env_ = std::make_unique<ompss::Env>(std::move(cfg));
  }

  void make_inputs(const Options& opt) override {
    w_ = opt.tiny ? 12 : 300;
    const std::size_t cells = static_cast<std::size_t>(w_) * static_cast<std::size_t>(w_);
    grid_.assign(cells, 0);
    extra_.assign(cells, -1);
    Rng rng(opt.seed);
    for (int i = 1; i < w_; ++i) {
      for (int j = 0; j < w_; ++j) {
        if (rng.below(4) != 0) continue;
        const int r = static_cast<int>(rng.below(static_cast<std::uint64_t>(i)));
        const int c = static_cast<int>(rng.below(static_cast<std::uint64_t>(w_)));
        if (r == i - 1 && c == j) continue;  // already the north neighbour
        extra_[idx(i, j)] = static_cast<std::int32_t>(idx(r, c));
      }
    }
  }

  void spawn(SpawnTimer& timer) override {
    constexpr std::size_t kCell = sizeof(std::int64_t);
    ompss::TaskBuilder g = ompss::task();
    g.dep(&gate_cell_, sizeof gate_cell_, nanos::AccessMode::kOut);
    timer.run(g, [this](ompss::Ctx&) { gate_.wait(); });
    // Opens on every exit, so the gate task cannot outlive a failed spawn.
    struct Opener {
      Gate& gate;
      ~Opener() { gate.open(); }
    } opener{gate_};

    for (int i = 0; i < w_; ++i) {
      for (int j = 0; j < w_; ++j) {
        const std::int64_t* in[3] = {nullptr, nullptr, nullptr};
        int n = 0;
        if (i > 0) in[n++] = &grid_[idx(i - 1, j)];
        if (j > 0) in[n++] = &grid_[idx(i, j - 1)];
        if (extra_[idx(i, j)] >= 0) in[n++] = &grid_[static_cast<std::size_t>(extra_[idx(i, j)])];
        std::int64_t* out = &grid_[idx(i, j)];

        ompss::TaskBuilder b = ompss::task();
        if (i == 0 && j == 0) b.dep(&gate_cell_, sizeof gate_cell_, nanos::AccessMode::kIn);
        for (int k = 0; k < n; ++k) b.dep(in[k], kCell, nanos::AccessMode::kIn);
        b.dep(out, kCell, nanos::AccessMode::kOut);
        timer.run(b, [a = in[0], bb = in[1], c = in[2], out](ompss::Ctx&) {
          std::int64_t m = 0;
          for (const std::int64_t* p : {a, bb, c}) {
            if (p != nullptr) m = std::max(m, *p);
          }
          *out = 1 + m;
        });
      }
    }
  }

  void corrupt() override { grid_[grid_.size() / 2] += 1; }

  bool check(std::string& why) override {
    // Serial replay in spawn order, which is a topological order of the DAG.
    std::vector<std::int64_t> want(grid_.size(), 0);
    for (int i = 0; i < w_; ++i) {
      for (int j = 0; j < w_; ++j) {
        std::int64_t m = 0;
        if (i > 0) m = std::max(m, want[idx(i - 1, j)]);
        if (j > 0) m = std::max(m, want[idx(i, j - 1)]);
        if (extra_[idx(i, j)] >= 0) m = std::max(m, want[static_cast<std::size_t>(extra_[idx(i, j)])]);
        want[idx(i, j)] = 1 + m;
      }
    }
    for (std::size_t k = 0; k < want.size(); ++k) {
      if (grid_[k] != want[k]) {
        why = "host-dag: cell " + std::to_string(k) + " holds " + std::to_string(grid_[k]) +
              ", serial replay gives " + std::to_string(want[k]);
        return false;
      }
    }
    return true;
  }

private:
  std::size_t idx(int i, int j) const {
    return static_cast<std::size_t>(i) * static_cast<std::size_t>(w_) + static_cast<std::size_t>(j);
  }

  int w_ = 0;
  char gate_cell_ = 0;  // the gate task's output, the root task's extra input
  Gate gate_;
  std::vector<std::int64_t> grid_;
  std::vector<std::int32_t> extra_;  // extra input cell per task, -1 for none
};

// ---------------------------------------------------------------------------
// cluster-matmul: Fig. 9's best configuration — 8 nodes x 1 GPU, StoS, smp
// initialization, presend 2, write-back + overlap + prefetch.  The seed sets
// the matrix fill; the checksum must match apps::matmul::run_serial.

class ClusterMatmul final : public Workload {
public:
  void make_env(const Options& opt) override {
    params(opt);
    auto cfg = apps::gpu_cluster(opt.tiny ? 2 : 8, p_.byte_scale());
    cfg.slave_to_slave = true;
    cfg.presend = 2;
    cfg.node.cache_policy = "wb";
    cfg.node.overlap = true;
    cfg.node.prefetch = true;
    if (opt.traced) cfg.node.trace_path = opt.trace_path;
    env_ = std::make_unique<ompss::Env>(std::move(cfg));
  }

  void make_inputs(const Options& opt) override {
    params(opt);
    a_ = std::make_unique<apps::matmul::BlockMatrix>(p_.nb, p_.bs_phys);
    b_ = std::make_unique<apps::matmul::BlockMatrix>(p_.nb, p_.bs_phys);
    c_ = std::make_unique<apps::matmul::BlockMatrix>(p_.nb, p_.bs_phys);
  }

  /// smp initialization (Fig. 9's best mode): the tiles are filled by tasks
  /// on the nodes that will use them, so it runs inside the Env.
  void prepare() override {
    const std::size_t bb = p_.block_bytes();
    const std::size_t bs = p_.bs_phys;
    const int nb = p_.nb;
    auto fill = [&](apps::matmul::BlockMatrix& m, unsigned seed) {
      for (int i = 0; i < nb; ++i) {
        for (int j = 0; j < nb; ++j) {
          const unsigned s = seed + static_cast<unsigned>(i * nb + j);
          ompss::task().out(m.block(i, j), bb).flops(p_.init_flops()).label("init").run(
              [bs, s](ompss::Ctx& ctx) {
                apps::matmul::init_block(static_cast<float*>(ctx.data(0)), bs, s);
              });
        }
      }
    };
    fill(*a_, p_.seed);
    fill(*b_, p_.seed + 1000);
    for (int i = 0; i < nb; ++i) {
      for (int j = 0; j < nb; ++j) {
        ompss::task().out(c_->block(i, j), bb).flops(p_.init_flops()).label("zero").run(
            [bs](ompss::Ctx& ctx) {
              std::fill_n(static_cast<float*>(ctx.data(0)), bs * bs, 0.0f);
            });
      }
    }
    ompss::taskwait_noflush();
  }

  void spawn(SpawnTimer& timer) override {
    const std::size_t bb = p_.block_bytes();
    const std::size_t bs = p_.bs_phys;
    for (int i = 0; i < p_.nb; ++i) {
      for (int j = 0; j < p_.nb; ++j) {
        for (int k = 0; k < p_.nb; ++k) {
          ompss::TaskBuilder b = ompss::task();
          b.device(ompss::Device::kCuda)
              .in(a_->block(i, k), bb)
              .in(b_->block(k, j), bb)
              .inout(c_->block(i, j), bb)
              .flops(p_.task_flops())
              .label("sgemm");
          timer.run(b, [bs](ompss::Ctx& ctx) {
            apps::matmul::sgemm_block(static_cast<const float*>(ctx.data(0)),
                                      static_cast<const float*>(ctx.data(1)),
                                      static_cast<float*>(ctx.data(2)), bs);
          });
        }
      }
    }
  }

  void corrupt() override { c_->block(0, 0)[0] += 1.0f; }

  bool check(std::string& why) override {
    const double got = c_->checksum();
    const double want = reference_checksum();
    // Same tolerance as the matmul app tests.
    if (std::abs(got - want) > std::abs(want) * 1e-5 + 1e-3) {
      why = "cluster-matmul: checksum " + std::to_string(got) + ", run_serial gives " +
            std::to_string(want);
      return false;
    }
    return true;
  }

  double timed_flops() const override { return p_.total_flops(); }

  void precompute(const Options& opt) override {
    params(opt);
    reference_checksum();
  }

private:
  /// Fig. 9's 12288^2 matrix in 1024^2 logical tiles (tiny: 3x3 tiles).  The
  /// cost model prices the logical tile, so virtual time does not depend on
  /// the physical one.  A 16^2 physical tile keeps the sgemm payloads, which
  /// the simulated GPUs run on the host, from dominating host time: at 48^2
  /// (fig09's default) they made the wall-time spread between runs 3x wider.
  void params(const Options& opt) {
    p_.nb = opt.tiny ? 3 : 12;
    p_.bs_phys = 16;
    p_.bs_logical = 1024.0;
    p_.seed = static_cast<unsigned>(opt.seed);
  }

  /// The serial result depends only on the parameters; precompute() fills
  /// the cache before the repetitions are forked.
  double reference_checksum() const {
    static std::map<std::pair<int, unsigned>, double> cache;
    auto key = std::make_pair(p_.nb, p_.seed);
    auto it = cache.find(key);
    if (it == cache.end()) it = cache.emplace(key, apps::matmul::run_serial(p_).checksum).first;
    return it->second;
  }

  apps::matmul::Params p_;
  std::unique_ptr<apps::matmul::BlockMatrix> a_, b_, c_;
};

// ---------------------------------------------------------------------------
// cluster-protocol: over02's decentralized throughput leg at 16 nodes.
// Zero-flop tasks each write a private 64 B region; presend is as deep as a
// node's share of tasks, placement is block round robin, the failure detector
// is off.  The seed sets which region each task writes.

class ClusterProtocol final : public Workload {
public:
  static constexpr std::size_t kRegionFloats = 16;  // 64 B per task

  void make_env(const Options& opt) override {
    sizes(opt);
    nanos::ClusterConfig cfg;
    cfg.nodes = nodes_;
    cfg.node_scheduler = "bf";
    cfg.rr_chunk = tpn_;  // contiguous per-node blocks: bursts can coalesce
    cfg.presend = tpn_;
    cfg.segment_bytes = 32u << 20;
    cfg.node.smp_workers = 2;
    cfg.node.scheduler = "dep";
    cfg.node.cache_policy = "wb";
    cfg.node.gpus.clear();
    cfg.dir_sharding = true;
    cfg.slave_to_slave = true;
    cfg.link.coalesce_window = 100e-6;
    cfg.resilience.heartbeat_period = 0;
    if (opt.traced) cfg.node.trace_path = opt.trace_path;
    env_ = std::make_unique<ompss::Env>(std::move(cfg));
  }

  void make_inputs(const Options& opt) override {
    sizes(opt);
    const std::size_t total = static_cast<std::size_t>(nodes_) * static_cast<std::size_t>(tpn_);
    data_.assign(total * kRegionFloats, 0.0f);
    region_.resize(total);
    std::iota(region_.begin(), region_.end(), std::size_t{0});
    Rng rng(opt.seed);
    for (std::size_t k = total; k > 1; --k) std::swap(region_[k - 1], region_[rng.below(k)]);
  }

  void spawn(SpawnTimer& timer) override {
    for (std::size_t t = 0; t < region_.size(); ++t) {
      const float value = static_cast<float>(t + 1);
      ompss::TaskBuilder b = ompss::task();
      b.out(&data_[region_[t] * kRegionFloats], kRegionFloats * sizeof(float));
      timer.run(b, [value](ompss::Ctx& ctx) {
        std::fill_n(ctx.data_as<float>(0), kRegionFloats, value);
      });
    }
  }

  void corrupt() override { data_[0] = -1.0f; }

  bool check(std::string& why) override {
    for (std::size_t t = 0; t < region_.size(); ++t) {
      const float want = static_cast<float>(t + 1);
      for (std::size_t k = 0; k < kRegionFloats; ++k) {
        const float got = data_[region_[t] * kRegionFloats + k];
        if (got != want) {
          why = "cluster-protocol: region " + std::to_string(region_[t]) + " holds " +
                std::to_string(got) + ", task " + std::to_string(t) + " wrote " +
                std::to_string(want);
          return false;
        }
      }
    }
    return true;
  }

private:
  void sizes(const Options& opt) {
    nodes_ = opt.tiny ? 4 : 16;
    tpn_ = opt.tiny ? 4 : 64;
  }

  int nodes_ = 0;
  int tpn_ = 0;
  std::vector<float> data_;
  std::vector<std::size_t> region_;  // region written by each task, in spawn order
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "host-dag") return std::make_unique<HostDag>();
  if (name == "cluster-matmul") return std::make_unique<ClusterMatmul>();
  if (name == "cluster-protocol") return std::make_unique<ClusterProtocol>();
  return nullptr;
}

}  // namespace perfbench
