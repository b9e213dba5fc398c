// Counter harvester: snapshots every Stats an Env exposes and turns the
// deltas across the timed phase into per-layer metrics.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "harness.hpp"

namespace perfbench {

namespace {

void merge(Counters& into, const common::Stats& stats, const std::string& prefix) {
  for (const auto& [name, v] : stats.snapshot()) {
    Accum& a = into[prefix + name];
    if (v.count > 0) a.max = a.count > 0 ? std::max(a.max, v.max) : v.max;
    a.count += static_cast<double>(v.count);
    a.sum += v.sum;
  }
}

void merge_devices(Counters& into, nanos::Runtime& rt) {
  for (int g = 0; g < rt.gpu_count(); ++g) merge(into, rt.gpu_platform().device(g).stats(), "simcuda.");
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

Counters harvest(ompss::Env& env) {
  Counters c;
  if (nanos::ClusterRuntime* cl = env.cluster()) {
    merge(c, cl->stats(), "");
    for (int n = 0; n < cl->node_count(); ++n) {
      merge(c, cl->node_runtime(n).stats(), "");
      merge_devices(c, cl->node_runtime(n));
      merge(c, cl->network().endpoint(n).stats(), "simnet.");
    }
    // The master's own NIC, for its share of the bytes sent.
    merge(c, cl->network().endpoint(0).stats(), "simnet.node0.");
  } else {
    merge(c, env.node_runtime(0).stats(), "");
    merge_devices(c, env.node_runtime(0));
  }
  return c;
}

Layers derive_layers(const Counters& before, const Counters& after, int nodes) {
  auto get = [](const Counters& c, const std::string& name) {
    auto it = c.find(name);
    return it == c.end() ? Accum{} : it->second;
  };
  auto sum = [&](const std::string& name) {
    return get(after, name).sum - get(before, name).sum;
  };
  auto count = [&](const std::string& name) {
    return get(after, name).count - get(before, name).count;
  };
  auto mean = [&](const std::string& name) { return ratio(sum(name), count(name)); };
  // Accumulators keep no history, so a maximum cannot be differenced: this is
  // the maximum over the Env's life, which differs from the timed phase's
  // only when set-up recorded a larger value under the same name.
  auto max = [&](const std::string& name) { return count(name) > 0 ? get(after, name).max : 0.0; };

  Layers l;
  // nanos.dep
  l["dep.lookups"] = sum("dep.lookups");
  l["dep.records_scanned"] = sum("dep.records_scanned");
  l["dep.arcs"] = sum("dep.arcs");
  l["dep.scan_ratio"] = ratio(l["dep.records_scanned"], l["dep.lookups"]);
  // nanos.sched and nanos.task
  l["sched.steals"] = sum("sched.steals");
  l["sched.lock_collisions"] = sum("sched.lock_collisions");
  l["sched.spurious_wakes"] = sum("sched.spurious_wakes");
  l["tasks.executed"] = sum("tasks.executed");
  l["tasks.failed"] = sum("tasks.failed");
  l["sched.spurious_wakes_per_task"] = ratio(l["sched.spurious_wakes"], l["tasks.executed"]);
  // nanos.coherence
  l["coh.hits"] = sum("coh.hits");
  l["coh.misses"] = sum("coh.misses");
  l["coh.hit_ratio"] = ratio(l["coh.hits"], l["coh.hits"] + l["coh.misses"]);
  l["coh.h2d_bytes"] = sum("coh.h2d_bytes");
  l["coh.d2h_bytes"] = sum("coh.d2h_bytes");
  l["coh.evictions"] = sum("coh.evictions");
  // nanos.cluster: staging
  for (const char* name : {"cluster.stagings", "cluster.stos_transfers", "cluster.mtos_relays",
                           "cluster.master_tx_bytes", "cluster.done_replays",
                           "cluster.ack_batches"}) {
    l[name] = sum(name);
  }
  for (const char* name :
       {"cluster.stage_latency", "cluster.transfer_latency", "cluster.exec_latency"}) {
    l[std::string(name) + ".mean"] = mean(name);
    l[std::string(name) + ".max"] = max(name);
  }
  // nanos.cluster: commit path
  double homed = 0;
  for (int n = 0; n < nodes; ++n) homed += sum("cluster.dir_ops_homed.n" + std::to_string(n));
  l["cluster.homed_commits"] = homed;
  l["cluster.master_commit_share"] = ratio(sum("cluster.dir_ops_homed.n0"), homed);
  l["cluster.ack_tickets_per_batch"] =
      ratio(sum("cluster.ack_batch_tickets"), l["cluster.ack_batches"]);
  // simnet: a coalesced sub-message travels alone when its batch held only
  // it, so wire AMs = plain shorts + batches + lone coalesced subs.
  l["simnet.am_batches"] = sum("simnet.am_batch");
  l["simnet.am_msgs"] = sum("simnet.am_short") + l["simnet.am_batches"] +
                        (sum("simnet.am_coalesced") - sum("simnet.am_batch_subs"));
  l["simnet.am_subs_per_batch"] = ratio(sum("simnet.am_batch_subs"), l["simnet.am_batches"]);
  l["simnet.tx_bytes"] = sum("simnet.tx_bytes");
  l["simnet.master_tx_share"] = ratio(sum("simnet.node0.tx_bytes"), l["simnet.tx_bytes"]);
  l["simnet.tx_bulk_qlen.mean"] = mean("simnet.tx_bulk_qlen");
  l["simnet.tx_bulk_qlen.max"] = max("simnet.tx_bulk_qlen");
  // simcuda
  l["simcuda.kernel_flops"] = sum("simcuda.kernel_flops");
  l["simcuda.h2d_bytes"] = sum("simcuda.h2d_bytes");
  l["simcuda.d2h_bytes"] = sum("simcuda.d2h_bytes");
  return l;
}

double rss_bytes() {
  long pages = 0;
  long resident = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE));
}

double peak_rss_bytes() {
  double kib = 0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
    }
    std::fclose(f);
  }
  return kib * 1024.0;
}

void reset_peak_rss() {
  // Writing 5 to clear_refs resets VmHWM to the current resident size.
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

}  // namespace perfbench
