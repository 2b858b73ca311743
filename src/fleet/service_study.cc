#include "src/fleet/service_study.h"

#include <cassert>
#include <cmath>
#include <memory>
#include <utility>

#include "src/fleet/fleet_sampler.h"
#include "src/fleet/workload.h"
#include "src/rpc/client.h"
#include "src/rpc/server.h"

namespace rpcscope {

ServiceStudyConfig MakeStudyConfig(const ServiceCatalog& catalog, int32_t service_id) {
  const ServiceSpec& spec = catalog.service(service_id);
  const StudiedServices& ids = catalog.studied();
  ServiceStudyConfig c;
  c.service_id = service_id;
  c.service_name = spec.name;
  c.category = spec.category;
  c.seed = 0x57d1 + static_cast<uint64_t>(service_id) * 7919;

  if (service_id == ids.bigtable) {
    c.app_median_us = 550;
    c.app_sigma = 0.75;
    c.request_bytes = 1024;
    c.response_bytes = 2048;
    c.target_utilization = 0.6;
  } else if (service_id == ids.network_disk) {
    c.app_median_us = 900;  // SSD read service time.
    c.app_sigma = 0.65;
    c.request_bytes = 512;
    c.response_bytes = 32 * 1024;
    c.target_utilization = 0.55;
  } else if (service_id == ids.f1) {
    // Queries of wildly varying complexity through one method: the largest
    // P95/median ratio of the eight (§3.3.1).
    c.app_median_us = 700;
    c.app_sigma = 1.45;
    c.fast_weight = 0.10;
    c.request_bytes = 75;
    c.response_bytes = 8192;
    c.target_utilization = 0.5;
    c.num_clients = 2;
    c.client_rx_workers = 1;
    c.client_rx_overhead_us = 150;
  } else if (service_id == ids.ssd_cache) {
    // Queue-heavy: lean worker pool driven hard.
    c.app_median_us = 260;
    c.app_sigma = 0.55;
    c.request_bytes = 400;
    c.response_bytes = 1024;
    c.app_workers = 3;
    c.target_utilization = 0.85;
  } else if (service_id == ids.kv_store) {
    // Stack-heavy: tiny handler, full-featured channel, hedged.
    c.app_median_us = 25;
    c.app_sigma = 0.45;
    c.fast_weight = 0;
    c.request_bytes = 128;
    c.response_bytes = 512;
    c.cost_scale = 10.0;
    c.io_workers = 6;
    c.target_utilization = 0.35;
    c.hedged = true;
    c.hedge_delay_multiplier = 12.0;
  } else if (service_id == ids.ml_inference) {
    c.app_median_us = 1800;
    c.app_sigma = 0.8;
    c.fast_weight = 0;
    c.request_bytes = 512;
    c.response_bytes = 2048;
    c.target_utilization = 0.5;
  } else if (service_id == ids.spanner) {
    c.app_median_us = 380;
    c.app_sigma = 0.85;
    c.request_bytes = 800;
    c.response_bytes = 4096;
    c.target_utilization = 0.55;
  } else if (service_id == ids.video_metadata) {
    // Queue-heavy on the server AND on the client receive path.
    c.app_median_us = 120;
    c.app_sigma = 0.6;
    c.request_bytes = 32 * 1024;
    c.response_bytes = 4096;
    c.app_workers = 3;
    c.target_utilization = 0.88;
    c.client_rx_workers = 1;
    c.num_clients = 4;
    c.client_rx_overhead_us = 32;
  } else if (service_id == ids.bigquery) {
    c.app_median_us = 2500;
    c.app_sigma = 1.1;
    c.request_bytes = 2048;
    c.response_bytes = 64 * 1024;
    c.target_utilization = 0.5;
  } else {
    c.app_median_us = 500;
    c.request_bytes = static_cast<int64_t>(spec.typical_request_bytes);
    c.response_bytes = static_cast<int64_t>(spec.typical_response_bytes);
  }
  return c;
}

std::vector<ServiceStudyConfig> MakeAllStudyConfigs(const ServiceCatalog& catalog) {
  const StudiedServices& ids = catalog.studied();
  std::vector<ServiceStudyConfig> out;
  for (int32_t id : {ids.bigtable, ids.network_disk, ids.f1, ids.ssd_cache, ids.kv_store,
                     ids.ml_inference, ids.spanner, ids.video_metadata}) {
    out.push_back(MakeStudyConfig(catalog, id));
  }
  return out;
}

ServiceStudyResult RunServiceStudy(const ServiceStudyConfig& config,
                                   const ServiceStudyRun& run) {
  RpcSystemOptions sys_opts;
  sys_opts.seed = config.seed ^ Mix64(run.seed_salt + 1);
  sys_opts.tracing.sampling_probability = 1.0;
  // Scale stack costs for this service's channel configuration.
  CycleCostModel costs;
  costs.serialize_fixed *= config.cost_scale;
  costs.serialize_per_byte *= config.cost_scale;
  costs.parse_fixed *= config.cost_scale;
  costs.parse_per_byte *= config.cost_scale;
  costs.compress_fixed *= config.cost_scale;
  costs.compress_per_byte *= config.cost_scale;
  costs.decompress_fixed *= config.cost_scale;
  costs.decompress_per_byte *= config.cost_scale;
  costs.encrypt_fixed *= config.cost_scale;
  costs.encrypt_per_byte *= config.cost_scale;
  costs.netstack_fixed *= config.cost_scale;
  costs.netstack_per_packet *= config.cost_scale;
  costs.netstack_per_byte *= config.cost_scale;
  costs.rpclib_fixed_per_side *= config.cost_scale;
  sys_opts.costs = costs;
  RpcSystem system(sys_opts);
  const Topology& topo = system.topology();

  const ClusterId server_cluster = run.server_cluster;
  const ClusterId client_cluster =
      run.client_cluster >= 0 ? run.client_cluster : server_cluster;
  assert(server_cluster < topo.num_clusters());
  assert(client_cluster < topo.num_clusters());

  constexpr MethodId kMethod = 1;
  Rng workload_rng(config.seed ^ Mix64(run.seed_salt + 2));

  // --- Servers.
  ServerOptions server_opts;
  server_opts.app_workers = config.app_workers;
  server_opts.io_workers = config.io_workers;
  server_opts.app_speed_factor = run.app_slowdown;
  server_opts.wakeup_latency = run.wakeup_latency;
  Rng handler_rng(config.seed ^ Mix64(run.seed_salt + 3));
  std::vector<std::unique_ptr<Server>> servers;
  std::vector<MachineId> server_machines;
  for (int s = 0; s < config.num_servers; ++s) {
    const MachineId machine = topo.MachineAt(server_cluster, s);
    server_machines.push_back(machine);
    auto server = std::make_unique<Server>(&system, machine, server_opts);
    server->RegisterMethod(kMethod, config.service_name + "/Study",
                           [&config, &handler_rng](std::shared_ptr<ServerCall> call) {
                             ServeStudyCall(config, handler_rng, call);
                           });
    servers.push_back(std::move(server));
  }

  // --- Clients with open-loop Poisson arrivals. A worker is occupied for the
  // scheduler wake-up as well as the handler proper, so both count toward the
  // per-job service time when deriving the arrival rate for the target
  // utilization.
  const double mean_app_us = config.app_median_us *
                                 std::exp(config.app_sigma * config.app_sigma / 2.0) *
                                 run.app_slowdown +
                             ToMicros(run.wakeup_latency);
  const double total_workers = static_cast<double>(config.num_servers * config.app_workers);
  const double lambda_total_per_us =
      config.target_utilization * total_workers / mean_app_us;
  const double lambda_client_per_us = lambda_total_per_us / config.num_clients;

  ClientOptions client_opts;
  client_opts.rx_workers = config.client_rx_workers;
  client_opts.rx_processing_overhead = DurationFromMicros(config.client_rx_overhead_us);
  std::vector<std::unique_ptr<Client>> clients;
  const int client_base = topo.machines_per_cluster() / 2;
  for (int c = 0; c < config.num_clients; ++c) {
    // Clients sit on the upper half of the cluster's machines (or in the
    // remote client cluster for cross-cluster runs).
    const MachineId machine = topo.MachineAt(client_cluster, client_base + c);
    clients.push_back(std::make_unique<Client>(&system, machine, client_opts));
  }

  Simulator& sim = system.sim();
  const double lambda_client_per_second = lambda_client_per_us * 1e6;
  std::vector<std::unique_ptr<EpochArrivals>> arrivals;
  for (int c = 0; c < config.num_clients; ++c) {
    Client* client = clients[static_cast<size_t>(c)].get();
    auto rng = std::make_shared<Rng>(workload_rng.Fork(static_cast<uint64_t>(c) + 100));
    arrivals.push_back(std::make_unique<EpochArrivals>(
        &sim, lambda_client_per_second, config.duration,
        workload_rng.NextUint64(),
        [&server_machines, client, rng, &config]() {
          const size_t target_idx = rng->NextBounded(server_machines.size());
          CallOptions opts;
          opts.service_id = config.service_id;
          if (config.hedged && server_machines.size() > 1) {
            opts.hedge_delay =
                DurationFromMicros(config.app_median_us * config.hedge_delay_multiplier);
            opts.hedge_target = server_machines[(target_idx + 1) % server_machines.size()];
          }
          client->Call(server_machines[target_idx], kMethod,
                       Payload::Modeled(config.request_bytes), opts,
                       [](const CallResult&, Payload) {});
        }));
    // One epoch for the whole run, armed before the next client's process is
    // built so each chain's first event takes its place in the schedule.
    arrivals.back()->ArmEpoch(kMaxSimTime);
  }

  sim.Run();

  ServiceStudyResult result;
  for (const auto& process : arrivals) {
    result.calls_issued += static_cast<uint64_t>(process->arrivals());
  }
  for (const Span& span : system.tracer().spans()) {
    if (span.start_time >= config.warmup) {
      result.spans.push_back(span);
    }
  }
  const SimDuration elapsed = config.duration;
  double util = 0;
  for (auto& server : servers) {
    util += server->AppUtilization(elapsed);
  }
  result.server_app_utilization = util / config.num_servers;
  for (auto& client : clients) {
    result.wasted_cycles += client->wasted_cycles();
  }
  return result;
}

void ServeStudyCall(const ServiceStudyConfig& config, Rng& rng,
                    const std::shared_ptr<ServerCall>& call, std::function<void()> then) {
  double app_us;
  if (config.fast_weight > 0 && rng.NextBool(config.fast_weight)) {
    app_us = rng.NextLognormal(std::log(config.fast_median_us), 0.4);
  } else {
    app_us = rng.NextLognormal(std::log(config.app_median_us), config.app_sigma);
  }
  if (rng.NextBool(config.error_prob)) {
    // Errors fail partway through processing.
    call->Compute(DurationFromMicros(app_us * 0.3), [call]() {
      call->Finish(NotFoundError("entity not found"), Payload::Modeled(64));
    });
    return;
  }
  if (!then) {
    then = [call, bytes = config.response_bytes]() {
      call->Finish(Status::Ok(), Payload::Modeled(bytes));
    };
  }
  call->Compute(DurationFromMicros(app_us), std::move(then));
}

}  // namespace rpcscope
