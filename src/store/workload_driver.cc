#include "store/workload_driver.h"

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "util/alias_table.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace piggy {

double DriverReport::NormalizedQueryLoadMean() const {
  if (per_server_queries.empty()) return 0;
  uint64_t total = 0;
  for (uint64_t q : per_server_queries) total += q;
  if (total == 0) return 0;
  double sum = 0;
  for (uint64_t q : per_server_queries) {
    sum += static_cast<double>(q) / static_cast<double>(total);
  }
  return sum / static_cast<double>(per_server_queries.size());
}

double DriverReport::NormalizedQueryLoadVariance() const {
  if (per_server_queries.empty()) return 0;
  uint64_t total = 0;
  for (uint64_t q : per_server_queries) total += q;
  if (total == 0) return 0;
  double mean = NormalizedQueryLoadMean();
  double sum_sq = 0;
  for (uint64_t q : per_server_queries) {
    double norm = static_cast<double>(q) / static_cast<double>(total);
    sum_sq += (norm - mean) * (norm - mean);
  }
  return sum_sq / static_cast<double>(per_server_queries.size());
}

std::string DriverReport::ToString() const {
  return StrFormat(
      "requests=%lu (shares=%lu queries=%lu) msgs/req=%.3f throughput=%.0f "
      "audits=%zu",
      static_cast<unsigned long>(client.requests()),
      static_cast<unsigned long>(client.share_requests),
      static_cast<unsigned long>(client.query_requests), messages_per_request,
      actual_throughput, audited_queries);
}

Result<DriverReport> RunWorkloadDriver(Prototype& prototype, const Workload& workload,
                                       const DriverOptions& options) {
  if (workload.num_users() != prototype.num_users()) {
    return Status::InvalidArgument("workload size does not match prototype graph");
  }
  const double total_p = workload.TotalProduction();
  const double total_c = workload.TotalConsumption();
  if (total_p <= 0 || total_c <= 0) {
    return Status::InvalidArgument("workload must have positive total rates");
  }

  AliasTable share_sampler(workload.production);
  AliasTable query_sampler(workload.consumption);
  const double p_share = total_p / (total_p + total_c);
  Rng rng(options.seed);

  DriverReport report;
  for (size_t i = 0; i < options.num_requests; ++i) {
    if (rng.Bernoulli(p_share)) {
      prototype.ShareEvent(share_sampler.Sample(rng));
    } else {
      NodeId u = query_sampler.Sample(rng);
      Prototype::AuditToken token = prototype.BeginAudit();
      std::vector<EventTuple> stream = prototype.QueryStream(u);
      if (options.audit_every > 0 &&
          (report.audited_queries == 0 ||
           prototype.client().metrics().query_requests % options.audit_every == 0)) {
        PIGGY_RETURN_NOT_OK(prototype.AuditStream(u, stream, token));
        ++report.audited_queries;
      }
    }
  }

  report.client = prototype.client().metrics();
  report.per_server_queries = prototype.PerServerQueryLoad();
  report.per_server_updates = prototype.PerServerUpdateLoad();
  report.messages_per_request = report.client.MessagesPerRequest();
  report.actual_throughput = prototype.ActualThroughput();
  return report;
}

}  // namespace piggy
