#include "workloads.hpp"

#include "util/error.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace perfbench {

std::unique_ptr<Workload> make_serve_mixed(std::uint64_t seed);
std::unique_ptr<Workload> make_mc_uq(std::uint64_t seed);
std::unique_ptr<Workload> make_cold_campaign(std::uint64_t seed);

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"serve_mixed", "mc_uq",
                                                 "cold_campaign"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "serve_mixed") return make_serve_mixed(seed);
  if (name == "mc_uq") return make_mc_uq(seed);
  if (name == "cold_campaign") return make_cold_campaign(seed);
  throw llamp::UsageError("unknown workload '" + name + "'");
}

EngineCounters EngineCounters::of(const llamp::api::Engine& engine) {
  EngineCounters c;
  const auto doc = llamp::JsonValue::parse(engine.metrics_json());
  for (const char* section : {"counters", "gauges"}) {
    if (const llamp::JsonValue* sec = doc.find(section)) {
      for (const auto& [name, v] : sec->members(section)) {
        c.values[name] = v.as_number(name);
      }
    }
  }
  return c;
}

double EngineCounters::operator[](const std::string& name) const {
  const auto it = values.find(name);
  return it == values.end() ? 0.0 : it->second;
}

EngineCounters EngineCounters::minus(const EngineCounters& before) const {
  EngineCounters d = *this;
  for (auto& [name, v] : d.values) v -= before[name];
  return d;
}

void EngineCounters::add(const EngineCounters& other) {
  for (const auto& [name, v] : other.values) values[name] += v;
}

std::string client_post_bytes(const std::string& path,
                              const std::string& body) {
  return "POST " + path + " HTTP/1.1\r\nHost: llamp\r\n" +
         llamp::strformat("Content-Length: %zu\r\n\r\n", body.size()) + body;
}

}  // namespace perfbench
