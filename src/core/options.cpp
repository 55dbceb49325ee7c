#include "core/options.hpp"

#include <string>
#include <type_traits>

#include "util/error.hpp"

namespace iotsan::core {

namespace {

using R = RequestOptions;

constexpr OptionSpec kOptionTable[] = {
    {"events", "--events", "N",
     kCmdCheck | kCmdAttribute | kCmdPromela | kCmdCluster,
     "external-event bound per run (Algorithm 1; default 3, attribute: 2)",
     &R::events, 1, 64},
    {"jobs", "--jobs", "N",
     kCmdCheck | kCmdAttribute | kCmdServe | kCmdCluster,
     "worker threads (default 0 = all hardware threads); checks of "
     "several related sets print the same report at any N, single-set "
     "checks the same verdicts and counts",
     &R::jobs, 0, 1024},
    {"failures", "--failures", nullptr, kCmdCheck | kCmdCluster,
     "enumerate device/communication failure scenarios per event (paper §8)",
     &R::failures},
    {"mono", "--mono", nullptr, kCmdCheck,
     "skip dependency analysis; check all apps in one monolithic model",
     &R::mono},
    {"bitstate", "--bitstate", nullptr,
     kCmdCheck | kCmdAttribute | kCmdCluster,
     "use Spin-style BITSTATE hashing instead of the exhaustive store",
     &R::bitstate},
    {"bitstateBits", "--bitstate-bits", "P",
     kCmdCheck | kCmdAttribute | kCmdCluster,
     "BITSTATE bit-field size as a power of two (Spin -w; default 27 = "
     "16 MiB)",
     &R::bitstate_bits_pow, 10, 40, &R::bitstate},
    {"stateCompression", "--state-compression", nullptr,
     kCmdCheck | kCmdAttribute | kCmdCluster,
     "Spin-style COLLAPSE store keys: intern per-device/app-state/timer "
     "components instead of hashing full state vectors",
     &R::state_compression},
    {"first", "--first", nullptr, kCmdCheck | kCmdCluster,
     "stop at the first property violation", &R::first},
    {"allowDiscovery", "--allow-discovery", nullptr,
     kCmdCheck | kCmdAttribute | kCmdCluster,
     "check dynamic-device-discovery apps instead of rejecting them",
     &R::allow_discovery},
    {"reverifyBitstate", "--reverify-bitstate", nullptr,
     kCmdCheck | kCmdAttribute,
     "replay-verify every BITSTATE violation with an exhaustive store "
     "before reporting it (false-positive filter)",
     &R::reverify_bitstate},
    {"deadlineSeconds", "--deadline", "SECONDS", kCmdServe | kCmdCluster,
     "default wall-clock budget per request, seconds (0 = none); "
     "requests may override via options.deadlineSeconds",
     &R::deadline_seconds, 0, 86400},
};

const OptionSpec* FindKey(const std::string& key) {
  for (const OptionSpec& spec : kOptionTable) {
    if (key == spec.key) return &spec;
  }
  return nullptr;
}

}  // namespace

std::span<const OptionSpec> RequestOptionTable() { return kOptionTable; }

void SetOption(RequestOptions& options, const OptionSpec& spec,
               long long value) {
  std::visit(
      [&](auto member) {
        auto& field = options.*member;
        field = static_cast<std::remove_reference_t<decltype(field)>>(value);
      },
      spec.field);
  if (spec.implies != nullptr) options.*spec.implies = true;
}

void ParseOptionsJson(const json::Value& doc, RequestOptions& options) {
  if (!doc.is_object()) throw Error("\"options\" must be a JSON object");
  for (const auto& [key, value] : doc.AsObject()) {
    const OptionSpec* spec = FindKey(key);
    if (spec == nullptr) throw Error("unknown option \"" + key + "\"");
    const std::string name = "option \"" + key + "\" ";
    if (std::holds_alternative<bool R::*>(spec->field)) {
      if (!value.is_bool()) throw Error(name + "must be a boolean");
      SetOption(options, *spec, value.AsBool());
      continue;
    }
    try {
      SetOption(options, *spec, value.AsInteger(spec->min, spec->max));
    } catch (const Error& e) {
      throw Error(name + e.what());
    }
  }
}

json::Object OptionsToJson(const RequestOptions& options,
                           const RequestOptions& base) {
  json::Object out;
  for (const OptionSpec& spec : kOptionTable) {
    std::visit(
        [&](auto member) {
          const auto& value = options.*member;
          if (value == base.*member) return;
          using T = std::remove_cvref_t<decltype(value)>;
          if constexpr (std::is_same_v<T, bool> ||
                        std::is_same_v<T, double>) {
            out[spec.key] = value;
          } else {
            out[spec.key] = static_cast<std::int64_t>(value);
          }
        },
        spec.field);
  }
  return out;
}

}  // namespace iotsan::core
