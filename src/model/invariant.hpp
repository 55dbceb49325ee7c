// Compiled safety invariants (paper §8): each active invariant resolved
// once per SystemModel, so the search evaluates it by index.
//
// props::EvalPropertyExpr interprets a property over a StateView that
// looks every role, attribute and value up by name.  Spin instead
// compiles each assertion into the verifier; this is that step for
// IotSan.  Roles become device index lists, attribute names attribute
// indices, literals per-(device, attribute) match tables over the value
// domain, and `mode` literals per-mode match tables.  Evaluation then
// reads the state's physical cells and mode directly.
//
// The compiled form agrees with EvalPropertyExpr on every state,
// malformed expressions included: a construct the interpreter rejects
// compiles to a node that throws the same SemanticError when, and only
// when, the interpreter would reach it.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "devices/device.hpp"
#include "model/state.hpp"
#include "props/property.hpp"

namespace iotsan::model {

class CompiledInvariant {
 public:
  /// Compiles `property` (an invariant) against a model's devices and
  /// location modes.  Never throws for a malformed expression; Holds()
  /// does, exactly where the interpreter would.  `property_index` is the
  /// property's position in SystemModel::active_properties().
  CompiledInvariant(const props::Property& property,
                    std::size_t property_index,
                    const std::vector<devices::Device>& devices,
                    const std::vector<std::string>& modes);

  std::size_t property_index() const { return property_index_; }

  /// Evaluates the predicate over `state` (physical ground truth).
  /// Throws iotsan::SemanticError on malformed expressions.
  bool Holds(const SystemState& state) const;

  /// The violation diagnosis: "assertion violated: <description> (<id>)".
  const std::string& detail() const { return detail_; }

  /// True when the expression reads the location mode (mode-changing
  /// apps are then charged with its violations).
  bool references_mode() const { return references_mode_; }

  /// True when device `device` carries a role the property references:
  /// apps that actuated it along a counter-example are charged, and POR
  /// treats its attributes as visible.
  bool ReferencesDevice(int device) const {
    return role_devices_[static_cast<std::size_t>(device)] != 0;
  }

 private:
  struct Program;

  std::size_t property_index_ = 0;
  std::string detail_;
  bool references_mode_ = false;
  std::vector<char> role_devices_;
  std::shared_ptr<const Program> program_;
};

}  // namespace iotsan::model
