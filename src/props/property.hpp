// Safety properties (paper §8, Table 4).
//
// IotSan verifies five classes of properties:
//   * free of conflicting commands  — per-cascade monitor
//   * free of repeated commands     — per-cascade monitor
//   * safe physical states          — LTL safety invariants over device
//                                     roles and the location mode
//   * no suspicious app behaviour   — leakage / security-sensitive-command
//                                     monitors (SMS recipients, network
//                                     interfaces, unsubscribe, fake events)
//   * robustness to failures        — commands must be verified and
//                                     failures reported to the user
//
// Invariant properties are written in a small textual predicate language
// (parsed with the SmartScript expression parser) over *device roles*:
//
//   !( all("presence", "presence") == "notpresent"
//      && any("mainDoorLock", "lock") == "unlocked" )
//
// Terms: any(role, attr) / all(role, attr) quantify over the devices
// carrying `role`; `mode` is the location mode; count(role, attr, value)
// counts matching devices.  A property is applicable to a deployment only
// when every role it references is present (paper §8: the LTL formulas are
// generated from the device-association info).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "dsl/ast.hpp"

namespace iotsan::props {

enum class PropertyKind {
  kInvariant,         // safe-physical-state predicate, checked at every
                      // stable state
  kNoConflict,        // free of conflicting commands
  kNoRepeat,          // free of repeated commands
  kNoNetworkLeak,     // no information flow via network interfaces
  kSmsRecipient,      // SMS recipients must match the configured contact
  kNoSensitiveCmd,    // no unsubscribe()
  kNoFakeEvent,       // no synthetic device events
  kRobustness,        // commands verified; failure notifications sent
};

struct Property {
  std::string id;           // "P06"
  std::string category;     // Table 4 category
  std::string description;  // human-readable statement of the SAFE state
  PropertyKind kind = PropertyKind::kInvariant;

  /// kInvariant only: predicate that must hold in every reachable stable
  /// state.  MakeInvariant parses it once; see ParsedExpression().
  std::string expression;

  /// Roles referenced by `expression`.
  std::vector<std::string> roles;
  /// Roles referenced under a universal quantifier (all()/online()).
  /// These MUST be carried by >= 1 device for the property to be
  /// applicable: all() over an empty set is vacuously true and would
  /// produce spurious violations.  Existential (any()) roles over an
  /// empty set are simply false, so their absence is harmless.
  std::vector<std::string> universal_roles;

  /// The parsed `expression`, set by MakeInvariant and shared (immutable)
  /// by every copy.  Throws iotsan::Error on a monitor-kind property,
  /// which has no expression.
  const dsl::Expr& ParsedExpression() const;

 private:
  friend Property MakeInvariant(std::string, std::string, std::string,
                                std::string);
  std::shared_ptr<const dsl::Expr> parsed_;
};

/// The 45 built-in properties (38 invariants + 7 monitors), mirroring the
/// paper's Table 4 categories and counts.
const std::vector<Property>& BuiltinProperties();

/// Looks up a built-in property by id; nullptr when unknown.
const Property* FindBuiltinProperty(const std::string& id);

/// Creates an invariant property, parsing its expression.  Role
/// references are extracted from the expression automatically.  Throws
/// iotsan::ParseError when the expression does not parse.
Property MakeInvariant(std::string id, std::string category,
                       std::string description, std::string expression);

/// Extracts the roles referenced by any()/all()/count()/online() terms.
std::vector<std::string> RolesReferenced(const dsl::Expr& expr);

/// Extracts only the roles referenced by universal terms (all()/online()).
std::vector<std::string> UniversalRolesReferenced(const dsl::Expr& expr);

/// True if the expression reads the location mode.
bool ReferencesMode(const dsl::Expr& expr);

}  // namespace iotsan::props
