// Golden-value tests for the util/hash FNV-1a infrastructure and the
// cache fingerprints built on it (src/cache/fingerprint).  The pinned
// constants are the independently computed FNV-1a 64 reference values —
// if any of them moves, every on-disk cache entry and artifact
// fingerprint silently invalidates, so a failure here is a compat break,
// not a test to update casually.
#include <gtest/gtest.h>

#include "cache/fingerprint.hpp"
#include "checker/checker.hpp"
#include "config/builder.hpp"
#include "props/property.hpp"
#include "util/hash.hpp"

namespace iotsan {
namespace {

// ---- Fnv1a64 golden values ---------------------------------------------------

TEST(HashGoldenTest, Fnv1a64ReferenceVectors) {
  EXPECT_EQ(hash::Fnv1a64(""), 0xcbf29ce484222325ULL);  // offset basis
  EXPECT_EQ(hash::Fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(hash::Fnv1a64("foobar"), 0x85944171f73967e8ULL);
  EXPECT_EQ(hash::Fnv1a64("hello"), 0xa430d84680aabd0bULL);
  EXPECT_EQ(hash::Fnv1a64("iotsan"), 0xfe4cbfaeec95dde3ULL);
}

TEST(HashGoldenTest, StreamStringsAreLengthDelimited) {
  // "ab"+"c" and "a"+"bc" concatenate to the same bytes; the length
  // prefix must keep their digests apart.
  hash::Fnv1a64Stream ab_c;
  ab_c.Mix(std::string_view("ab")).Mix(std::string_view("c"));
  hash::Fnv1a64Stream a_bc;
  a_bc.Mix(std::string_view("a")).Mix(std::string_view("bc"));
  EXPECT_EQ(ab_c.digest(), 0x7e60470bf599cad6ULL);
  EXPECT_EQ(a_bc.digest(), 0xba1e1f0e0704d8eaULL);
  EXPECT_NE(ab_c.digest(), a_bc.digest());
}

TEST(HashGoldenTest, StreamIntegerAndDoubleEncodings) {
  hash::Fnv1a64Stream ints;
  ints.Mix(std::uint64_t{42});  // 8 little-endian bytes
  EXPECT_EQ(ints.digest(), 0xff3add6b3789daefULL);
  hash::Fnv1a64Stream doubles;
  doubles.Mix(1.5);  // IEEE-754 bit pattern, little endian
  EXPECT_EQ(doubles.digest(), 0xaa95e93229a27c80ULL);
}

TEST(HashGoldenTest, StreamCanonicalizesNegativeZero) {
  hash::Fnv1a64Stream pos;
  pos.Mix(0.0);
  hash::Fnv1a64Stream neg;
  neg.Mix(-0.0);
  EXPECT_EQ(pos.digest(), neg.digest());
}

TEST(HashGoldenTest, HexIsSixteenLowercaseDigits) {
  hash::Fnv1a64Stream stream;  // empty stream = offset basis
  EXPECT_EQ(stream.Hex(), "cbf29ce484222325");
}

// ---- Group-key fingerprints --------------------------------------------------

config::Deployment TinyDeployment() {
  config::DeploymentBuilder b("h");
  b.Device("m1", "motionSensor");
  b.Device("sw", "smartSwitch", {"light"});
  b.App("Brighten My Path").Devices("motion1", {"m1"}).Devices("switches",
                                                               {"sw"});
  return b.Build();
}

cache::GroupKeyInputs TinyInputs(const config::Deployment& deployment,
                                 const std::vector<props::Property>& props,
                                 const checker::CheckOptions& check,
                                 const model::ModelOptions& model) {
  cache::GroupKeyInputs inputs;
  inputs.deployment = &deployment;
  inputs.sources.emplace_back("Brighten My Path", "def h(evt) {}");
  inputs.properties = &props;
  inputs.check = &check;
  inputs.model = &model;
  inputs.version = "test-1";
  return inputs;
}

TEST(GroupKeyTest, DeterministicAcrossCalls) {
  const config::Deployment deployment = TinyDeployment();
  const std::vector<props::Property> props = props::BuiltinProperties();
  const checker::CheckOptions check;
  const model::ModelOptions model;
  cache::GroupKey a =
      cache::MakeGroupKey(TinyInputs(deployment, props, check, model));
  cache::GroupKey b =
      cache::MakeGroupKey(TinyInputs(deployment, props, check, model));
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.text, b.text);
  EXPECT_EQ(a.Hex().size(), 16u);
  EXPECT_EQ(a.digest, hash::Fnv1a64(a.text));
}

TEST(GroupKeyTest, SourceEditChangesKey) {
  const config::Deployment deployment = TinyDeployment();
  const std::vector<props::Property> props = props::BuiltinProperties();
  const checker::CheckOptions check;
  const model::ModelOptions model;
  cache::GroupKeyInputs inputs = TinyInputs(deployment, props, check, model);
  const cache::GroupKey before = cache::MakeGroupKey(inputs);
  inputs.sources[0].second = "def h(evt) { sw.on() }";
  const cache::GroupKey after = cache::MakeGroupKey(inputs);
  EXPECT_NE(before.digest, after.digest);
}

TEST(GroupKeyTest, JobsDoNotAffectKey) {
  const config::Deployment deployment = TinyDeployment();
  const std::vector<props::Property> props = props::BuiltinProperties();
  const model::ModelOptions model;
  checker::CheckOptions serial;
  serial.jobs = 1;
  checker::CheckOptions parallel;
  parallel.jobs = 8;
  const cache::GroupKey a =
      cache::MakeGroupKey(TinyInputs(deployment, props, serial, model));
  const cache::GroupKey b =
      cache::MakeGroupKey(TinyInputs(deployment, props, parallel, model));
  EXPECT_EQ(a.digest, b.digest) << "the key must be --jobs independent";
}

TEST(GroupKeyTest, LanesOfASpreadSearchChangeKey) {
  const config::Deployment deployment = TinyDeployment();
  const std::vector<props::Property> props = props::BuiltinProperties();
  const checker::CheckOptions check;
  const model::ModelOptions model;
  cache::GroupKeyInputs inputs = TinyInputs(deployment, props, check, model);
  const cache::GroupKey one_lane = cache::MakeGroupKey(inputs);
  EXPECT_EQ(one_lane.text.find("lanes"), std::string::npos);
  inputs.lanes = 4;
  const cache::GroupKey spread = cache::MakeGroupKey(inputs);
  EXPECT_NE(spread.digest, one_lane.digest);
  EXPECT_NE(spread.text.find("\"lanes\":4"), std::string::npos);
}

TEST(GroupKeyTest, CheckOptionsThatMatterChangeKey) {
  const config::Deployment deployment = TinyDeployment();
  const std::vector<props::Property> props = props::BuiltinProperties();
  const model::ModelOptions model;
  checker::CheckOptions base;
  const cache::GroupKey key_base =
      cache::MakeGroupKey(TinyInputs(deployment, props, base, model));
  checker::CheckOptions deeper = base;
  deeper.max_events = base.max_events + 1;
  EXPECT_NE(
      cache::MakeGroupKey(TinyInputs(deployment, props, deeper, model)).digest,
      key_base.digest);
  checker::CheckOptions failures = base;
  failures.model_failures = true;
  EXPECT_NE(cache::MakeGroupKey(TinyInputs(deployment, props, failures, model))
                .digest,
            key_base.digest);
  checker::CheckOptions bitstate = base;
  bitstate.store = checker::StoreKind::kBitstate;
  EXPECT_NE(cache::MakeGroupKey(TinyInputs(deployment, props, bitstate, model))
                .digest,
            key_base.digest);
}

TEST(GroupKeyTest, VersionChangesKey) {
  const config::Deployment deployment = TinyDeployment();
  const std::vector<props::Property> props = props::BuiltinProperties();
  const checker::CheckOptions check;
  const model::ModelOptions model;
  cache::GroupKeyInputs inputs = TinyInputs(deployment, props, check, model);
  const cache::GroupKey v1 = cache::MakeGroupKey(inputs);
  inputs.version = "test-2";
  const cache::GroupKey v2 = cache::MakeGroupKey(inputs);
  EXPECT_NE(v1.digest, v2.digest);
}

TEST(GroupKeyTest, PropertySetFingerprintTracksContent) {
  std::vector<props::Property> props;
  props.push_back(props::MakeInvariant("U1", "User", "light stays off",
                                       R"(!(any("light", "switch") == "on"))"));
  const std::uint64_t before = cache::PropertySetFingerprint(props);
  props[0].description = "edited";
  EXPECT_NE(cache::PropertySetFingerprint(props), before);
}

}  // namespace
}  // namespace iotsan
