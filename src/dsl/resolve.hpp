// Name resolution for the SmartScript evaluator, run once per analysed
// app by ir::AnalyzeApp (the counterpart of the paper's Translator, §6:
// IotSan translates each app once, so the model checker's transitions
// never look a name up).
//
// ResolveNames annotates the AST (the resolution fields of Expr, Stmt
// and MethodDecl):
//   * each method's locals, closures' included, become frame slots.  An
//     identifier names the slot of the innermost scope that can declare
//     it and each slot its enclosing namesake, so the evaluator can
//     reproduce its scope-stack lookup (the innermost declared one wins)
//     by walking slots;
//   * builtin, member and platform names become Builtin ids, free calls
//     their app method, `current<Attr>` members their attribute name,
//     identifiers their app input;
//   * GString `${...}` fragments are parsed once.
// Scopes are the evaluator's: a method or closure body, an if branch, a
// for-in loop (its variable and body), a while loop (its condition and
// body), and a block.  The result depends on the app alone, so every
// model of a check shares it; model-specific tables live in
// model::SystemModel.
#pragma once

#include "dsl/ast.hpp"

namespace iotsan::dsl {

// Every name the evaluator gives a meaning: platform objects, free
// functions, Math functions, methods, members and event fields.  One id
// per spelling; each evaluator dispatch switches over the ids it knows.
#define IOTSAN_BUILTINS(X)                                                 \
  X(kState, "state") X(kLocation, "location") X(kApp, "app")               \
  X(kLog, "log") X(kMath, "Math") X(kSettings, "settings")                 \
  X(kSubscribe, "subscribe") X(kUnschedule, "unschedule")                  \
  X(kPause, "pause") X(kInitialize, "initialize") X(kUpdated, "updated")   \
  X(kUnsubscribe, "unsubscribe") X(kRunIn, "runIn")                        \
  X(kRunOnce, "runOnce") X(kSchedule, "schedule")                          \
  X(kSetLocationMode, "setLocationMode")                                   \
  X(kSendLocationEvent, "sendLocationEvent") X(kSendEvent, "sendEvent")    \
  X(kCreateFakeEvent, "createFakeEvent") X(kSendSms, "sendSms")            \
  X(kSendSmsMessage, "sendSmsMessage") X(kSendPush, "sendPush")            \
  X(kSendPushMessage, "sendPushMessage")                                   \
  X(kSendNotification, "sendNotification")                                 \
  X(kSendNotificationEvent, "sendNotificationEvent")                       \
  X(kSendNotificationToContacts, "sendNotificationToContacts")             \
  X(kHttpPost, "httpPost") X(kHttpGet, "httpGet")                          \
  X(kHttpPostJson, "httpPostJson") X(kGetAllDevices, "getAllDevices")      \
  X(kGetChildDevices, "getChildDevices")                                   \
  X(kFindAllDevices, "findAllDevices")                                     \
  X(kDiscoverDevices, "discoverDevices") X(kNow, "now")                    \
  X(kTimeOfDayIsBetween, "timeOfDayIsBetween")                             \
  X(kGetSunriseAndSunset, "getSunriseAndSunset")                           \
  X(kParseJson, "parseJson") X(kAbs, "abs") X(kMax, "max") X(kMin, "min")  \
  X(kRound, "round") X(kFloor, "floor") X(kCeil, "ceil")                   \
  X(kToInteger, "toInteger") X(kIntValue, "intValue") X(kToLong, "toLong") \
  X(kToDouble, "toDouble") X(kToFloat, "toFloat")                          \
  X(kToBigDecimal, "toBigDecimal") X(kToString, "toString") X(kGet, "get") \
  X(kContainsKey, "containsKey") X(kCurrentValue, "currentValue")          \
  X(kLatestValue, "latestValue") X(kHasCapability, "hasCapability")        \
  X(kRefresh, "refresh") X(kPoll, "poll") X(kPing, "ping")                 \
  X(kConfigure, "configure") X(kEach, "each") X(kFind, "find")             \
  X(kFindAll, "findAll") X(kCollect, "collect") X(kAny, "any")             \
  X(kEvery, "every") X(kCount, "count") X(kFirst, "first")                 \
  X(kLast, "last") X(kSize, "size") X(kIsEmpty, "isEmpty")                 \
  X(kContains, "contains") X(kSum, "sum") X(kJoin, "join")                 \
  X(kUnique, "unique") X(kSort, "sort") X(kReverse, "reverse")             \
  X(kFlatten, "flatten") X(kToLowerCase, "toLowerCase")                    \
  X(kToUpperCase, "toUpperCase") X(kTrim, "trim")                          \
  X(kStartsWith, "startsWith") X(kEndsWith, "endsWith")                    \
  X(kEqualsIgnoreCase, "equalsIgnoreCase") X(kReplaceAll, "replaceAll")    \
  X(kLength, "length") X(kIsNumber, "isNumber") X(kId, "id")               \
  X(kLabel, "label") X(kDisplayName, "displayName") X(kName, "name")       \
  X(kMode, "mode") X(kModes, "modes") X(kValue, "value")                   \
  X(kNumericValue, "numericValue") X(kDoubleValue, "doubleValue")          \
  X(kIntegerValue, "integerValue") X(kDevice, "device")                    \
  X(kDeviceId, "deviceId") X(kIsStateChange, "isStateChange")              \
  X(kDescriptionText, "descriptionText")

enum Builtin : int {
#define IOTSAN_BUILTIN_ENUM(id, spelling) id,
  IOTSAN_BUILTINS(IOTSAN_BUILTIN_ENUM)
#undef IOTSAN_BUILTIN_ENUM
  /// Free calls of any `runEvery*` name (recurring schedules).
  kRunEvery,
};

/// Resolves `app`'s names (see above).
void ResolveNames(App& app);

}  // namespace iotsan::dsl
