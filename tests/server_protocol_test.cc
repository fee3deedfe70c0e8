// Wire protocol building blocks (server/protocol.h, server/json.h): the
// status <-> wire error table shared by server and client, scalar Value
// encoding for $params, response envelopes, and the strict JSON parser.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <string>

#include "common/json_text.h"
#include "common/status.h"
#include "server/json.h"
#include "server/protocol.h"

namespace gpml {
namespace server {
namespace {

// --- the wire error table --------------------------------------------------

// Every StatusCode the codebase can produce, no omissions: adding a code
// to common/status.h without extending the wire table must fail here.
const StatusCode kAllCodes[] = {
    StatusCode::kOk,           StatusCode::kInvalidArgument,
    StatusCode::kSyntaxError,  StatusCode::kSemanticError,
    StatusCode::kNonTerminating, StatusCode::kNotFound,
    StatusCode::kAlreadyExists, StatusCode::kResourceExhausted,
    StatusCode::kUnimplemented, StatusCode::kInternal,
};

TEST(WireErrorTableTest, CoversEveryStatusCode) {
  ASSERT_EQ(sizeof(kAllCodes) / sizeof(kAllCodes[0]), kWireErrorTableSize)
      << "update kAllCodes and the protocol table together";
  std::set<int> codes;
  std::set<std::string> names;
  for (StatusCode code : kAllCodes) {
    WireError wire = ToWireError(code);
    ASSERT_NE(wire.name, nullptr);
    EXPECT_NE(wire.name[0], '\0');
    codes.insert(wire.code);
    names.insert(std::string(wire.name));
  }
  // Distinct on both axes: a client can dispatch on either.
  EXPECT_EQ(codes.size(), kWireErrorTableSize);
  EXPECT_EQ(names.size(), kWireErrorTableSize);
}

// The numeric assignments are wire-stable: changing one breaks deployed
// clients, so each is pinned individually.
TEST(WireErrorTableTest, StableAssignments) {
  EXPECT_EQ(ToWireError(StatusCode::kOk).code, 0);
  EXPECT_STREQ(ToWireError(StatusCode::kOk).name, "OK");
  EXPECT_EQ(ToWireError(StatusCode::kInvalidArgument).code, 100);
  EXPECT_STREQ(ToWireError(StatusCode::kInvalidArgument).name,
            "INVALID_ARGUMENT");
  EXPECT_EQ(ToWireError(StatusCode::kSyntaxError).code, 101);
  EXPECT_STREQ(ToWireError(StatusCode::kSyntaxError).name, "SYNTAX_ERROR");
  EXPECT_EQ(ToWireError(StatusCode::kSemanticError).code, 102);
  EXPECT_STREQ(ToWireError(StatusCode::kSemanticError).name, "SEMANTIC_ERROR");
  EXPECT_EQ(ToWireError(StatusCode::kNonTerminating).code, 103);
  EXPECT_STREQ(ToWireError(StatusCode::kNonTerminating).name,
            "NON_TERMINATING");
  EXPECT_EQ(ToWireError(StatusCode::kNotFound).code, 104);
  EXPECT_STREQ(ToWireError(StatusCode::kNotFound).name, "NOT_FOUND");
  EXPECT_EQ(ToWireError(StatusCode::kAlreadyExists).code, 105);
  EXPECT_STREQ(ToWireError(StatusCode::kAlreadyExists).name, "ALREADY_EXISTS");
  EXPECT_EQ(ToWireError(StatusCode::kResourceExhausted).code, 106);
  EXPECT_STREQ(ToWireError(StatusCode::kResourceExhausted).name,
            "RESOURCE_EXHAUSTED");
  EXPECT_EQ(ToWireError(StatusCode::kUnimplemented).code, 107);
  EXPECT_STREQ(ToWireError(StatusCode::kUnimplemented).name, "UNIMPLEMENTED");
  EXPECT_EQ(ToWireError(StatusCode::kInternal).code, 108);
  EXPECT_STREQ(ToWireError(StatusCode::kInternal).name, "INTERNAL");
}

TEST(WireErrorTableTest, RoundTripsEveryCode) {
  for (StatusCode code : kAllCodes) {
    EXPECT_EQ(FromWireCode(ToWireError(code).code), code);
  }
}

TEST(WireErrorTableTest, UnknownWireCodeMapsToInternal) {
  EXPECT_EQ(FromWireCode(1), StatusCode::kInternal);
  EXPECT_EQ(FromWireCode(99), StatusCode::kInternal);
  EXPECT_EQ(FromWireCode(109), StatusCode::kInternal);
  EXPECT_EQ(FromWireCode(-1), StatusCode::kInternal);
}

// --- response envelopes ----------------------------------------------------

TEST(EnvelopeTest, ErrorResponseShape) {
  std::string line = ErrorResponse(Status::NotFound("no such cursor"),
                                   kReasonSessionExpired, "42");
  Result<JsonValue> parsed = ParseJson(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const JsonValue* ok = parsed->Find("ok");
  ASSERT_NE(ok, nullptr);
  EXPECT_FALSE(ok->bool_v);
  const JsonValue* id = parsed->Find("id");
  ASSERT_NE(id, nullptr);
  EXPECT_EQ(id->int_v, 42);
  const JsonValue* error = parsed->Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->Find("code")->int_v, 104);
  EXPECT_EQ(error->Find("name")->string_v, "NOT_FOUND");
  EXPECT_EQ(error->Find("message")->string_v, "no such cursor");
  EXPECT_EQ(error->Find("reason")->string_v, "SESSION_EXPIRED");

  // The client-side reconstruction through the same table.
  Status status = StatusFromWireError(*error);
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_NE(status.message().find("no such cursor"), std::string::npos);
  EXPECT_NE(status.message().find("SESSION_EXPIRED"), std::string::npos);
  EXPECT_EQ(ReasonFromWireError(*error), "SESSION_EXPIRED");
}

TEST(EnvelopeTest, ErrorResponseWithoutIdOrReason) {
  std::string line = ErrorResponse(Status::SyntaxError("bad token"), "", "");
  Result<JsonValue> parsed = ParseJson(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->Find("id"), nullptr);
  const JsonValue* error = parsed->Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->Find("code")->int_v, 101);
  EXPECT_EQ(error->Find("reason"), nullptr);
  EXPECT_EQ(ReasonFromWireError(*error), "");
}

TEST(EnvelopeTest, ErrorMessageIsEscaped) {
  std::string line =
      ErrorResponse(Status::InvalidArgument("quote \" and\nnewline"), "", "");
  Result<JsonValue> parsed = ParseJson(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n  " << line;
  EXPECT_EQ(parsed->Find("error")->Find("message")->string_v,
            "quote \" and\nnewline");
}

TEST(EnvelopeTest, OkResponseHead) {
  EXPECT_EQ(OkResponseHead(""), "{\"ok\":true");
  EXPECT_EQ(OkResponseHead("7"), "{\"ok\":true,\"id\":7");
  Result<JsonValue> parsed = ParseJson(OkResponseHead("7") + "}");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->Find("ok")->bool_v);
}

TEST(EnvelopeTest, StatusFromWireErrorDefensiveDefaults) {
  // Degenerate error objects from a hostile/buggy server must still come
  // back as errors, never as kOk.
  Result<JsonValue> empty = ParseJson("{}");
  ASSERT_TRUE(empty.ok());
  Status status = StatusFromWireError(*empty);
  EXPECT_EQ(status.code(), StatusCode::kInternal);

  Result<JsonValue> ok_code = ParseJson("{\"code\":0,\"message\":\"lies\"}");
  ASSERT_TRUE(ok_code.ok());
  EXPECT_EQ(StatusFromWireError(*ok_code).code(), StatusCode::kInternal);
}

// --- scalar Value encoding for $params -------------------------------------

std::string ValueJson(const Value& value) {
  std::string out;
  AppendJsonValue(&out, value);
  return out;
}

Value RoundTripValue(const Value& value) {
  std::string wire = ValueJson(value);
  Result<JsonValue> parsed = ParseJson(wire);
  EXPECT_TRUE(parsed.ok()) << wire << ": " << parsed.status();
  Result<Value> back = WireJsonToValue(*parsed);
  EXPECT_TRUE(back.ok()) << wire;
  return *back;
}

TEST(ValueWireTest, ScalarsRoundTrip) {
  EXPECT_EQ(RoundTripValue(Value::Null()).type(), ValueType::kNull);
  EXPECT_EQ(RoundTripValue(Value::Bool(true)).bool_value(), true);
  EXPECT_EQ(RoundTripValue(Value::Bool(false)).bool_value(), false);
  EXPECT_EQ(RoundTripValue(Value::Int(0)).int_value(), 0);
  EXPECT_EQ(RoundTripValue(Value::Int(-7)).int_value(), -7);
  EXPECT_EQ(RoundTripValue(
                Value::Int(std::numeric_limits<int64_t>::max()))
                .int_value(),
            std::numeric_limits<int64_t>::max());
  EXPECT_EQ(RoundTripValue(
                Value::Int(std::numeric_limits<int64_t>::min()))
                .int_value(),
            std::numeric_limits<int64_t>::min());
  EXPECT_EQ(RoundTripValue(Value::String("hi \"there\"")).string_value(),
            "hi \"there\"");
  EXPECT_EQ(RoundTripValue(Value::Double(2.5)).double_value(), 2.5);
}

// An integral double must come back as a double, not collapse into an
// int: 3.0 and 3 are different GQL values.
TEST(ValueWireTest, IntegralDoubleStaysDouble) {
  EXPECT_EQ(ValueJson(Value::Double(3.0)), "3.0");
  Value back = RoundTripValue(Value::Double(3.0));
  EXPECT_EQ(back.type(), ValueType::kDouble);
  EXPECT_EQ(back.double_value(), 3.0);
  Value as_int = RoundTripValue(Value::Int(3));
  EXPECT_EQ(as_int.type(), ValueType::kInt);
}

// NaN and the infinities have no JSON spelling: a parameter holding one is
// sent as null, and the request line still parses.
TEST(ValueWireTest, NonFiniteParamsAreNull) {
  Params params{{"a", Value::Double(std::numeric_limits<double>::quiet_NaN())},
                {"b", Value::Double(std::numeric_limits<double>::infinity())},
                {"c", Value::Double(0.1)}};
  std::string wire = ParamsToWireJson(params);
  EXPECT_EQ(wire, "{\"a\":null,\"b\":null,\"c\":0.10000000000000001}");
  Result<JsonValue> parsed = ParseJson(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->Find("c")->double_v, 0.1);
}

TEST(ValueWireTest, CompositeJsonRejectedAsParam) {
  Result<JsonValue> arr = ParseJson("[1,2]");
  ASSERT_TRUE(arr.ok());
  EXPECT_FALSE(WireJsonToValue(*arr).ok());
  Result<JsonValue> obj = ParseJson("{\"a\":1}");
  ASSERT_TRUE(obj.ok());
  EXPECT_FALSE(WireJsonToValue(*obj).ok());
}

TEST(ValueWireTest, ParamsRoundTrip) {
  Params params;
  params["owner"] = Value::String("u7");
  params["depth"] = Value::Int(3);
  params["rate"] = Value::Double(0.5);
  params["flag"] = Value::Bool(true);
  std::string wire = ParamsToWireJson(params);
  Result<JsonValue> parsed = ParseJson(wire);
  ASSERT_TRUE(parsed.ok()) << wire;
  Result<Params> back = WireJsonToParams(*parsed);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), params.size());
  EXPECT_EQ((*back)["owner"].string_value(), "u7");
  EXPECT_EQ((*back)["depth"].int_value(), 3);
  EXPECT_EQ((*back)["rate"].double_value(), 0.5);
  EXPECT_EQ((*back)["flag"].bool_value(), true);
}

TEST(ValueWireTest, AbsentParamsMeansEmpty) {
  JsonValue null_json;  // Default-constructed: kNull.
  Result<Params> params = WireJsonToParams(null_json);
  ASSERT_TRUE(params.ok());
  EXPECT_TRUE(params->empty());

  Result<JsonValue> arr = ParseJson("[1]");
  ASSERT_TRUE(arr.ok());
  EXPECT_FALSE(WireJsonToParams(*arr).ok()) << "params must be an object";
}

// --- the strict JSON parser ------------------------------------------------

TEST(ParseJsonTest, Scalars) {
  EXPECT_TRUE(ParseJson("null")->is_null());
  EXPECT_TRUE(ParseJson("true")->bool_v);
  EXPECT_FALSE(ParseJson("false")->bool_v);
  EXPECT_EQ(ParseJson("42")->int_v, 42);
  EXPECT_EQ(ParseJson("-42")->int_v, -42);
  EXPECT_TRUE(ParseJson("4.5")->is_double());
  EXPECT_EQ(ParseJson("4.5")->double_v, 4.5);
  EXPECT_TRUE(ParseJson("1e3")->is_double());
  EXPECT_EQ(ParseJson("1e3")->double_v, 1000.0);
  EXPECT_EQ(ParseJson("\"hi\"")->string_v, "hi");
  EXPECT_EQ(ParseJson("  42  ")->int_v, 42) << "surrounding whitespace";
}

TEST(ParseJsonTest, Int64BoundsStayInt) {
  EXPECT_EQ(ParseJson("9223372036854775807")->int_v,
            std::numeric_limits<int64_t>::max());
  EXPECT_EQ(ParseJson("-9223372036854775808")->int_v,
            std::numeric_limits<int64_t>::min());
}

TEST(ParseJsonTest, IntOverflowBecomesDouble) {
  Result<JsonValue> over = ParseJson("9223372036854775808");
  ASSERT_TRUE(over.ok());
  EXPECT_TRUE(over->is_double());
  Result<JsonValue> under = ParseJson("-9223372036854775809");
  ASSERT_TRUE(under.ok());
  EXPECT_TRUE(under->is_double());
}

TEST(ParseJsonTest, StringEscapes) {
  EXPECT_EQ(ParseJson("\"a\\\"b\\\\c\\/d\\bx\\fy\\nz\\rw\\tv\"")->string_v,
            "a\"b\\c/d\bx\fy\nz\rw\tv");
  EXPECT_EQ(ParseJson("\"\\u0041\"")->string_v, "A");
  EXPECT_EQ(ParseJson("\"\\u00e9\"")->string_v, "\xc3\xa9");
  EXPECT_EQ(ParseJson("\"\\u20ac\"")->string_v, "\xe2\x82\xac");
}

TEST(ParseJsonTest, SurrogatePairsCombine) {
  // U+1F600 as \uD83D\uDE00 must decode to the 4-byte UTF-8 sequence.
  EXPECT_EQ(ParseJson("\"\\ud83d\\ude00\"")->string_v, "\xf0\x9f\x98\x80");
}

TEST(ParseJsonTest, LoneSurrogateIsError) {
  EXPECT_FALSE(ParseJson("\"\\ud83d\"").ok());
  EXPECT_FALSE(ParseJson("\"\\ud83dx\"").ok());
  EXPECT_FALSE(ParseJson("\"\\ude00\"").ok()) << "low surrogate first";
}

TEST(ParseJsonTest, RawControlCharInStringIsError) {
  EXPECT_FALSE(ParseJson("\"a\nb\"").ok());
  EXPECT_FALSE(ParseJson(std::string("\"a\0b\"", 5)).ok());
}

TEST(ParseJsonTest, InvalidRawUtf8IsError) {
  EXPECT_FALSE(ParseJson("\"a\x80z\"").ok());
  EXPECT_FALSE(ParseJson("\"\xed\xa0\x80\"").ok()) << "CESU surrogate";
}

TEST(ParseJsonTest, TrailingGarbageIsError) {
  EXPECT_FALSE(ParseJson("42 43").ok());
  EXPECT_FALSE(ParseJson("{}x").ok());
  EXPECT_FALSE(ParseJson("{} {}").ok());
  EXPECT_TRUE(ParseJson("{}  ").ok()) << "trailing whitespace is fine";
}

TEST(ParseJsonTest, MalformedDocuments) {
  const char* bad[] = {"",      "{",    "[",     "{\"a\"}", "{\"a\":}",
                       "[1,]",  "{,}",  "\"",    "tru",     "01",
                       "+1",    "1.",   ".5",    "nul",     "[1 2]",
                       "{\"a\" 1}", "{1:2}"};
  for (const char* doc : bad) {
    EXPECT_FALSE(ParseJson(doc).ok()) << "should reject: " << doc;
  }
}

TEST(ParseJsonTest, NestingDepthCapped) {
  std::string at_cap(kJsonMaxDepth, '[');
  at_cap += std::string(kJsonMaxDepth, ']');
  EXPECT_TRUE(ParseJson(at_cap).ok()) << "depth == kJsonMaxDepth is legal";
  std::string over(kJsonMaxDepth + 1, '[');
  over += std::string(kJsonMaxDepth + 1, ']');
  EXPECT_FALSE(ParseJson(over).ok());
}

TEST(ParseJsonTest, ObjectsKeepOrderAndDuplicates) {
  Result<JsonValue> parsed = ParseJson("{\"a\":1,\"b\":2,\"a\":3}");
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->object_v.size(), 3u);
  EXPECT_EQ(parsed->object_v[0].first, "a");
  EXPECT_EQ(parsed->object_v[1].first, "b");
  EXPECT_EQ(parsed->Find("a")->int_v, 1) << "Find returns the first";
  EXPECT_EQ(parsed->Find("missing"), nullptr);
}

TEST(ParseJsonTest, RawSpanRecoversOriginalBytes) {
  std::string doc = "{\"a\": [1,  2], \"b\": {\"c\": \"x\\ny\"}}";
  Result<JsonValue> parsed = ParseJson(doc);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->RawSpan(doc), doc);
  EXPECT_EQ(parsed->Find("a")->RawSpan(doc), "[1,  2]");
  EXPECT_EQ(parsed->Find("b")->RawSpan(doc), "{\"c\": \"x\\ny\"}");
  EXPECT_EQ(parsed->Find("b")->Find("c")->RawSpan(doc), "\"x\\ny\"");
}

TEST(ParseJsonTest, SerializeRoundTrips) {
  const char* docs[] = {
      "null", "true", "-42", "\"caf\xc3\xa9\"", "[1,2.5,\"x\",null]",
      "{\"a\":{\"b\":[true,false]},\"c\":\"q\"}"};
  for (const char* doc : docs) {
    Result<JsonValue> first = ParseJson(doc);
    ASSERT_TRUE(first.ok()) << doc;
    std::string text = first->Serialize();
    Result<JsonValue> second = ParseJson(text);
    ASSERT_TRUE(second.ok()) << text;
    EXPECT_EQ(second->Serialize(), text) << "serialize is a fixed point";
  }
}

}  // namespace
}  // namespace server
}  // namespace gpml
