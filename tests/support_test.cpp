#include <gtest/gtest.h>

#include <map>
#include <unordered_set>

#include "msc/support/bitset.hpp"
#include "msc/support/diag.hpp"
#include "msc/support/dot.hpp"
#include "msc/support/json.hpp"
#include "msc/support/rng.hpp"
#include "msc/support/str.hpp"
#include "msc/support/value.hpp"

using namespace msc;

// ---------------------------------------------------------------- DynBitset

TEST(DynBitset, StartsEmpty) {
  DynBitset b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.count(), 0u);
  EXPECT_EQ(b.first(), DynBitset::npos);
  EXPECT_FALSE(b.test(0));
  EXPECT_FALSE(b.test(1000));
}

TEST(DynBitset, SetTestReset) {
  DynBitset b(10);
  b.set(3);
  b.set(9);
  EXPECT_TRUE(b.test(3));
  EXPECT_TRUE(b.test(9));
  EXPECT_FALSE(b.test(4));
  EXPECT_EQ(b.count(), 2u);
  b.reset(3);
  EXPECT_FALSE(b.test(3));
  EXPECT_EQ(b.count(), 1u);
}

TEST(DynBitset, GrowsOnSet) {
  DynBitset b;
  b.set(200);
  EXPECT_TRUE(b.test(200));
  EXPECT_GE(b.size(), 201u);
  EXPECT_EQ(b.count(), 1u);
}

TEST(DynBitset, IterationAcrossWords) {
  DynBitset b;
  std::vector<std::size_t> want = {0, 1, 63, 64, 65, 127, 128, 300};
  for (std::size_t i : want) b.set(i);
  EXPECT_EQ(b.to_vector(), want);
}

TEST(DynBitset, SetAlgebra) {
  auto a = DynBitset::of({1, 2, 3});
  auto b = DynBitset::of({3, 4});
  EXPECT_EQ((a | b).to_vector(), (std::vector<std::size_t>{1, 2, 3, 4}));
  EXPECT_EQ((a & b).to_vector(), (std::vector<std::size_t>{3}));
  EXPECT_EQ((a - b).to_vector(), (std::vector<std::size_t>{1, 2}));
  EXPECT_TRUE((a - a).empty());
}

TEST(DynBitset, AlgebraWithDifferentCapacities) {
  auto small = DynBitset::of({2});
  auto big = DynBitset::of({2, 500});
  EXPECT_TRUE(small.is_subset_of(big));
  EXPECT_FALSE(big.is_subset_of(small));
  EXPECT_TRUE(small.intersects(big));
  EXPECT_EQ((big - small).to_vector(), (std::vector<std::size_t>{500}));
  // Difference never grows the left side's membership.
  EXPECT_EQ((small - big).count(), 0u);
}

TEST(DynBitset, EqualityIgnoresCapacity) {
  DynBitset a(10), b(1000);
  a.set(5);
  b.set(5);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  b.set(700);
  EXPECT_NE(a, b);
}

TEST(DynBitset, OrderingMatchesNumericValue) {
  EXPECT_LT(DynBitset::of({0}), DynBitset::of({1}));
  EXPECT_LT(DynBitset::of({1}), DynBitset::of({0, 1}));
  EXPECT_LT(DynBitset::of({0, 1}), DynBitset::of({2}));
  EXPECT_LT(DynBitset::of({63}), DynBitset::of({64}));
  EXPECT_FALSE(DynBitset::of({2}) < DynBitset::of({2}));
  // Usable as a std::map key.
  std::map<DynBitset, int> m;
  m[DynBitset::of({1, 2})] = 1;
  m[DynBitset::of({3})] = 2;
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.at(DynBitset::of({1, 2})), 1);
}

TEST(DynBitset, HashUsableInUnorderedSet) {
  std::unordered_set<DynBitset, DynBitsetHash> set;
  set.insert(DynBitset::of({1}));
  set.insert(DynBitset::of({1}));
  set.insert(DynBitset::of({2, 64}));
  EXPECT_EQ(set.size(), 2u);
}

TEST(DynBitset, ToString) {
  EXPECT_EQ(DynBitset::of({2, 6, 9}).to_string(), "{2,6,9}");
  EXPECT_EQ(DynBitset().to_string(), "{}");
}

TEST(DynBitset, Fold64StableAcrossCapacity) {
  auto a = DynBitset::of({3, 70});
  DynBitset b(4096);
  b.set(3);
  b.set(70);
  EXPECT_EQ(a.fold64(), b.fold64());
  EXPECT_NE(a.fold64(), 0u);
}

// -------------------------------------------------------------------- Value

TEST(Value, TaggedEquality) {
  EXPECT_EQ(Value::of_int(3), Value::of_int(3));
  EXPECT_NE(Value::of_int(3), Value::of_float(3.0));  // tag matters
  EXPECT_NE(Value::of_int(3), Value::of_int(4));
  EXPECT_EQ(Value::of_float(0.5), Value::of_float(0.5));
}

TEST(Value, Conversions) {
  EXPECT_EQ(Value::of_float(2.9).as_int(), 2);  // C truncation
  EXPECT_EQ(Value::of_int(-7).as_double(), -7.0);
  EXPECT_TRUE(Value::of_float(0.1).truthy());
  EXPECT_FALSE(Value::of_float(0.0).truthy());
  EXPECT_FALSE(Value::of_int(0).truthy());
}

TEST(Value, DefaultIsIntZero) {
  Value v;
  EXPECT_TRUE(v.is_int());
  EXPECT_EQ(v.i, 0);
}

// ---------------------------------------------------------------------- str

TEST(Str, JoinAndSplit) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(Str, Padding) {
  EXPECT_EQ(pad_left("ab", 5), "   ab");
  EXPECT_EQ(pad_right("ab", 5), "ab   ");
  EXPECT_EQ(pad_left("abcdef", 3), "abcdef");
}

TEST(Str, FmtDouble) {
  EXPECT_EQ(fmt_double(1.5, 2), "1.50");
  EXPECT_EQ(fmt_double(-0.125, 3), "-0.125");
}

TEST(Str, Cat) { EXPECT_EQ(cat("x=", 42, ", y=", 1.5), "x=42, y=1.5"); }

TEST(Str, JsonEscapeQuotesAndBackslashes) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
}

TEST(Str, JsonEscapeControlCharacters) {
  // Regression: control characters used to pass through verbatim, making
  // telemetry/trace/metrics output invalid JSON when a pass name or file
  // path carried one. Short forms for the common ones, \uXXXX otherwise.
  EXPECT_EQ(json_escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(json_escape(std::string("\b\f")), "\\b\\f");
  EXPECT_EQ(json_escape(std::string("x\x01y", 3)), "x\\u0001y");
  EXPECT_EQ(json_escape(std::string("\x00", 1)), "\\u0000");
  EXPECT_EQ(json_escape(std::string("\x1f")), "\\u001f");
}

namespace {

std::string utf8(char32_t cp) {
  std::string out;
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xC0 | (cp >> 6));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    out += static_cast<char>(0xE0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (cp >> 18));
    out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  }
  return out;
}

/// Independent UTF-8 validity oracle: decode each sequence and reject
/// overlong forms, surrogates, values above U+10FFFF and truncation.
bool valid_utf8(const std::string& s) {
  for (std::size_t i = 0; i < s.size();) {
    const unsigned char lead = static_cast<unsigned char>(s[i]);
    int len = lead < 0x80 ? 1 : lead >> 5 == 0x6 ? 2 : lead >> 4 == 0xE ? 3
                              : lead >> 3 == 0x1E ? 4 : 0;
    if (len == 0 || i + static_cast<std::size_t>(len) > s.size()) return false;
    char32_t cp = len == 1 ? lead : lead & (0x7F >> len);
    for (int k = 1; k < len; ++k) {
      const unsigned char c = static_cast<unsigned char>(s[i + k]);
      if ((c & 0xC0) != 0x80) return false;
      cp = (cp << 6) | (c & 0x3F);
    }
    static const char32_t kMin[] = {0, 0, 0x80, 0x800, 0x10000};
    if (cp < kMin[len] || cp > 0x10FFFF || (cp >= 0xD800 && cp <= 0xDFFF))
      return false;
    i += static_cast<std::size_t>(len);
  }
  return true;
}

std::string decode_literal(const std::string& escaped) {
  return json::parse("\"" + escaped + "\"").as_string();
}

}  // namespace

TEST(Str, JsonEscapeKeepsUtf8Verbatim) {
  EXPECT_EQ(json_escape("caf\xc3\xa9"), "caf\xc3\xa9");
  const std::string mixed = "\xc2\xa7" "1.2 \xe2\x89\xa5 \xf0\x9f\x98\x80";
  EXPECT_EQ(json_escape(mixed), mixed);
  EXPECT_EQ(json_escape("\x7f"), "\\u007f");
}

TEST(Str, JsonEscapeRoundTripsRandomValidUtf8) {
  // parse(escape(s)) == s for every valid UTF-8 string: ASCII, controls,
  // quotes, backslashes, and 2/3/4-byte sequences including the edges of
  // each encoding length.
  static const char32_t kEdges[] = {0x80,   0x7FF,   0x800,    0xFFFF,
                                    0x10000, 0x10FFFF, 0xD7FF, 0xE000,
                                    0xA7,   0x2265,  0xFFFD};
  Rng rng(0x5eed0015);
  for (int iter = 0; iter < 10000; ++iter) {
    std::string s;
    const std::uint64_t len = rng.next_below(24);
    for (std::uint64_t k = 0; k < len; ++k) {
      switch (rng.next_below(7)) {
        case 0: s += static_cast<char>(rng.next_range(0x20, 0x7E)); break;
        case 1:
          s += static_cast<char>(rng.chance(1, 8) ? 0x7F
                                                  : rng.next_range(0, 0x1F));
          break;
        case 2: s += rng.chance(1, 2) ? '"' : '\\'; break;
        case 3:
          s += utf8(kEdges[rng.next_below(sizeof kEdges / sizeof kEdges[0])]);
          break;
        case 4:
          s += utf8(static_cast<char32_t>(rng.next_range(0x80, 0x7FF)));
          break;
        case 5: {
          auto cp = static_cast<char32_t>(rng.next_range(0x800, 0xFFFF));
          if (cp >= 0xD800 && cp <= 0xDFFF) cp -= 0x800;  // skip surrogates
          s += utf8(cp);
          break;
        }
        default:
          s += utf8(static_cast<char32_t>(rng.next_range(0x10000, 0x10FFFF)));
      }
    }
    ASSERT_TRUE(valid_utf8(s));
    const std::string escaped = json_escape(s);
    ASSERT_TRUE(valid_utf8(escaped)) << escaped;
    ASSERT_EQ(decode_literal(escaped), s) << escaped;
  }
}

TEST(Str, JsonEscapeReplacesIllFormedSubpartsWithFffd) {
  // One U+FFFD per maximal subpart (Unicode §3.9; the same substitution
  // as WHATWG's decoder and Python's errors="replace").
  const std::string r = "\xef\xbf\xbd";
  const std::pair<std::string, std::string> kCases[] = {
      {"\x80", r},                                   // stray continuation
      {"\xc0\x80", r + r},                           // overlong NUL
      {"\xed\xa0\x80", r + r + r},                   // surrogate U+D800
      {"\xf4\x90\x80\x80", r + r + r + r},           // above U+10FFFF
      {"\xf5", r},                                   // never a lead byte
      {"\xe2\x89", r},                               // truncated at the end
      {"a\xe2\x89" "b", "a" + r + "b"},              // truncated mid-string
      {"\xf0\x9f\x98\"", r + "\\\""},                // truncated before a quote
      {"\xff\xc3\xa9", r + "\xc3\xa9"},              // valid after invalid
  };
  for (const auto& [in, want] : kCases) {
    const std::string got = json_escape(in);
    EXPECT_EQ(got, want) << in;
    EXPECT_TRUE(valid_utf8(got)) << in;
  }
}

TEST(Str, JsonEscapeOutputIsValidUtf8JsonForAnyBytes) {
  Rng rng(0xb17e5);
  for (int iter = 0; iter < 10000; ++iter) {
    std::string s(rng.next_below(16), '\0');
    for (char& c : s) c = static_cast<char>(rng.next_below(256));
    const std::string escaped = json_escape(s);
    ASSERT_TRUE(valid_utf8(escaped)) << iter;
    ASSERT_NO_THROW(decode_literal(escaped)) << iter;
  }
}

// ---------------------------------------------------------------------- rng

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, RangeBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    std::int64_t v = rng.next_range(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

// --------------------------------------------------------------------- diag

TEST(Diag, CompileErrorCarriesLocation) {
  CompileError err({4, 7}, "bad thing");
  EXPECT_EQ(std::string(err.what()), "4:7: bad thing");
  EXPECT_EQ(err.loc().line, 4u);
}

TEST(Diag, DiagnosticsCollect) {
  Diagnostics d;
  EXPECT_FALSE(d.has_errors());
  d.warn({1, 1}, "w");
  EXPECT_FALSE(d.has_errors());
  d.error({2, 2}, "e");
  EXPECT_TRUE(d.has_errors());
  EXPECT_EQ(d.error_count(), 1u);
  EXPECT_NE(d.joined().find("warning: 1:1: w"), std::string::npos);
  EXPECT_NE(d.joined().find("error: 2:2: e"), std::string::npos);
}

// ---------------------------------------------------------------------- dot

TEST(Dot, EmitsNodesAndEdges) {
  DotWriter w("g");
  w.node("a", "A \"quoted\"\nline");
  w.edge("a", "b", "lbl");
  std::string out = w.finish();
  EXPECT_NE(out.find("digraph g {"), std::string::npos);
  EXPECT_NE(out.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(out.find("\\n"), std::string::npos);
  EXPECT_NE(out.find("\"a\" -> \"b\" [label=\"lbl\"];"), std::string::npos);
  EXPECT_EQ(out.substr(out.size() - 2), "}\n");
}
