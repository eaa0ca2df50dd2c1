#ifndef RDMAJOIN_UTIL_JSON_H_
#define RDMAJOIN_UTIL_JSON_H_

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/statusor.h"

namespace rdmajoin {

// The repo's one JSON layer: every artifact the tools write or read goes
// through JsonWriter, JsonTokenizer and these number rules:
//   - a double is spelled the shortest `%.{p}g` that reads back as the same
//     double (JsonNumber), and a non-finite double as null;
//   - an integer-typed field is written exactly (JsonWriter::Uint/Int);
//   - a reader takes an integer field only when the number is an integer in
//     the field type's range (JsonValue::As).

/// Escapes `s` for embedding inside a JSON string literal (no quotes added).
std::string JsonEscape(const std::string& s);

/// Formats a double as a JSON number: shortest round-trip form, and the
/// non-finite values (which JSON cannot represent) as null.
std::string JsonNumber(double v);

/// Bytes JsonWriter::Uint(v) writes.
size_t JsonUintSize(uint64_t v);
/// Bytes JsonWriter::Number(v) writes: exact for an integer it spells as
/// its digits, else the most any spelling takes. Lets a writer size its
/// output without formatting it twice.
size_t JsonNumberSizeBound(double v);

namespace json_internal {
/// JsonNumber without its integral fast path: the general shortest-%g
/// routine, callable so a test can check the fast path against it.
std::string GeneralJsonNumber(double v);
}  // namespace json_internal

/// Streaming JSON writer appending to a caller-owned string. It places the
/// commas and colons itself. Output is compact; the one layout primitive is
/// Break(indent), a line break plus `indent` spaces before the next element
/// or closing bracket, which keeps one-record-per-line artifacts readable.
class JsonWriter {
 public:
  explicit JsonWriter(std::string* out) : out_(out) {}

  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& EndArray() { return Close(']'); }
  /// An object member's key; the next call writes its value.
  JsonWriter& Key(std::string_view key);
  JsonWriter& String(std::string_view s);
  /// A double, spelled as JsonNumber spells it.
  JsonWriter& Number(double v);
  JsonWriter& Uint(uint64_t v);
  JsonWriter& Int(int64_t v);
  JsonWriter& Bool(bool v) { return Raw(v ? "true" : "false"); }
  /// A value that is already JSON text (a pre-rendered record or number).
  JsonWriter& Raw(std::string_view json);
  JsonWriter& Break(int indent) {
    break_indent_ = indent;
    return *this;
  }

 private:
  JsonWriter& Open(char bracket);
  JsonWriter& Close(char bracket);
  /// Comma (after a sibling) and pending break before an element.
  void Separate();
  void PendingBreak();

  std::string* out_;
  bool need_comma_ = false;
  int break_indent_ = -1;
};

/// A parsed JSON value. Object member order is preserved.
struct JsonValue {
  enum class Kind : uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number_value = 0;
  /// Set when the number was written as a plain unsigned integer that fits
  /// 64 bits; `uint_value` is then exact even above 2^53.
  bool is_uint = false;
  uint64_t uint_value = 0;
  std::string string_value;
  std::vector<JsonValue> array_items;
  std::vector<std::pair<std::string, JsonValue>> object_members;

  bool is_null() const { return kind == Kind::kNull; }
  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }

  /// Object member lookup; null when absent or not an object.
  const JsonValue* Find(std::string_view key) const;

  /// Lenient lookups with defaults, for display code.
  double NumberOr(std::string_view key, double fallback) const;
  std::string StringOr(std::string_view key, const std::string& fallback) const;
  bool BoolOr(std::string_view key, bool fallback) const;

  /// Strict decode as T: bool, double, std::string, or an integer type. A
  /// wrong kind, or an integer that is negative (for unsigned T),
  /// fractional, non-finite or outside T's range, is InvalidArgument naming
  /// `what`. A null double (the spelling of a non-finite one) leaves `*out`
  /// unchanged.
  template <typename T>
  Status As(T* out, std::string_view what) const;

  /// Strict field reads: As() on member `key` (absent leaves `*out` as is),
  /// then on each further (key, out) pair; the first error wins.
  template <typename T, typename... More>
  Status Get(std::string_view key, T* out, More... more) const {
    const JsonValue* v = Find(key);
    RDMAJOIN_RETURN_IF_ERROR(v == nullptr ? Status::OK() : v->As(out, key));
    if constexpr (sizeof...(More) > 0) {
      return Get(more...);
    } else {
      return Status::OK();
    }
  }

 private:
  Status Mismatch(std::string_view what, std::string_view expected) const;
  Status AsInteger(std::string_view what, int64_t lo, uint64_t hi,
                   uint64_t* bits) const;
};

/// Pull tokenizer over one JSON document: the one lexer behind ParseJson and
/// the streaming readers (TraceFromJson). It checks the whole grammar
/// (separators, nesting, JSON's number syntax, doubles in range, no trailing
/// data), so callers check only the schema. Errors are InvalidArgument with
/// the byte offset and the most recent object key.
class JsonTokenizer {
 public:
  enum class Token : uint8_t {
    kBeginObject, kEndObject, kBeginArray, kEndArray, kKey,
    kString, kNumber, kTrue, kFalse, kNull,
    kEnd,  // the document is complete
  };

  explicit JsonTokenizer(std::string_view text) : text_(text) {
    number_.kind = JsonValue::Kind::kNumber;
  }

  /// Lexes the next token.
  Status Next();
  Token token() const { return token_; }

  /// Streams the object at the current token: runs `member(key)` with the
  /// tokenizer on each member's value, which `member` must consume.
  template <typename Fn>
  Status ForEachMember(Fn&& member) {
    RDMAJOIN_RETURN_IF_ERROR(Expect(Token::kBeginObject));
    while (true) {
      RDMAJOIN_RETURN_IF_ERROR(Next());
      if (token_ == Token::kEndObject) return Status::OK();
      if (token_ != Token::kKey) return Error("expected object key");
      RDMAJOIN_RETURN_IF_ERROR(Next());
      RDMAJOIN_RETURN_IF_ERROR(member(key_));
    }
  }
  /// Streams the array at the current token: runs `element()` with the
  /// tokenizer on each element, which `element` must consume.
  template <typename Fn>
  Status ForEachElement(Fn&& element) {
    RDMAJOIN_RETURN_IF_ERROR(Expect(Token::kBeginArray));
    while (true) {
      RDMAJOIN_RETURN_IF_ERROR(Next());
      if (token_ == Token::kEndArray) return Status::OK();
      RDMAJOIN_RETURN_IF_ERROR(element());
    }
  }

  /// Fast path for a flat array of plain unsigned integers, called at its
  /// kBeginArray token: stores the elements in `out` and consumes the array
  /// through its `]`, leaving the tokenizer exactly as the Next() calls up
  /// to that kEndArray would. It declines, returning false and consuming
  /// nothing, unless every element is spelled as digits only (at most 19 of
  /// them, no leading zero) and is at most its bound `max[i]`, and there
  /// are at most `max.size()` elements; `out` is then unspecified. The
  /// caller then reads the array the generic way, which gives the same
  /// values or the same error.
  bool TryUintArray(uint64_t* out, std::span<const uint64_t> max, size_t* n);

  /// The decoded contents of a kString token.
  std::string_view string() const { return string_; }
  /// The value of a kNumber token.
  const JsonValue& number() const { return number_; }

  /// Decodes the current kNumber token as T, as JsonValue::As does.
  template <typename T>
  Status Read(T* out) const {
    if (token_ != Token::kNumber) return Error("expected a number");
    Status st = number_.As(out, {});
    return st.ok() ? st : Error(st.message());
  }

  /// Requires the document to end after the current value.
  Status Finish();
  /// InvalidArgument "JSON: <what> at offset N (in "key")".
  Status Error(std::string_view what) const;

 private:
  enum class State : uint8_t { kValue, kFirstKey, kFirstElement, kAfter };

  Status Expect(Token token) const {
    return token_ == token ? Status::OK() : Error("unexpected token");
  }

  void SkipSpace();
  Status LexKey();
  Status LexValue();
  Status LexString(std::string* buf, std::string_view* view);
  Status LexNumber();
  Status LexLiteral(std::string_view word, Token token);
  Status Close(char closer);

  std::string_view text_;
  size_t pos_ = 0;
  size_t start_ = 0;  // offset of the current token
  State state_ = State::kValue;
  std::string open_;  // '{' / '[' per open container
  Token token_ = Token::kEnd;
  std::string_view key_;
  std::string_view string_;
  std::string key_buf_;     // backs key_ when it needed unescaping
  std::string string_buf_;  // backs string_ when it needed unescaping
  JsonValue number_;
};

/// Parses a complete JSON document into a JsonValue tree.
StatusOr<JsonValue> ParseJson(std::string_view text);

template <typename T>
Status JsonValue::As(T* out, std::string_view what) const {
  if constexpr (std::is_same_v<T, bool>) {
    if (kind != Kind::kBool) return Mismatch(what, "a boolean");
    *out = bool_value;
  } else if constexpr (std::is_same_v<T, double>) {
    if (kind == Kind::kNull) return Status::OK();
    if (kind != Kind::kNumber) return Mismatch(what, "a number");
    *out = number_value;
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (kind != Kind::kString) return Mismatch(what, "a string");
    *out = string_value;
  } else {
    static_assert(std::is_integral_v<T>, "JsonValue::As: unsupported type");
    uint64_t bits = 0;
    RDMAJOIN_RETURN_IF_ERROR(AsInteger(
        what, static_cast<int64_t>(std::numeric_limits<T>::min()),
        static_cast<uint64_t>(std::numeric_limits<T>::max()), &bits));
    *out = static_cast<T>(bits);
  }
  return Status::OK();
}

}  // namespace rdmajoin

#endif  // RDMAJOIN_UTIL_JSON_H_
