#include "util/json.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>

namespace rdmajoin {

namespace {

void AppendEscaped(std::string* out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\b': out->append("\\b"); break;
      case '\f': out->append("\\f"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      default:
        if (const auto u = static_cast<unsigned char>(c); u < 0x20) {
          out->append("\\u00");
          out->push_back("0123456789abcdef"[u >> 4]);
          out->push_back("0123456789abcdef"[u & 0xF]);
        } else {
          out->push_back(c);
        }
    }
  }
}

template <typename Int>
void AppendInteger(std::string* out, Int v) {
  char buf[24];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

/// Appends a finite double as the shortest `%.{p}g` that reads back as `v`.
/// std::to_chars finds the shortest digits; they are laid out the way %g
/// lays them out: fixed when -4 <= exponent < digits, else d.ddde±XX.
void AppendShortestG(std::string* out, double v) {
  char sci[32];
  char* end =
      std::to_chars(sci, sci + sizeof(sci), v, std::chars_format::scientific)
          .ptr;
  // At a binade boundary (zero significand, normal exponent) the rounding
  // interval is lopsided, and %.{p}g's correctly rounded p digits can miss
  // it where to_chars's shortest p digits do not; %g then needs more digits.
  // Walk p up exactly as the %g search does.
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  if ((bits & ((uint64_t{1} << 52) - 1)) == 0 && ((bits >> 52) & 0x7FF) > 1) {
    int digits = 0;
    for (const char* p = sci; *p != 'e'; ++p) digits += (*p >= '0' && *p <= '9');
    for (int p = digits; p <= 17; ++p) {
      end = std::to_chars(sci, sci + sizeof(sci), v,
                          std::chars_format::scientific, p - 1)
                .ptr;
      double back = 0;
      std::from_chars(sci, end, back);
      if (back == v) break;
    }
  }

  const char* p = sci;
  if (*p == '-') out->push_back(*p++);
  char digits[24];
  int nd = 0;
  for (; *p != 'e'; ++p) {
    if (*p != '.') digits[nd++] = *p;
  }
  while (nd > 1 && digits[nd - 1] == '0') --nd;
  int exp = 0;
  std::from_chars(p + (p[1] == '+' ? 2 : 1), end, exp);

  if (exp >= 0 && exp < nd) {
    out->append(digits, static_cast<size_t>(exp) + 1);
    if (nd > exp + 1) {
      out->push_back('.');
      out->append(digits + exp + 1, static_cast<size_t>(nd - exp - 1));
    }
  } else if (exp < 0 && exp >= -4) {
    out->append("0.");
    out->append(static_cast<size_t>(-exp - 1), '0');
    out->append(digits, static_cast<size_t>(nd));
  } else {
    out->push_back(digits[0]);
    if (nd > 1) {
      out->push_back('.');
      out->append(digits + 1, static_cast<size_t>(nd - 1));
    }
    out->append(exp < 0 ? "e-" : "e+");
    if (std::abs(exp) < 10) out->push_back('0');
    AppendInteger(out, std::abs(exp));
  }
}

/// The integral fast path's test. A positive integer below 2^53 whose last
/// digit is not 0 needs every one of its digits: its neighbours are at most
/// 1 away, and any shorter spelling rounds it by at least 1. %g lays out
/// those (at most 16) digits as a plain integer, which `*i` then holds.
/// Other values, such as 1200 (`1.2e+03`), take the general routine.
bool SpelledAsInteger(double v, uint64_t* i) {
  if (!(v > 0 && v < 9007199254740992.0)) return false;
  *i = static_cast<uint64_t>(v);
  return static_cast<double>(*i) == v && *i % 10 != 0;
}

/// AppendShortestG with the integral fast path.
void AppendFiniteNumber(std::string* out, double v) {
  uint64_t i = 0;
  if (SpelledAsInteger(v, &i)) {
    AppendInteger(out, i);
  } else {
    AppendShortestG(out, v);
  }
}

void AppendUtf8(std::string* out, uint32_t cp) {
  if (cp < 0x80) {
    out->push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

bool IsSpace(char c) { return c == ' ' || c == '\n' || c == '\r' || c == '\t'; }

/// Scans the digits at `*pos` into `*value`, which is exact up to 19 digits
/// (10^19 < 2^64) and wraps beyond; returns how many digits there were.
size_t ScanDigits(std::string_view text, size_t* pos, uint64_t* value) {
  size_t p = *pos;
  uint64_t v = 0;
  for (; p < text.size() && IsDigit(text[p]); ++p) {
    v = v * 10 + static_cast<uint64_t>(text[p] - '0');
  }
  const size_t digits = p - *pos;
  *pos = p;
  *value = v;
  return digits;
}

/// The one integer decoder: an exact unsigned literal, or a double with an
/// integral value, within [lo, hi]. Yields the two's-complement bits.
bool DecodeInteger(const JsonValue& v, int64_t lo, uint64_t hi,
                   uint64_t* bits) {
  if (v.kind != JsonValue::Kind::kNumber) return false;
  if (v.is_uint) {
    *bits = v.uint_value;
    return v.uint_value <= hi;
  }
  // -2^63 and 2^64 are exact doubles: the range test rejects NaN and
  // everything a cast could overflow on.
  const double d = v.number_value;
  if (!(d >= -9223372036854775808.0 && d < 18446744073709551616.0) ||
      d != std::floor(d)) {
    return false;
  }
  if (d < 0) {
    const int64_t i = static_cast<int64_t>(d);
    *bits = static_cast<uint64_t>(i);
    return i >= lo;
  }
  *bits = static_cast<uint64_t>(d);
  return *bits <= hi;
}

}  // namespace

// ---------------------------------------------------------------------------
// Writing.
// ---------------------------------------------------------------------------

std::string JsonEscape(const std::string& s) {
  std::string out;
  AppendEscaped(&out, s);
  return out;
}

std::string JsonNumber(double v) {
  std::string out;
  JsonWriter(&out).Number(v);
  return out;
}

size_t JsonUintSize(uint64_t v) {
  size_t n = 1;
  for (; v >= 10000; v /= 10000) n += 4;
  return n + (v >= 10) + (v >= 100) + (v >= 1000);
}

size_t JsonNumberSizeBound(double v) {
  uint64_t i = 0;
  if (SpelledAsInteger(v, &i)) return JsonUintSize(i);
  if (v == 0) return std::signbit(v) ? 2 : 1;
  // The longest spelling is 24 bytes: -2.2250738585072014e-308.
  return 24;
}

namespace json_internal {

std::string GeneralJsonNumber(double v) {
  std::string out;
  if (std::isfinite(v)) {
    AppendShortestG(&out, v);
  } else {
    out = "null";
  }
  return out;
}

}  // namespace json_internal

void JsonWriter::PendingBreak() {
  if (break_indent_ < 0) return;
  out_->push_back('\n');
  out_->append(static_cast<size_t>(break_indent_), ' ');
  break_indent_ = -1;
}

void JsonWriter::Separate() {
  if (need_comma_) out_->push_back(',');
  PendingBreak();
  need_comma_ = true;
}

JsonWriter& JsonWriter::Open(char bracket) {
  Separate();
  out_->push_back(bracket);
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::Close(char bracket) {
  PendingBreak();
  out_->push_back(bracket);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  String(key);
  out_->push_back(':');
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view s) {
  Separate();
  out_->push_back('"');
  AppendEscaped(out_, s);
  out_->push_back('"');
  return *this;
}

JsonWriter& JsonWriter::Number(double v) {
  Separate();
  if (std::isfinite(v)) {
    AppendFiniteNumber(out_, v);
  } else {
    out_->append("null");
  }
  return *this;
}

JsonWriter& JsonWriter::Uint(uint64_t v) {
  Separate();
  AppendInteger(out_, v);
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t v) {
  Separate();
  AppendInteger(out_, v);
  return *this;
}

JsonWriter& JsonWriter::Raw(std::string_view json) {
  Separate();
  out_->append(json);
  return *this;
}

// ---------------------------------------------------------------------------
// Reading.
// ---------------------------------------------------------------------------

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : object_members) {
    if (name == key) return &value;
  }
  return nullptr;
}

double JsonValue::NumberOr(std::string_view key, double fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_number()) ? v->number_value : fallback;
}

std::string JsonValue::StringOr(std::string_view key,
                                const std::string& fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_string()) ? v->string_value : fallback;
}

bool JsonValue::BoolOr(std::string_view key, bool fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->kind == Kind::kBool) ? v->bool_value : fallback;
}

Status JsonValue::Mismatch(std::string_view what,
                           std::string_view expected) const {
  std::string msg;
  if (!what.empty()) {
    msg = "JSON field \"";
    AppendEscaped(&msg, what);
    msg += "\": ";
  }
  msg += "expected ";
  msg.append(expected);
  if (kind == Kind::kNumber) {
    msg += ", got ";
    msg += is_uint ? std::to_string(uint_value) : JsonNumber(number_value);
  }
  return Status::InvalidArgument(std::move(msg));
}

Status JsonValue::AsInteger(std::string_view what, int64_t lo, uint64_t hi,
                            uint64_t* bits) const {
  if (DecodeInteger(*this, lo, hi, bits)) return Status::OK();
  return Mismatch(what, "an integer in [" + std::to_string(lo) + ", " +
                            std::to_string(hi) + "]");
}

Status JsonTokenizer::Error(std::string_view what) const {
  std::string msg = "JSON: ";
  msg.append(what);
  msg += " at offset " + std::to_string(start_);
  if (!key_.empty()) {
    msg += " (in \"";
    AppendEscaped(&msg, key_);
    msg += "\")";
  }
  return Status::InvalidArgument(std::move(msg));
}

void JsonTokenizer::SkipSpace() {
  while (pos_ < text_.size() && IsSpace(text_[pos_])) ++pos_;
}

Status JsonTokenizer::Next() {
  SkipSpace();
  start_ = pos_;
  const char c = pos_ < text_.size() ? text_[pos_] : '\0';
  switch (state_) {
    case State::kValue:
      return LexValue();
    case State::kFirstKey:
      return c == '}' ? Close(c) : LexKey();
    case State::kFirstElement:
      return c == ']' ? Close(c) : LexValue();
    case State::kAfter:
      if (open_.empty()) {
        if (pos_ < text_.size()) {
          return Error("trailing characters after JSON document");
        }
        token_ = Token::kEnd;
        return Status::OK();
      }
      if (c == ',') {
        ++pos_;
        SkipSpace();
        start_ = pos_;
        return open_.back() == '{' ? LexKey() : LexValue();
      }
      return Close(c);
  }
  return Error("unreachable");
}

Status JsonTokenizer::Close(char closer) {
  const char opener = open_.back();
  if (closer != (opener == '{' ? '}' : ']')) {
    return Error(opener == '{' ? "expected ',' or '}'" : "expected ',' or ']'");
  }
  open_.pop_back();
  ++pos_;
  token_ = opener == '{' ? Token::kEndObject : Token::kEndArray;
  state_ = State::kAfter;
  return Status::OK();
}

Status JsonTokenizer::LexKey() {
  if (pos_ >= text_.size() || text_[pos_] != '"') {
    return Error("expected object key");
  }
  RDMAJOIN_RETURN_IF_ERROR(LexString(&key_buf_, &key_));
  SkipSpace();
  if (pos_ >= text_.size() || text_[pos_] != ':') return Error("expected ':'");
  ++pos_;
  token_ = Token::kKey;
  state_ = State::kValue;
  return Status::OK();
}

Status JsonTokenizer::LexValue() {
  if (pos_ >= text_.size()) return Error("unexpected end of input");
  state_ = State::kAfter;
  switch (text_[pos_]) {
    case '{':
    case '[': {
      if (open_.size() >= 64) return Error("nesting too deep");
      const bool object = text_[pos_++] == '{';
      open_.push_back(object ? '{' : '[');
      token_ = object ? Token::kBeginObject : Token::kBeginArray;
      state_ = object ? State::kFirstKey : State::kFirstElement;
      return Status::OK();
    }
    case '"':
      token_ = Token::kString;
      return LexString(&string_buf_, &string_);
    case 't':
      return LexLiteral("true", Token::kTrue);
    case 'f':
      return LexLiteral("false", Token::kFalse);
    case 'n':
      return LexLiteral("null", Token::kNull);
    default:
      return LexNumber();
  }
}

Status JsonTokenizer::LexLiteral(std::string_view word, Token token) {
  if (text_.substr(pos_, word.size()) != word) return Error("invalid literal");
  pos_ += word.size();
  token_ = token;
  return Status::OK();
}

Status JsonTokenizer::LexString(std::string* buf, std::string_view* view) {
  const size_t begin = ++pos_;  // past '"'
  // Fast path: without escapes the contents are a view into the text.
  while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\') {
    ++pos_;
  }
  if (pos_ < text_.size() && text_[pos_] == '"') {
    *view = text_.substr(begin, pos_++ - begin);
    return Status::OK();
  }
  buf->assign(text_.data() + begin, pos_ - begin);
  while (pos_ < text_.size()) {
    const char c = text_[pos_++];
    if (c == '"') {
      *view = *buf;
      return Status::OK();
    }
    if (c != '\\') {
      buf->push_back(c);
      continue;
    }
    if (pos_ >= text_.size()) break;
    switch (const char esc = text_[pos_++]) {
      case '"':
      case '\\':
      case '/': buf->push_back(esc); break;
      case 'b': buf->push_back('\b'); break;
      case 'f': buf->push_back('\f'); break;
      case 'n': buf->push_back('\n'); break;
      case 'r': buf->push_back('\r'); break;
      case 't': buf->push_back('\t'); break;
      case 'u': {
        uint32_t cp = 0;
        const char* hex = text_.data() + pos_;
        if (text_.size() - pos_ < 4 ||
            std::from_chars(hex, hex + 4, cp, 16).ptr != hex + 4) {
          return Error("invalid \\u escape");
        }
        pos_ += 4;
        AppendUtf8(buf, cp);
        break;
      }
      default:
        return Error("invalid escape");
    }
  }
  return Error("unterminated string");
}

Status JsonTokenizer::LexNumber() {
  // -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  const size_t begin = pos_;
  auto digits = [this]() {
    const size_t from = pos_;
    while (pos_ < text_.size() && IsDigit(text_[pos_])) ++pos_;
    return pos_ > from;
  };
  auto at = [this](char a, char b) {
    return pos_ < text_.size() && (text_[pos_] == a || text_[pos_] == b);
  };
  const bool negative = at('-', '-');
  if (negative) ++pos_;
  const size_t int_begin = pos_;
  uint64_t value = 0;
  const size_t int_digits = ScanDigits(text_, &pos_, &value);
  if (int_digits == 0) {
    return Error(negative ? "malformed number" : "expected a value");
  }
  if (text_[int_begin] == '0' && int_digits > 1) {
    return Error("malformed number");
  }
  bool plain = !negative;
  if (at('.', '.')) {
    ++pos_;
    if (!digits()) return Error("malformed number");
    plain = false;
  }
  if (at('e', 'E')) {
    ++pos_;
    if (at('+', '-')) ++pos_;
    if (!digits()) return Error("malformed number");
    plain = false;
  }
  // A plain integer of at most 19 digits is exact in `value`, and the
  // conversion rounds to nearest as from_chars does: no second scan.
  if (plain && int_digits <= 19) {
    number_.number_value = static_cast<double>(value);
    number_.uint_value = value;
    number_.is_uint = true;
    token_ = Token::kNumber;
    return Status::OK();
  }
  const char* first = text_.data() + begin;
  const char* last = text_.data() + pos_;
  if (std::from_chars(first, last, number_.number_value).ec != std::errc()) {
    return Error("number out of range");
  }
  number_.is_uint =
      plain && std::from_chars(first, last, number_.uint_value).ec == std::errc();
  token_ = Token::kNumber;
  return Status::OK();
}

bool JsonTokenizer::TryUintArray(uint64_t* out, std::span<const uint64_t> max,
                                 size_t* n) {
  if (token_ != Token::kBeginArray) return false;
  // Scans ahead on a local cursor; the tokenizer moves only on success.
  const std::string_view text = text_;
  size_t p = pos_;
  auto skip_space = [&] {
    while (p < text.size() && IsSpace(text[p])) ++p;
  };
  size_t count = 0;
  skip_space();
  if (p >= text.size()) return false;
  if (text[p] != ']') {
    while (true) {
      if (count == max.size()) return false;
      const size_t first = p;
      uint64_t value = 0;
      const size_t len = ScanDigits(text, &p, &value);
      if (len == 0 || len > 19 || (text[first] == '0' && len > 1) ||
          value > max[count]) {
        return false;
      }
      out[count++] = value;
      skip_space();
      if (p >= text.size()) return false;
      if (text[p] == ']') break;
      if (text[p] != ',') return false;
      ++p;
      skip_space();
    }
    number_.number_value = static_cast<double>(out[count - 1]);
    number_.uint_value = out[count - 1];
    number_.is_uint = true;
  }
  // The state Close() leaves at the `]`.
  open_.pop_back();
  start_ = p;
  pos_ = p + 1;
  token_ = Token::kEndArray;
  state_ = State::kAfter;
  *n = count;
  return true;
}

Status JsonTokenizer::Finish() {
  RDMAJOIN_RETURN_IF_ERROR(Next());
  return token_ == Token::kEnd ? Status::OK() : Error("trailing characters");
}

namespace {

/// Builds the value whose first token is current in `in`.
Status BuildValue(JsonTokenizer* in, JsonValue* out) {
  using Token = JsonTokenizer::Token;
  switch (in->token()) {
    case Token::kBeginObject:
      out->kind = JsonValue::Kind::kObject;
      return in->ForEachMember([&](std::string_view key) {
        return BuildValue(
            in, &out->object_members.emplace_back(key, JsonValue()).second);
      });
    case Token::kBeginArray:
      out->kind = JsonValue::Kind::kArray;
      return in->ForEachElement(
          [&] { return BuildValue(in, &out->array_items.emplace_back()); });
    case Token::kString:
      out->kind = JsonValue::Kind::kString;
      out->string_value = in->string();
      return Status::OK();
    case Token::kNumber:
      *out = in->number();
      return Status::OK();
    case Token::kTrue:
    case Token::kFalse:
      out->kind = JsonValue::Kind::kBool;
      out->bool_value = in->token() == Token::kTrue;
      return Status::OK();
    case Token::kNull:
      return Status::OK();
    default:
      return in->Error("expected a value");
  }
}

}  // namespace

StatusOr<JsonValue> ParseJson(std::string_view text) {
  JsonTokenizer in(text);
  RDMAJOIN_RETURN_IF_ERROR(in.Next());
  JsonValue value;
  RDMAJOIN_RETURN_IF_ERROR(BuildValue(&in, &value));
  RDMAJOIN_RETURN_IF_ERROR(in.Finish());
  return value;
}

}  // namespace rdmajoin
