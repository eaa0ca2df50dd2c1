#include "lint/lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>

#include "util/file.h"
#include "util/json.h"

namespace rdmajoin::lint {

namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

/// A scanned file after lexical preprocessing: comments and the contents of
/// string/character literals blanked to spaces (structure and line numbers
/// preserved), plus the raw line text for annotation and include extraction.
struct ScannedFile {
  std::string path;
  std::vector<std::string> raw_lines;
  std::vector<std::string> code_lines;  // blanked
  /// Lines whose string literals contain a "%p" conversion.
  std::set<int> pointer_format_lines;  // 1-based
};

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : text) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  lines.push_back(cur);
  return lines;
}

/// Blanks comments and literal contents. Handles //, /* */, "...", '...',
/// and raw string literals R"delim(...)delim".
ScannedFile ScanFile(const FileInput& input) {
  ScannedFile out;
  out.path = input.path;
  out.raw_lines = SplitLines(input.content);
  out.code_lines = out.raw_lines;

  enum class State { kCode, kLineComment, kBlockComment, kString, kChar, kRawString };
  State state = State::kCode;
  std::string raw_delim;          // for raw strings: )delim"
  std::string literal_text;       // accumulated contents of the current string
  const std::string percent_p = std::string("%") + "p";

  for (size_t li = 0; li < out.code_lines.size(); ++li) {
    std::string& line = out.code_lines[li];
    if (state == State::kLineComment) state = State::kCode;
    for (size_t i = 0; i < line.size(); ++i) {
      const char c = line[i];
      switch (state) {
        case State::kCode:
          if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') {
            state = State::kLineComment;
            line.replace(i, line.size() - i, line.size() - i, ' ');
            i = line.size();
          } else if (c == '/' && i + 1 < line.size() && line[i + 1] == '*') {
            state = State::kBlockComment;
            line[i] = ' ';
            line[i + 1] = ' ';
            ++i;
          } else if (c == '"') {
            // Raw string?  R"  (optionally u8R" etc.) -- the R directly
            // precedes the quote.
            if (i > 0 && line[i - 1] == 'R' &&
                (i < 2 || !IsIdentChar(line[i - 2]) || line[i - 2] == '8')) {
              size_t p = i + 1;
              std::string delim;
              while (p < line.size() && line[p] != '(') delim.push_back(line[p++]);
              raw_delim = ")" + delim + "\"";
              state = State::kRawString;
              literal_text.clear();
              // Blank from after the opening parenthesis.
              if (p < line.size()) {
                i = p;  // leave the '(' visible; contents blanked below
              }
            } else {
              state = State::kString;
              literal_text.clear();
            }
          } else if (c == '\'') {
            state = State::kChar;
          }
          break;
        case State::kLineComment:
          break;  // unreachable; whole tail already blanked
        case State::kBlockComment:
          if (c == '*' && i + 1 < line.size() && line[i + 1] == '/') {
            line[i] = ' ';
            line[i + 1] = ' ';
            ++i;
            state = State::kCode;
          } else {
            line[i] = ' ';
          }
          break;
        case State::kString:
          if (c == '\\' && i + 1 < line.size()) {
            line[i] = ' ';
            line[i + 1] = ' ';
            literal_text.push_back('\\');
            ++i;
          } else if (c == '"') {
            if (literal_text.find(percent_p) != std::string::npos) {
              out.pointer_format_lines.insert(static_cast<int>(li) + 1);
            }
            state = State::kCode;
          } else {
            literal_text.push_back(c);
            line[i] = ' ';
          }
          break;
        case State::kChar:
          if (c == '\\' && i + 1 < line.size()) {
            line[i] = ' ';
            line[i + 1] = ' ';
            ++i;
          } else if (c == '\'') {
            state = State::kCode;
          } else {
            line[i] = ' ';
          }
          break;
        case State::kRawString: {
          const size_t end = line.find(raw_delim, i);
          if (end == std::string::npos) {
            if (literal_text.find(percent_p) == std::string::npos) {
              literal_text += line.substr(i);
            }
            line.replace(i, line.size() - i, line.size() - i, ' ');
            i = line.size();
          } else {
            literal_text += line.substr(i, end - i);
            if (literal_text.find(percent_p) != std::string::npos) {
              out.pointer_format_lines.insert(static_cast<int>(li) + 1);
            }
            line.replace(i, end - i, end - i, ' ');
            i = end + raw_delim.size() - 1;
            state = State::kCode;
          }
          break;
        }
      }
    }
    // An unterminated "..." without a continuation backslash ends at EOL.
    if (state == State::kString || state == State::kChar) state = State::kCode;
  }
  return out;
}

/// One identifier occurrence in the blanked text.
struct Token {
  std::string text;
  int line = 0;      // 1-based
  size_t line_pos = 0;  // offset of first char within code_lines[line-1]
};

std::vector<Token> Tokenize(const ScannedFile& f) {
  std::vector<Token> tokens;
  for (size_t li = 0; li < f.code_lines.size(); ++li) {
    const std::string& line = f.code_lines[li];
    size_t i = 0;
    while (i < line.size()) {
      if (IsIdentChar(line[i]) &&
          std::isdigit(static_cast<unsigned char>(line[i])) == 0) {
        size_t j = i;
        while (j < line.size() && IsIdentChar(line[j])) ++j;
        tokens.push_back(Token{line.substr(i, j - i),
                               static_cast<int>(li) + 1, i});
        i = j;
      } else {
        ++i;
      }
    }
  }
  return tokens;
}

/// First non-space character at or after (line, pos) in the blanked text;
/// returns '\0' at EOF. `*out_line`/`*out_pos` receive its location.
char NextNonSpace(const ScannedFile& f, int line, size_t pos, int* out_line,
                  size_t* out_pos) {
  for (size_t li = static_cast<size_t>(line) - 1; li < f.code_lines.size();
       ++li) {
    const std::string& l = f.code_lines[li];
    size_t i = (li == static_cast<size_t>(line) - 1) ? pos : 0;
    for (; i < l.size(); ++i) {
      if (std::isspace(static_cast<unsigned char>(l[i])) == 0) {
        if (out_line != nullptr) *out_line = static_cast<int>(li) + 1;
        if (out_pos != nullptr) *out_pos = i;
        return l[i];
      }
    }
  }
  return '\0';
}

/// Last non-space character strictly before (line, pos); '\0' at BOF.
char PrevNonSpace(const ScannedFile& f, int line, size_t pos, char* prev2) {
  if (prev2 != nullptr) *prev2 = '\0';
  size_t li = static_cast<size_t>(line) - 1;
  size_t i = pos;
  char first = '\0';
  while (true) {
    const std::string& l = f.code_lines[li];
    while (i > 0) {
      --i;
      const char c = l[i];
      if (std::isspace(static_cast<unsigned char>(c)) != 0) continue;
      if (first == '\0') {
        first = c;
        if (prev2 == nullptr) return first;
      } else {
        *prev2 = c;
        return first;
      }
    }
    if (li == 0) return first;
    --li;
    i = f.code_lines[li].size();
  }
}

/// Annotation suppression collected from the raw lines. A finding at line L
/// is covered when line L or L-1 carries a matching annotation.
struct Annotations {
  /// rule id -> set of annotated lines (the line the annotation sits on).
  std::map<std::string, std::set<int>> lines;

  bool Covers(const std::string& rule, int line) const {
    auto it = lines.find(rule);
    if (it == lines.end()) return false;
    return it->second.count(line) != 0 || it->second.count(line - 1) != 0;
  }
};

Annotations ExtractAnnotations(const ScannedFile& f) {
  Annotations ann;
  for (size_t li = 0; li < f.raw_lines.size(); ++li) {
    const std::string& raw = f.raw_lines[li];
    const size_t at = raw.find("lint:");
    if (at == std::string::npos) continue;
    const int line = static_cast<int>(li) + 1;
    std::string rest = raw.substr(at + 5);
    // Trim leading spaces.
    size_t s = rest.find_first_not_of(' ');
    if (s == std::string::npos) continue;
    rest = rest.substr(s);
    auto reason_nonempty = [&rest](size_t open) {
      const size_t close = rest.find(')', open);
      return close != std::string::npos && close > open + 1;
    };
    if (StartsWith(rest, "order-insensitive(")) {
      if (reason_nonempty(17)) ann.lines["unordered-iter"].insert(line);
    } else if (StartsWith(rest, "discard-ok(")) {
      if (reason_nonempty(10)) ann.lines["discarded-status"].insert(line);
    } else if (StartsWith(rest, "allow(")) {
      const size_t close = rest.find(')', 6);
      if (close != std::string::npos && close > 6) {
        ann.lines[rest.substr(6, close - 6)].insert(line);
      }
    }
  }
  return ann;
}

// ---------------------------------------------------------------------------
// Rule: banned identifiers (wall-clock, raw-random, env-read, locale-format).
// ---------------------------------------------------------------------------

struct BannedIdent {
  const char* ident;
  const char* rule;
  /// When true the identifier only counts when it is a call (followed by
  /// '(') and not a member access -- used for common words like `time`.
  bool call_only;
};

constexpr BannedIdent kBannedIdents[] = {
    {"system_clock", "wall-clock", false},
    {"steady_clock", "wall-clock", false},
    {"high_resolution_clock", "wall-clock", false},
    {"clock_gettime", "wall-clock", false},
    {"gettimeofday", "wall-clock", false},
    {"timespec_get", "wall-clock", false},
    {"localtime", "wall-clock", false},
    {"gmtime", "wall-clock", false},
    {"mktime", "wall-clock", false},
    {"strftime", "wall-clock", false},
    {"time", "wall-clock", true},
    {"clock", "wall-clock", true},
    {"rand", "raw-random", true},
    {"srand", "raw-random", true},
    {"rand_r", "raw-random", false},
    {"random", "raw-random", true},
    {"srandom", "raw-random", true},
    {"drand48", "raw-random", false},
    {"lrand48", "raw-random", false},
    {"mrand48", "raw-random", false},
    {"erand48", "raw-random", false},
    {"random_device", "raw-random", false},
    {"default_random_engine", "raw-random", false},
    {"getenv", "env-read", false},
    {"secure_getenv", "env-read", false},
    {"setenv", "env-read", false},
    {"putenv", "env-read", false},
    {"setlocale", "locale-format", false},
    {"imbue", "locale-format", false},
    {"locale", "locale-format", true},
};

/// True when the identifier at `tok` is a member access (`x.time`,
/// `p->time`) or qualified by something other than std:: (`Fabric::clock`).
bool IsMemberOrForeignQualified(const ScannedFile& f, const Token& tok) {
  char prev2 = '\0';
  const char prev = PrevNonSpace(f, tok.line, tok.line_pos, &prev2);
  if (prev == '.') return true;
  if (prev == '>' && prev2 == '-') return true;
  if (prev == ':') {
    // Qualified: walk back past "::" to the qualifier identifier; std:: (and
    // a global ::) still count as the banned entity, anything else is a
    // different symbol that merely shares the name.
    const std::string& line = f.code_lines[tok.line - 1];
    size_t i = tok.line_pos;
    while (i > 0 && std::isspace(static_cast<unsigned char>(line[i - 1])) != 0) --i;
    if (i < 2 || line[i - 1] != ':' || line[i - 2] != ':') return true;
    i -= 2;
    size_t j = i;
    while (j > 0 && IsIdentChar(line[j - 1])) --j;
    const std::string qual = line.substr(j, i - j);
    // std::chrono::system_clock spells the banned entity with `chrono` as
    // the immediate qualifier.
    return !(qual.empty() || qual == "std" || qual == "chrono");
  }
  return false;
}

void CheckBannedIdents(const ScannedFile& f, const std::vector<Token>& tokens,
                       std::vector<Finding>* findings) {
  for (const Token& tok : tokens) {
    for (const BannedIdent& b : kBannedIdents) {
      if (tok.text != b.ident) continue;
      if (IsMemberOrForeignQualified(f, tok)) continue;
      if (b.call_only) {
        const char next = NextNonSpace(
            f, tok.line, tok.line_pos + tok.text.size(), nullptr, nullptr);
        if (next != '(') continue;
      }
      findings->push_back(Finding{
          b.rule, f.path, tok.line,
          std::string("banned nondeterminism source `") + b.ident +
              "` (rule " + b.rule + "); route through an explicitly seeded "
              "rdmajoin::Random / documented config instead"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: pointer-nondet (std::hash<T*>, %p formatting).
// ---------------------------------------------------------------------------

void CheckPointerNondet(const ScannedFile& f, std::vector<Finding>* findings) {
  for (size_t li = 0; li < f.code_lines.size(); ++li) {
    const std::string& line = f.code_lines[li];
    size_t at = 0;
    while ((at = line.find("hash<", at)) != std::string::npos) {
      // Identifier boundary on the left: `rehash<` is a different symbol,
      // `hash<` / `std::hash<` are the real thing.
      if (at > 0 && IsIdentChar(line[at - 1])) {
        at += 5;
        continue;
      }
      size_t depth = 1;
      size_t i = at + 5;
      bool has_ptr = false;
      for (; i < line.size() && depth > 0; ++i) {
        if (line[i] == '<') ++depth;
        else if (line[i] == '>') --depth;
        else if (line[i] == '*') has_ptr = true;
      }
      if (depth == 0 && has_ptr) {
        findings->push_back(Finding{
            "pointer-nondet", f.path, static_cast<int>(li) + 1,
            "hashing a pointer value: pointer identity varies across runs "
            "(ASLR) and must not feed ordering or output"});
      }
      at += 5;
    }
  }
  for (int line : f.pointer_format_lines) {
    findings->push_back(Finding{
        "pointer-nondet", f.path, line,
        std::string("formatting a pointer with %") +
            "p: addresses vary across runs and must not reach logs that are "
            "diffed or hashed"});
  }
}

// ---------------------------------------------------------------------------
// Rule: unordered-iter.
// ---------------------------------------------------------------------------

bool IsUnorderedContainerName(const std::string& s) {
  return s == "unordered_map" || s == "unordered_set" ||
         s == "unordered_multimap" || s == "unordered_multiset";
}

/// Collects names bound to unordered-container types in `f`: variables and
/// members declared with one, aliases (`using X = std::unordered_map<..>`),
/// and functions returning one. Purely name-based -- see docs/correctness.md
/// for the false-positive policy (annotate with order-insensitive(...)).
void CollectUnorderedNames(const ScannedFile& f,
                           const std::vector<Token>& tokens,
                           std::set<std::string>* names) {
  for (size_t t = 0; t < tokens.size(); ++t) {
    if (!IsUnorderedContainerName(tokens[t].text)) continue;
    // `using ALIAS = [std::]unordered_map<...>`: the alias name precedes
    // (one token back, or two with the std qualifier).
    if (t >= 2 && tokens[t - 1].text == "std") {
      if (t >= 3 && tokens[t - 3].text == "using") {
        names->insert(tokens[t - 2].text);
      }
    } else if (t >= 2 && tokens[t - 2].text == "using") {
      names->insert(tokens[t - 1].text);
    }
    // Skip the balanced template argument list, then take the next
    // identifier as the declared name (var, member, typedef name, or a
    // function returning the container).
    int line = tokens[t].line;
    size_t pos = tokens[t].line_pos + tokens[t].text.size();
    char c = NextNonSpace(f, line, pos, &line, &pos);
    if (c != '<') continue;
    size_t depth = 1;
    ++pos;
    while (depth > 0) {
      c = NextNonSpace(f, line, pos, &line, &pos);
      if (c == '\0') break;
      if (c == '<') ++depth;
      else if (c == '>') --depth;
      ++pos;
    }
    if (depth > 0) continue;
    // Optional declarator decorations.
    while (true) {
      c = NextNonSpace(f, line, pos, &line, &pos);
      if (c == '*' || c == '&' || c == ' ') ++pos;
      else break;
    }
    if (c == '\0' || !IsIdentChar(c)) continue;
    const std::string& l = f.code_lines[line - 1];
    size_t j = pos;
    while (j < l.size() && IsIdentChar(l[j])) ++j;
    const std::string name = l.substr(pos, j - pos);
    if (name == "const") continue;  // `unordered_map<..> const x` -- rare
    names->insert(name);
  }
}

void CheckUnorderedIteration(const ScannedFile& f,
                             const std::vector<Token>& tokens,
                             const std::set<std::string>& unordered_names,
                             std::vector<Finding>* findings) {
  for (size_t t = 0; t < tokens.size(); ++t) {
    if (tokens[t].text != "for") continue;
    int line = tokens[t].line;
    size_t pos = tokens[t].line_pos + 3;
    char c = NextNonSpace(f, line, pos, &line, &pos);
    if (c != '(') continue;
    // Walk the parenthesized header; find a top-level ':' (range-for) before
    // any top-level ';' (classic for). "::" is not a separator.
    ++pos;
    int depth = 1;
    std::string range_expr;
    bool in_range = false;
    bool is_range_for = false;
    const int for_line = tokens[t].line;
    while (depth > 0) {
      const std::string& l = f.code_lines[line - 1];
      if (pos >= l.size()) {
        if (static_cast<size_t>(line) >= f.code_lines.size()) break;
        ++line;
        pos = 0;
        if (in_range) range_expr.push_back(' ');
        continue;
      }
      const char ch = l[pos];
      if (ch == '(' || ch == '[' || ch == '{') ++depth;
      else if (ch == ')' || ch == ']' || ch == '}') --depth;
      if (depth == 0) break;
      if (!in_range && depth == 1 && ch == ';') break;  // classic for
      if (!in_range && depth == 1 && ch == ':') {
        const bool dcolon = (pos + 1 < l.size() && l[pos + 1] == ':') ||
                            (pos > 0 && l[pos - 1] == ':');
        if (!dcolon) {
          in_range = true;
          is_range_for = true;
          ++pos;
          continue;
        }
      }
      if (in_range) range_expr.push_back(ch);
      ++pos;
    }
    if (!is_range_for) continue;
    // Any identifier of the range expression naming an unordered container
    // (or spelling one directly) makes the loop order-sensitive until
    // justified.
    std::string hit;
    size_t i = 0;
    while (i < range_expr.size()) {
      if (IsIdentChar(range_expr[i]) &&
          std::isdigit(static_cast<unsigned char>(range_expr[i])) == 0) {
        size_t j = i;
        while (j < range_expr.size() && IsIdentChar(range_expr[j])) ++j;
        const std::string ident = range_expr.substr(i, j - i);
        if (unordered_names.count(ident) != 0 ||
            IsUnorderedContainerName(ident)) {
          hit = ident;
          break;
        }
        i = j;
      } else {
        ++i;
      }
    }
    if (hit.empty()) continue;
    findings->push_back(Finding{
        "unordered-iter", f.path, for_line,
        "range-for over unordered container `" + hit +
            "`: iteration order is implementation-defined; sort the "
            "elements first or justify with "
            "// lint: order-insensitive(<reason>)"});
  }
}

// ---------------------------------------------------------------------------
// Rule: discarded-status.
// ---------------------------------------------------------------------------

void CheckDiscardedStatus(const ScannedFile& f,
                          const std::vector<Token>& tokens,
                          std::vector<Finding>* findings) {
  // (a) `class`/`struct` definitions of Status / StatusOr must carry
  // [[nodiscard]] so the compiler flags every implicit discard.
  for (size_t t = 0; t + 1 < tokens.size(); ++t) {
    if (tokens[t].text != "class" && tokens[t].text != "struct") continue;
    size_t n = t + 1;
    bool has_attr = false;
    if (tokens[n].text == "nodiscard") {  // class [[nodiscard]] Status
      has_attr = true;
      ++n;
    }
    if (n >= tokens.size()) continue;
    const std::string& name = tokens[n].text;
    if (name != "Status" && name != "StatusOr") continue;
    // Definition (not a forward declaration / mention): next token stream
    // char after the name (and an optional `final`) must be '{' or '<'
    // template-intro for StatusOr's primary template.
    int line = tokens[n].line;
    size_t pos = tokens[n].line_pos + name.size();
    char c = NextNonSpace(f, line, pos, &line, &pos);
    if (c == 'f') {  // final
      pos += 5;
      c = NextNonSpace(f, line, pos, &line, &pos);
    }
    if (c != '{') continue;
    if (!has_attr) {
      findings->push_back(Finding{
          "discarded-status", f.path, tokens[n].line,
          name + " is defined without [[nodiscard]]: silently dropped "
                 "error statuses are a determinism and correctness hazard"});
    }
  }

  // (b) explicit discards: a (void)/static_cast<void> cast of a call result
  // needs a // lint: discard-ok(<reason>) justification.
  for (size_t li = 0; li < f.code_lines.size(); ++li) {
    const std::string& line = f.code_lines[li];
    auto check_cast_at = [&](size_t expr_start, size_t cast_pos) {
      // A discarded *call*: '(' before the statement's terminating ';'.
      int depth = 0;
      for (size_t i = expr_start; i < line.size(); ++i) {
        const char ch = line[i];
        if (ch == ';' && depth == 0) return;
        if (ch == '(') {
          findings->push_back(Finding{
              "discarded-status", f.path, static_cast<int>(li) + 1,
              "explicitly discarded call result: if the callee returns a "
              "Status this may swallow an error; justify with "
              "// lint: discard-ok(<reason>)"});
          return;
        }
        if (ch == ')') --depth;
      }
      (void)cast_pos;
    };
    size_t at = 0;
    while ((at = line.find("(void)", at)) != std::string::npos) {
      // Exclude `f(void)` parameter lists: the cast must not directly follow
      // an identifier.
      size_t before = at;
      while (before > 0 &&
             std::isspace(static_cast<unsigned char>(line[before - 1])) != 0) {
        --before;
      }
      if (before > 0 && IsIdentChar(line[before - 1])) {
        at += 6;
        continue;
      }
      check_cast_at(at + 6, at);
      at += 6;
    }
    at = 0;
    while ((at = line.find("static_cast<void>(", at)) != std::string::npos) {
      check_cast_at(at + 18, at);
      at += 18;
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: layer-dag.
// ---------------------------------------------------------------------------

struct IncludeRef {
  std::string target;
  int line = 0;
};

std::vector<IncludeRef> ExtractIncludes(const ScannedFile& f) {
  std::vector<IncludeRef> incs;
  for (size_t li = 0; li < f.raw_lines.size(); ++li) {
    const std::string& raw = f.raw_lines[li];
    size_t i = raw.find_first_not_of(" \t");
    if (i == std::string::npos || raw[i] != '#') continue;
    i = raw.find_first_not_of(" \t", i + 1);
    if (i == std::string::npos || raw.compare(i, 7, "include") != 0) continue;
    const size_t open = raw.find('"', i + 7);
    if (open == std::string::npos) continue;
    const size_t close = raw.find('"', open + 1);
    if (close == std::string::npos) continue;
    incs.push_back(IncludeRef{raw.substr(open + 1, close - open - 1),
                              static_cast<int>(li) + 1});
  }
  return incs;
}

void CheckLayerDag(const ScannedFile& f, const LayerModel& layers,
                   std::vector<Finding>* findings) {
  const std::string from = layers.ModuleFor(f.path);
  if (from.empty()) {
    if (StartsWith(f.path, "src/")) {
      findings->push_back(Finding{
          "layer-dag", f.path, 1,
          "file is not assigned to any module in docs/layers.json; extend "
          "the module map so the layer DAG stays complete"});
    }
    return;
  }
  for (const LayerModel::Module& m : layers.modules()) {
    if (m.name == from && m.allow_all) return;
  }
  const std::string dir =
      f.path.find('/') == std::string::npos
          ? std::string()
          : f.path.substr(0, f.path.rfind('/') + 1);
  for (const IncludeRef& inc : ExtractIncludes(f)) {
    // Resolve the include to a module: as spelled, rooted at src/ (the
    // include path convention for library headers), or relative to the
    // including file's directory.
    std::string to = layers.ModuleFor(inc.target);
    if (to.empty()) to = layers.ModuleFor("src/" + inc.target);
    if (to.empty() && !dir.empty()) to = layers.ModuleFor(dir + inc.target);
    if (to.empty()) continue;  // external / unmapped header
    if (to == from) continue;
    if (!layers.EdgeAllowed(from, to)) {
      findings->push_back(Finding{
          "layer-dag", f.path, inc.line,
          "include of \"" + inc.target + "\" crosses the layer DAG: module `" +
              from + "` may not depend on `" + to +
              "` (docs/layers.json)"});
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// LayerModel / config / baseline loading.
// ---------------------------------------------------------------------------

std::string LayerModel::ModuleFor(const std::string& repo_rel_path) const {
  std::string best;
  size_t best_len = 0;
  for (const Module& m : modules_) {
    for (const std::string& p : m.paths) {
      const bool match = p == repo_rel_path ||
                         (!p.empty() && p.back() == '/' &&
                          StartsWith(repo_rel_path, p));
      if (match && p.size() >= best_len) {
        best = m.name;
        best_len = p.size();
      }
    }
  }
  return best;
}

bool LayerModel::EdgeAllowed(const std::string& from,
                             const std::string& to) const {
  if (from == to) return true;
  for (const Module& m : modules_) {
    if (m.name == from && m.allow_all) return true;
  }
  const auto it = edges_.find(from);
  return it != edges_.end() && it->second.count(to) != 0;
}

StatusOr<LayerModel> LayerModel::FromJson(const std::string& json_text) {
  auto doc = ParseJson(json_text);
  RDMAJOIN_RETURN_IF_ERROR(doc.status());
  LayerModel model;
  const JsonValue* modules = doc->Find("modules");
  if (modules == nullptr || !modules->is_array()) {
    return Status::InvalidArgument("layers.json: missing \"modules\" array");
  }
  for (const JsonValue& m : modules->array_items) {
    Module mod;
    RDMAJOIN_RETURN_IF_ERROR(
        m.Get("name", &mod.name, "allow_all", &mod.allow_all));
    if (mod.name.empty()) {
      return Status::InvalidArgument("layers.json: module without a name");
    }
    const JsonValue* paths = m.Find("paths");
    if (paths == nullptr || !paths->is_array() || paths->array_items.empty()) {
      return Status::InvalidArgument("layers.json: module \"" + mod.name +
                                     "\" has no paths");
    }
    for (const JsonValue& p : paths->array_items) {
      if (!p.is_string()) {
        return Status::InvalidArgument("layers.json: non-string path in \"" +
                                       mod.name + "\"");
      }
      mod.paths.push_back(p.string_value);
    }
    model.modules_.push_back(std::move(mod));
  }
  auto known = [&model](const std::string& name) {
    for (const Module& m : model.modules_) {
      if (m.name == name) return true;
    }
    return false;
  };
  const JsonValue* edges = doc->Find("edges");
  if (edges == nullptr || !edges->is_object()) {
    return Status::InvalidArgument("layers.json: missing \"edges\" object");
  }
  for (const auto& [name, deps] : edges->object_members) {
    if (!known(name)) {
      return Status::InvalidArgument("layers.json: edges for unknown module \"" +
                                     name + "\"");
    }
    if (!deps.is_array()) {
      return Status::InvalidArgument("layers.json: edges of \"" + name +
                                     "\" must be an array");
    }
    for (const JsonValue& d : deps.array_items) {
      if (!d.is_string() || !known(d.string_value)) {
        return Status::InvalidArgument(
            "layers.json: \"" + name + "\" depends on unknown module");
      }
      model.edges_[name].insert(d.string_value);
    }
  }
  return model;
}

StatusOr<LintConfig> LintConfig::FromJson(const std::string& json_text) {
  auto doc = ParseJson(json_text);
  RDMAJOIN_RETURN_IF_ERROR(doc.status());
  LintConfig config;
  if (const JsonValue* allow = doc->Find("allow"); allow != nullptr) {
    if (!allow->is_array()) {
      return Status::InvalidArgument("lint config: \"allow\" must be an array");
    }
    for (const JsonValue& a : allow->array_items) {
      Allow entry;
      RDMAJOIN_RETURN_IF_ERROR(a.Get("rule", &entry.rule, "file", &entry.file,
                                     "reason", &entry.reason));
      if (entry.rule.empty() || entry.file.empty() || entry.reason.empty()) {
        return Status::InvalidArgument(
            "lint config: allow entries need rule, file and reason");
      }
      config.allow.push_back(std::move(entry));
    }
  }
  if (const JsonValue* excl = doc->Find("exclude"); excl != nullptr) {
    if (!excl->is_array()) {
      return Status::InvalidArgument("lint config: \"exclude\" must be an array");
    }
    for (const JsonValue& e : excl->array_items) {
      if (!e.is_string()) {
        return Status::InvalidArgument("lint config: non-string exclude entry");
      }
      config.exclude_prefixes.push_back(e.string_value);
    }
  }
  return config;
}

StatusOr<std::vector<BaselineEntry>> ParseBaseline(const std::string& json_text) {
  auto doc = ParseJson(json_text);
  RDMAJOIN_RETURN_IF_ERROR(doc.status());
  std::vector<BaselineEntry> baseline;
  const JsonValue* entries = doc->Find("entries");
  if (entries == nullptr || !entries->is_array()) {
    return Status::InvalidArgument("lint baseline: missing \"entries\" array");
  }
  for (const JsonValue& e : entries->array_items) {
    BaselineEntry entry;
    RDMAJOIN_RETURN_IF_ERROR(e.Get("rule", &entry.rule, "file", &entry.file,
                                   "count", &entry.count));
    if (entry.rule.empty() || entry.file.empty() || entry.count <= 0) {
      return Status::InvalidArgument(
          "lint baseline: entries need rule, file and a positive count");
    }
    baseline.push_back(std::move(entry));
  }
  return baseline;
}

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

LintResult RunLint(const std::vector<FileInput>& files,
                   const LintOptions& options) {
  LintResult result;

  std::vector<ScannedFile> scanned;
  std::vector<std::vector<Token>> tokens;
  std::set<std::string> unordered_names;
  for (const FileInput& input : files) {
    bool excluded = false;
    for (const std::string& prefix : options.config.exclude_prefixes) {
      if (StartsWith(input.path, prefix)) {
        excluded = true;
        break;
      }
    }
    if (excluded) continue;
    scanned.push_back(ScanFile(input));
    tokens.push_back(Tokenize(scanned.back()));
    CollectUnorderedNames(scanned.back(), tokens.back(), &unordered_names);
  }

  std::vector<Finding> findings;
  for (size_t i = 0; i < scanned.size(); ++i) {
    const ScannedFile& f = scanned[i];
    std::vector<Finding> file_findings;
    CheckBannedIdents(f, tokens[i], &file_findings);
    CheckPointerNondet(f, &file_findings);
    CheckUnorderedIteration(f, tokens[i], unordered_names, &file_findings);
    CheckDiscardedStatus(f, tokens[i], &file_findings);
    if (options.layers != nullptr) {
      CheckLayerDag(f, *options.layers, &file_findings);
    }
    const Annotations ann = ExtractAnnotations(f);
    for (Finding& fd : file_findings) {
      if (ann.Covers(fd.rule, fd.line)) continue;
      bool allowed = false;
      for (const LintConfig::Allow& a : options.config.allow) {
        if (a.rule == fd.rule && a.file == fd.file) {
          allowed = true;
          break;
        }
      }
      if (allowed) continue;
      findings.push_back(std::move(fd));
    }
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });

  // Baseline absorption: the first `count` findings of a (rule, file) pair
  // are legacy debt; anything beyond fails. Shrinkage is reported so the
  // baseline can be tightened.
  std::map<std::pair<std::string, std::string>, int> budget;
  for (const BaselineEntry& e : options.baseline) {
    budget[{e.rule, e.file}] += e.count;
  }
  std::map<std::pair<std::string, std::string>, int> used;
  for (Finding& fd : findings) {
    const auto key = std::make_pair(fd.rule, fd.file);
    auto it = budget.find(key);
    if (it != budget.end() && used[key] < it->second) {
      fd.baselined = true;
      ++used[key];
      ++result.baselined;
    } else {
      ++result.unsuppressed;
    }
  }
  for (const auto& [key, count] : budget) {
    const int have = used.count(key) != 0 ? used[key] : 0;
    if (have < count) {
      result.burn_down.push_back(BaselineEntry{key.first, key.second,
                                               count - have});
    }
  }
  result.total = findings.size();
  result.findings = std::move(findings);
  return result;
}

std::string FindingsToJson(const LintResult& result) {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject();
  w.Break(2).Key("tool").String("rdmajoin_lint");
  w.Break(2).Key("version").Uint(1);
  w.Break(2).Key("total").Uint(result.total);
  w.Break(2).Key("baselined").Uint(result.baselined);
  w.Break(2).Key("unsuppressed").Uint(result.unsuppressed);
  w.Break(2).Key("findings").BeginArray();
  for (const Finding& f : result.findings) {
    w.Break(4).BeginObject().Key("rule").String(f.rule);
    w.Key("file").String(f.file).Key("line").Int(f.line);
    w.Key("baselined").Bool(f.baselined);
    w.Key("message").String(f.message).EndObject();
  }
  if (!result.findings.empty()) w.Break(2);
  w.EndArray();
  w.Break(2).Key("burn_down").BeginArray();
  for (const BaselineEntry& e : result.burn_down) {
    w.Break(4).BeginObject().Key("rule").String(e.rule);
    w.Key("file").String(e.file).Key("stale").Int(e.count).EndObject();
  }
  if (!result.burn_down.empty()) w.Break(2);
  w.EndArray();
  w.Break(0).EndObject();
  out += "\n";
  return out;
}

StatusOr<std::vector<std::string>> CollectSources(
    const std::string& repo_root, const std::vector<std::string>& roots) {
  namespace fs = std::filesystem;
  std::vector<std::string> paths;
  std::error_code ec;
  for (const std::string& root : roots) {
    const fs::path abs = fs::path(repo_root) / root;
    if (fs::is_regular_file(abs, ec)) {
      paths.push_back(root);
      continue;
    }
    if (!fs::is_directory(abs, ec)) {
      return Status::NotFound("lint root not found: " + abs.string());
    }
    for (fs::recursive_directory_iterator it(abs, ec), end; it != end;
         it.increment(ec)) {
      if (ec) {
        return Status::Internal("walking " + abs.string() + ": " + ec.message());
      }
      if (!it->is_regular_file()) continue;
      const std::string ext = it->path().extension().string();
      if (ext != ".cc" && ext != ".h") continue;
      const std::string rel =
          fs::relative(it->path(), fs::path(repo_root), ec).generic_string();
      if (ec) {
        return Status::Internal("relativizing " + it->path().string());
      }
      paths.push_back(rel);
    }
  }
  std::sort(paths.begin(), paths.end());
  paths.erase(std::unique(paths.begin(), paths.end()), paths.end());
  return paths;
}

StatusOr<FileInput> ReadSource(const std::string& repo_root,
                               const std::string& repo_rel) {
  const std::filesystem::path abs =
      std::filesystem::path(repo_root) / repo_rel;
  RDMAJOIN_ASSIGN_OR_RETURN(std::string text, ReadFileToString(abs.string()));
  return FileInput{repo_rel, std::move(text)};
}

}  // namespace rdmajoin::lint
