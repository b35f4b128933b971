#include "src/query/lexer.h"

#include <cctype>
#include <charconv>
#include <system_error>

namespace pivot {

namespace {

bool IsIdentStart(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; }
bool IsIdentCont(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }

}  // namespace

Result<std::vector<Token>> Tokenize(std::string_view text) {
  std::vector<Token> out;
  size_t i = 0;
  auto push = [&](TokenKind kind, size_t at, std::string tok_text = "") {
    Token t;
    t.kind = kind;
    t.text = std::move(tok_text);
    t.offset = at;
    out.push_back(std::move(t));
  };

  while (i < text.size()) {
    char c = text[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    size_t start = i;
    if (IsIdentStart(c)) {
      size_t j = i + 1;
      while (j < text.size() && IsIdentCont(text[j])) {
        ++j;
      }
      push(TokenKind::kIdent, start, std::string(text.substr(i, j - i)));
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t j = i;
      bool is_double = false;
      while (j < text.size() && std::isdigit(static_cast<unsigned char>(text[j]))) {
        ++j;
      }
      // A '.' starts a fraction only if followed by a digit — otherwise it is
      // a field-access dot (not produced after numbers, but be strict).
      if (j + 1 < text.size() && text[j] == '.' &&
          std::isdigit(static_cast<unsigned char>(text[j + 1]))) {
        is_double = true;
        ++j;
        while (j < text.size() && std::isdigit(static_cast<unsigned char>(text[j]))) {
          ++j;
        }
      }
      std::string num(text.substr(i, j - i));
      Token t;
      t.offset = start;
      t.kind = is_double ? TokenKind::kDouble : TokenKind::kInt;
      const char* end = num.data() + num.size();
      std::from_chars_result parsed = is_double
                                          ? std::from_chars(num.data(), end, t.double_value)
                                          : std::from_chars(num.data(), end, t.int_value);
      if (parsed.ec != std::errc() || parsed.ptr != end) {
        return InvalidArgumentError("number out of range at offset " + std::to_string(start));
      }
      t.text = std::move(num);
      out.push_back(std::move(t));
      i = j;
      continue;
    }
    if (c == '"' || c == '\'') {
      char quote = c;
      size_t j = i + 1;
      std::string s;
      while (j < text.size() && text[j] != quote) {
        if (text[j] == '\\' && j + 1 < text.size()) {
          ++j;  // Simple escape: next char literal.
        }
        s += text[j];
        ++j;
      }
      if (j >= text.size()) {
        return InvalidArgumentError("unterminated string literal at offset " +
                                    std::to_string(start));
      }
      push(TokenKind::kString, start, std::move(s));
      i = j + 1;
      continue;
    }
    // The paper's Q8 uses the UTF-8 math minus (U+2212, E2 88 92); accept it
    // as '-' so queries can be pasted verbatim.
    if (static_cast<unsigned char>(c) == 0xE2) {
      if (i + 2 < text.size() && static_cast<unsigned char>(text[i + 1]) == 0x88 &&
          static_cast<unsigned char>(text[i + 2]) == 0x92) {
        push(TokenKind::kMinus, start);
        i += 3;
        continue;
      }
      return InvalidArgumentError("unexpected character at offset " + std::to_string(start));
    }
    auto two = [&](char next) { return i + 1 < text.size() && text[i + 1] == next; };
    switch (c) {
      case ',':
        push(TokenKind::kComma, start);
        ++i;
        break;
      case '.':
        push(TokenKind::kDot, start);
        ++i;
        break;
      case '(':
        push(TokenKind::kLParen, start);
        ++i;
        break;
      case ')':
        push(TokenKind::kRParen, start);
        ++i;
        break;
      case '+':
        push(TokenKind::kPlus, start);
        ++i;
        break;
      case '-':
        if (two('>')) {
          push(TokenKind::kArrow, start);
          i += 2;
        } else {
          push(TokenKind::kMinus, start);
          ++i;
        }
        break;
      case '*':
        push(TokenKind::kStar, start);
        ++i;
        break;
      case '/':
        push(TokenKind::kSlash, start);
        ++i;
        break;
      case '%':
        push(TokenKind::kPercent, start);
        ++i;
        break;
      case '=':
        if (two('=')) {
          push(TokenKind::kEq, start);
          i += 2;
        } else {
          return InvalidArgumentError("expected '==' at offset " + std::to_string(start));
        }
        break;
      case '!':
        if (two('=')) {
          push(TokenKind::kNe, start);
          i += 2;
        } else {
          push(TokenKind::kBang, start);
          ++i;
        }
        break;
      case '<':
        if (two('=')) {
          push(TokenKind::kLe, start);
          i += 2;
        } else {
          push(TokenKind::kLt, start);
          ++i;
        }
        break;
      case '>':
        if (two('=')) {
          push(TokenKind::kGe, start);
          i += 2;
        } else {
          push(TokenKind::kGt, start);
          ++i;
        }
        break;
      case '&':
        if (two('&')) {
          push(TokenKind::kAnd, start);
          i += 2;
        } else {
          return InvalidArgumentError("expected '&&' at offset " + std::to_string(start));
        }
        break;
      case '|':
        if (two('|')) {
          push(TokenKind::kOr, start);
          i += 2;
        } else {
          return InvalidArgumentError("expected '||' at offset " + std::to_string(start));
        }
        break;
      default:
        return InvalidArgumentError("unexpected character '" + std::string(1, c) +
                                    "' at offset " + std::to_string(start));
    }
  }
  push(TokenKind::kEnd, text.size());
  return out;
}

}  // namespace pivot
