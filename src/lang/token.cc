#include "lang/token.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <iterator>

#include "util/string_util.h"

namespace ttra::lang {

namespace {

// The reserved words, in sorted order so that classifying a word is one
// binary search over length-carrying views:
//   commands — define_relation modify_state delete_relation modify_schema
//     show;
//   relation types — snapshot rollback historical temporal;
//   algebraic operators (polymorphic: resolved to the snapshot or
//     historical variant during analysis) — union minus times intersect
//     join project select rename extend delta rho hrho summarize;
//   aggregate functions — count sum min max avg;
//   predicate / temporal-expression vocabulary — and or not true false
//     valid overlaps contains before equals isempty u;
//   numerals — inf;
//   attribute types — int double string bool usertime.
constexpr std::string_view kKeywords[] = {
    "and", "avg", "before", "bool", "contains", "count", "define_relation",
    "delete_relation", "delta", "double", "equals", "extend", "false",
    "historical", "hrho", "inf", "int", "intersect", "isempty", "join", "max",
    "min", "minus", "modify_schema", "modify_state", "not", "or", "overlaps",
    "project", "rename", "rho", "rollback", "select", "show", "snapshot",
    "string", "sum", "summarize", "temporal", "times", "true", "u", "union",
    "usertime", "valid",
};
static_assert(std::is_sorted(std::begin(kKeywords), std::end(kKeywords)));

}  // namespace

std::string_view TokenKindName(TokenKind kind) {
  switch (kind) {
    case TokenKind::kEnd:
      return "end of input";
    case TokenKind::kIdentifier:
      return "identifier";
    case TokenKind::kKeyword:
      return "keyword";
    case TokenKind::kIntLiteral:
      return "integer literal";
    case TokenKind::kDoubleLiteral:
      return "double literal";
    case TokenKind::kStringLiteral:
      return "string literal";
    case TokenKind::kTimeLiteral:
      return "time literal";
    case TokenKind::kLParen:
      return "'('";
    case TokenKind::kRParen:
      return "')'";
    case TokenKind::kLBrace:
      return "'{'";
    case TokenKind::kRBrace:
      return "'}'";
    case TokenKind::kLBracket:
      return "'['";
    case TokenKind::kRBracket:
      return "']'";
    case TokenKind::kComma:
      return "','";
    case TokenKind::kSemicolon:
      return "';'";
    case TokenKind::kColon:
      return "':'";
    case TokenKind::kAtSign:
      return "'@'";
    case TokenKind::kArrow:
      return "'->'";
    case TokenKind::kEq:
      return "'='";
    case TokenKind::kNe:
      return "'!='";
    case TokenKind::kLt:
      return "'<'";
    case TokenKind::kLe:
      return "'<='";
    case TokenKind::kGt:
      return "'>'";
    case TokenKind::kGe:
      return "'>='";
    case TokenKind::kPlus:
      return "'+'";
    case TokenKind::kMinusSign:
      return "'-'";
    case TokenKind::kStar:
      return "'*'";
    case TokenKind::kSlash:
      return "'/'";
  }
  return "unknown token";
}

std::string Token::Describe() const {
  switch (kind) {
    case TokenKind::kIdentifier:
      return "identifier '" + text + "'";
    case TokenKind::kKeyword:
      return "keyword '" + text + "'";
    case TokenKind::kIntLiteral:
      return "integer " + std::to_string(int_value);
    case TokenKind::kDoubleLiteral:
      return "double " + std::to_string(double_value);
    case TokenKind::kStringLiteral:
      return "string \"" + EscapeString(text) + "\"";
    case TokenKind::kTimeLiteral:
      return "time @" + std::to_string(int_value);
    default:
      return std::string(TokenKindName(kind));
  }
}

size_t Token::Width() const {
  switch (kind) {
    case TokenKind::kEnd:
      return 0;
    case TokenKind::kIdentifier:
    case TokenKind::kKeyword:
      return text.size();
    case TokenKind::kStringLiteral:
      return text.size() + 2;  // surrounding quotes (escapes approximated)
    case TokenKind::kIntLiteral:
      return std::to_string(int_value).size();
    case TokenKind::kTimeLiteral:
      return std::to_string(int_value).size() + 1;  // leading '@'
    case TokenKind::kDoubleLiteral:
      return std::to_string(double_value).size();  // approximate
    case TokenKind::kArrow:
    case TokenKind::kNe:
    case TokenKind::kLe:
    case TokenKind::kGe:
      return 2;
    default:
      return 1;
  }
}

bool IsKeyword(std::string_view word) {
  return std::binary_search(std::begin(kKeywords), std::end(kKeywords), word);
}

namespace {

class Lexer {
 public:
  explicit Lexer(std::string_view source) : source_(source) {}

  Result<std::vector<Token>> Run() {
    std::vector<Token> tokens;
    for (;;) {
      SkipWhitespaceAndComments();
      Token token;
      token.line = line_;
      token.column = column_;
      if (AtEnd()) {
        token.kind = TokenKind::kEnd;
        tokens.push_back(std::move(token));
        return tokens;
      }
      TTRA_RETURN_IF_ERROR(LexOne(token));
      tokens.push_back(std::move(token));
    }
  }

 private:
  bool AtEnd() const { return pos_ >= source_.size(); }
  char Peek(size_t ahead = 0) const {
    return pos_ + ahead < source_.size() ? source_[pos_ + ahead] : '\0';
  }
  char Advance() {
    char c = source_[pos_++];
    if (c == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    return c;
  }

  void SkipWhitespaceAndComments() {
    for (;;) {
      while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) {
        Advance();
      }
      if (Peek() == '-' && Peek(1) == '-') {
        while (!AtEnd() && Peek() != '\n') Advance();
        continue;
      }
      return;
    }
  }

  Status ErrorHere(std::string_view message) const {
    error_line_ = line_;
    error_column_ = column_;
    return ParseError(std::string(message) + " at line " +
                      std::to_string(line_) + ", column " +
                      std::to_string(column_));
  }

 public:
  size_t error_line() const { return error_line_; }
  size_t error_column() const { return error_column_; }

 private:

  Status LexOne(Token& token) {
    const char c = Peek();
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      return LexWord(token);
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      return LexNumber(token);
    }
    switch (c) {
      case '"':
        return LexString(token);
      case '@':
        return LexTime(token);
      case '(':
        Advance();
        token.kind = TokenKind::kLParen;
        return Status::Ok();
      case ')':
        Advance();
        token.kind = TokenKind::kRParen;
        return Status::Ok();
      case '{':
        Advance();
        token.kind = TokenKind::kLBrace;
        return Status::Ok();
      case '}':
        Advance();
        token.kind = TokenKind::kRBrace;
        return Status::Ok();
      case '[':
        Advance();
        token.kind = TokenKind::kLBracket;
        return Status::Ok();
      case ']':
        Advance();
        token.kind = TokenKind::kRBracket;
        return Status::Ok();
      case ',':
        Advance();
        token.kind = TokenKind::kComma;
        return Status::Ok();
      case ';':
        Advance();
        token.kind = TokenKind::kSemicolon;
        return Status::Ok();
      case ':':
        Advance();
        token.kind = TokenKind::kColon;
        return Status::Ok();
      case '=':
        Advance();
        token.kind = TokenKind::kEq;
        return Status::Ok();
      case '!':
        Advance();
        if (Peek() != '=') return ErrorHere("expected '=' after '!'");
        Advance();
        token.kind = TokenKind::kNe;
        return Status::Ok();
      case '<':
        Advance();
        if (Peek() == '=') {
          Advance();
          token.kind = TokenKind::kLe;
        } else {
          token.kind = TokenKind::kLt;
        }
        return Status::Ok();
      case '>':
        Advance();
        if (Peek() == '=') {
          Advance();
          token.kind = TokenKind::kGe;
        } else {
          token.kind = TokenKind::kGt;
        }
        return Status::Ok();
      case '+':
        Advance();
        token.kind = TokenKind::kPlus;
        return Status::Ok();
      case '-':
        Advance();
        if (Peek() == '>') {
          Advance();
          token.kind = TokenKind::kArrow;
          return Status::Ok();
        }
        // Unary minus on literals is handled by the parser so that
        // `sal - 500` and `(-500)` both lex unambiguously.
        token.kind = TokenKind::kMinusSign;
        return Status::Ok();
      case '*':
        Advance();
        token.kind = TokenKind::kStar;
        return Status::Ok();
      case '/':
        Advance();
        token.kind = TokenKind::kSlash;
        return Status::Ok();
      default:
        return ErrorHere(std::string("unexpected character '") + c + "'");
    }
  }

  Status LexWord(Token& token) {
    // A word never spans a newline, so it is one slice of the source.
    const size_t start = pos_;
    while (!AtEnd() && (std::isalnum(static_cast<unsigned char>(Peek())) ||
                        Peek() == '_')) {
      ++pos_;
    }
    const std::string_view word = source_.substr(start, pos_ - start);
    column_ += word.size();
    token.kind = IsKeyword(word) ? TokenKind::kKeyword
                                 : TokenKind::kIdentifier;
    token.text.assign(word);
    return Status::Ok();
  }

  void SkipDigits() {
    while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
      Advance();
    }
  }

  // Parses `text` (an optional '-' and digits) into `out`; false when the
  // value does not fit an int64.
  static bool ParseInt(std::string_view text, int64_t& out) {
    const auto [end, error] =
        std::from_chars(text.data(), text.data() + text.size(), out);
    return error == std::errc() && end == text.data() + text.size();
  }

  Status LexNumber(Token& token) {
    // A numeral never spans a newline, so it is one slice of the source.
    const size_t start = pos_;
    SkipDigits();
    bool is_double = false;
    if (Peek() == '.' && std::isdigit(static_cast<unsigned char>(Peek(1)))) {
      is_double = true;
      Advance();
      SkipDigits();
    }
    if (Peek() == 'e' || Peek() == 'E') {
      const char next = Peek(1);
      const char next2 = Peek(2);
      if (std::isdigit(static_cast<unsigned char>(next)) ||
          ((next == '+' || next == '-') &&
           std::isdigit(static_cast<unsigned char>(next2)))) {
        is_double = true;
        Advance();  // e
        if (Peek() == '+' || Peek() == '-') Advance();
        SkipDigits();
      }
    }
    const std::string_view digits = source_.substr(start, pos_ - start);
    if (!is_double) {
      token.kind = TokenKind::kIntLiteral;
      if (ParseInt(digits, token.int_value)) return Status::Ok();
      return ErrorHere("numeric literal out of range: " + std::string(digits));
    }
    try {
      token.kind = TokenKind::kDoubleLiteral;
      token.double_value = std::stod(std::string(digits));
    } catch (const std::exception&) {
      return ErrorHere("numeric literal out of range: " + std::string(digits));
    }
    return Status::Ok();
  }

  Status LexString(Token& token) {
    Advance();  // opening quote
    std::string raw;
    for (;;) {
      if (AtEnd()) return ErrorHere("unterminated string literal");
      char c = Advance();
      if (c == '"') break;
      if (c == '\\') {
        if (AtEnd()) return ErrorHere("unterminated escape in string");
        raw.push_back('\\');
        raw.push_back(Advance());
        continue;
      }
      raw.push_back(c);
    }
    token.kind = TokenKind::kStringLiteral;
    token.text = UnescapeString(raw);
    return Status::Ok();
  }

  Status LexTime(Token& token) {
    // '@' followed by (optionally negative) digits is a user-time literal;
    // a bare '@' is the valid-time separator of historical tuples.
    if (!std::isdigit(static_cast<unsigned char>(Peek(1))) &&
        !(Peek(1) == '-' &&
          std::isdigit(static_cast<unsigned char>(Peek(2))))) {
      Advance();  // '@'
      token.kind = TokenKind::kAtSign;
      return Status::Ok();
    }
    Advance();  // '@'
    const size_t start = pos_;
    if (Peek() == '-') Advance();
    if (!std::isdigit(static_cast<unsigned char>(Peek()))) {
      return ErrorHere("expected digits after '@'");
    }
    SkipDigits();
    const std::string_view text = source_.substr(start, pos_ - start);
    token.kind = TokenKind::kTimeLiteral;
    if (ParseInt(text, token.int_value)) return Status::Ok();
    const std::string_view digits = text.substr(text[0] == '-' ? 1 : 0);
    return ErrorHere("time literal out of range: @" + std::string(digits));
  }

  std::string_view source_;
  size_t pos_ = 0;
  size_t line_ = 1;
  size_t column_ = 1;
  mutable size_t error_line_ = 0;
  mutable size_t error_column_ = 0;
};

}  // namespace

Result<std::vector<Token>> Tokenize(std::string_view source) {
  return Lexer(source).Run();
}

Result<std::vector<Token>> Tokenize(std::string_view source,
                                    size_t* error_line, size_t* error_column) {
  Lexer lexer(source);
  auto tokens = lexer.Run();
  if (!tokens.ok()) {
    if (error_line != nullptr) *error_line = lexer.error_line();
    if (error_column != nullptr) *error_column = lexer.error_column();
  }
  return tokens;
}

}  // namespace ttra::lang
