// Lexer + recursive-descent parser for the vcc C dialect.
#include <cctype>
#include <set>

#include "src/base/nesting.h"
#include "src/vcc/ast.h"

namespace vcc {
namespace {

bool IsIdentStart(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; }
bool IsIdentChar(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }

}  // namespace

vbase::Result<std::vector<Token>> Lex(const std::string& src) {
  std::vector<Token> out;
  int line = 1;
  size_t i = 0;
  const size_t n = src.size();
  auto err = [&](const std::string& msg) {
    return vbase::InvalidArgument("lex error line " + std::to_string(line) + ": " + msg);
  };
  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Comments.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      while (i < n && src[i] != '\n') {
        ++i;
      }
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      i += 2;
      while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) {
        if (src[i] == '\n') {
          ++line;
        }
        ++i;
      }
      if (i + 1 >= n) {
        return err("unterminated block comment");
      }
      i += 2;
      continue;
    }
    if (IsIdentStart(c)) {
      size_t j = i;
      while (j < n && IsIdentChar(src[j])) {
        ++j;
      }
      out.push_back({Tok::kIdent, src.substr(i, j - i), 0, line});
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t j = i;
      uint64_t base = 10;
      if (c == '0' && j + 1 < n && (src[j + 1] == 'x' || src[j + 1] == 'X')) {
        base = 16;
        j += 2;
      }
      uint64_t v = 0;
      const size_t digits_start = j;
      while (j < n && std::isalnum(static_cast<unsigned char>(src[j]))) {
        const char d = static_cast<char>(std::tolower(static_cast<unsigned char>(src[j])));
        uint64_t dv;
        if (d >= '0' && d <= '9') {
          dv = static_cast<uint64_t>(d - '0');
        } else if (base == 16 && d >= 'a' && d <= 'f') {
          dv = static_cast<uint64_t>(d - 'a' + 10);
        } else {
          return err("bad digit in number");
        }
        if (v > (UINT64_MAX - dv) / base) {
          return err("number out of 64-bit range");
        }
        v = v * base + dv;
        ++j;
      }
      if (j == digits_start) {
        return err("bad number");
      }
      out.push_back({Tok::kIntLit, src.substr(i, j - i), static_cast<int64_t>(v), line});
      i = j;
      continue;
    }
    if (c == '\'') {
      ++i;
      if (i >= n) {
        return err("unterminated char literal");
      }
      int64_t v;
      if (src[i] == '\\') {
        ++i;
        if (i >= n) {
          return err("unterminated char escape");
        }
        switch (src[i]) {
          case 'n': v = '\n'; break;
          case 't': v = '\t'; break;
          case 'r': v = '\r'; break;
          case '0': v = '\0'; break;
          case '\\': v = '\\'; break;
          case '\'': v = '\''; break;
          case '"': v = '"'; break;
          default: return err("bad char escape");
        }
        ++i;
      } else {
        v = static_cast<unsigned char>(src[i]);
        ++i;
      }
      if (i >= n || src[i] != '\'') {
        return err("unterminated char literal");
      }
      ++i;
      out.push_back({Tok::kIntLit, "", v, line});
      continue;
    }
    if (c == '"') {
      ++i;
      std::string s;
      while (i < n && src[i] != '"') {
        if (src[i] == '\\' && i + 1 < n) {
          ++i;
          switch (src[i]) {
            case 'n': s += '\n'; break;
            case 't': s += '\t'; break;
            case 'r': s += '\r'; break;
            case '0': s += '\0'; break;
            case '\\': s += '\\'; break;
            case '"': s += '"'; break;
            default: return err("bad string escape");
          }
          ++i;
        } else {
          if (src[i] == '\n') {
            ++line;
          }
          s += src[i++];
        }
      }
      if (i >= n) {
        return err("unterminated string literal");
      }
      ++i;
      out.push_back({Tok::kStrLit, std::move(s), 0, line});
      continue;
    }
    // Punctuation: longest match first.
    static const char* kPuncts[] = {
        "<<=", ">>=", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "+=", "-=",
        "*=", "/=", "%=", "&=", "|=", "^=", "++", "--", "->",
        "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=", "(", ")",
        "{", "}", "[", "]", ";", ",", "?", ":",
    };
    bool matched = false;
    for (const char* p : kPuncts) {
      const size_t len = std::char_traits<char>::length(p);
      if (src.compare(i, len, p) == 0) {
        out.push_back({Tok::kPunct, p, 0, line});
        i += len;
        matched = true;
        break;
      }
    }
    if (!matched) {
      return err(std::string("unexpected character '") + c + "'");
    }
  }
  out.push_back({Tok::kEof, "", 0, line});
  return out;
}

namespace {

// The parser's tables live here, not as function statics, so the recursive
// parse functions' frames hold no initializer temporaries.
constexpr const char* kAssignOps[] = {"=",  "+=", "-=", "*=", "/=",  "%=",
                                      "&=", "|=", "^=", "<<=", ">>="};

bool IsAssignOp(const std::string& text) {
  for (const char* op : kAssignOps) {
    if (text == op) {
      return true;
    }
  }
  return false;
}

// Prefix operators: the node each builds and the op and ival it records
// (ival 1 marks a prefix ++/--).
struct PrefixOp {
  const char* text;
  ExprKind kind;
  const char* op;
  int64_t ival;
};
constexpr PrefixOp kPrefixOps[] = {
    {"-", ExprKind::kUnary, "-", 0},    {"!", ExprKind::kUnary, "!", 0},
    {"~", ExprKind::kUnary, "~", 0},    {"*", ExprKind::kDeref, "", 0},
    {"&", ExprKind::kAddr, "", 0},      {"++", ExprKind::kIncDec, "++", 1},
    {"--", ExprKind::kIncDec, "--", 1},
};

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : toks_(std::move(tokens)) {}

  vbase::Result<Program> Run() {
    Program prog;
    while (!AtEof()) {
      vbase::Status st = ParseTopLevel(&prog);
      if (!st.ok()) {
        return st;
      }
    }
    return prog;
  }

 private:
  const Token& Peek(int ahead = 0) const {
    const size_t at = std::min(pos_ + static_cast<size_t>(ahead), toks_.size() - 1);
    return toks_[at];
  }
  const Token& Next() { return toks_[std::min(pos_++, toks_.size() - 1)]; }
  bool AtEof() const { return Peek().kind == Tok::kEof; }

  bool IsPunct(const char* p, int ahead = 0) const {
    return Peek(ahead).kind == Tok::kPunct && Peek(ahead).text == p;
  }
  bool IsIdent(const char* name, int ahead = 0) const {
    return Peek(ahead).kind == Tok::kIdent && Peek(ahead).text == name;
  }
  bool EatPunct(const char* p) {
    if (IsPunct(p)) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool EatIdent(const char* name) {
    if (IsIdent(name)) {
      ++pos_;
      return true;
    }
    return false;
  }

  vbase::Status Err(const std::string& msg) {
    return vbase::InvalidArgument("parse error line " + std::to_string(Peek().line) + ": " +
                                  msg + " (near '" + Peek().text + "')");
  }

  // Fails once the parse nests deeper than kMaxNesting.
  vbase::Status CheckNesting() {
    if (depth_ > kMaxNesting) {
      return Err("statements and expressions nest deeper than " +
                 std::to_string(kMaxNesting) + " levels");
    }
    return vbase::Status::Ok();
  }

  vbase::Status ExpectPunct(const char* p) {
    if (!EatPunct(p)) {
      return Err(std::string("expected '") + p + "'");
    }
    return vbase::Status::Ok();
  }

  bool PeekType() const {
    return IsIdent("int") || IsIdent("char") || IsIdent("void");
  }

  // type := ("int" | "char" | "void") "*"*
  vbase::Result<Type> ParseType() {
    Type t;
    if (EatIdent("int")) {
      t.base = Type::Base::kInt;
    } else if (EatIdent("char")) {
      t.base = Type::Base::kChar;
    } else if (EatIdent("void")) {
      t.base = Type::Base::kVoid;
    } else {
      return Err("expected type");
    }
    while (EatPunct("*")) {
      ++t.ptr;
    }
    return t;
  }

  // Constant folding for global initializers, virtine_config masks and case
  // labels.
  vbase::Result<int64_t> FoldConst(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kIntLit:
        return e.ival;
      case ExprKind::kUnary: {
        auto v = FoldConst(*e.a);
        if (!v.ok()) {
          return v;
        }
        if (e.op == "-") return -*v;
        if (e.op == "~") return ~*v;
        if (e.op == "!") return static_cast<int64_t>(*v == 0);
        return Err("non-constant unary");
      }
      case ExprKind::kBinary: {
        auto l = FoldConst(*e.a);
        auto r = FoldConst(*e.b);
        if (!l.ok()) return l;
        if (!r.ok()) return r;
        const int64_t a = *l;
        const int64_t b = *r;
        if (e.op == "+") return a + b;
        if (e.op == "-") return a - b;
        if (e.op == "*") return a * b;
        if (e.op == "/") return b == 0 ? vbase::Result<int64_t>(Err("div by zero")) : a / b;
        if (e.op == "%") return b == 0 ? vbase::Result<int64_t>(Err("mod by zero")) : a % b;
        if (e.op == "<<") return a << (b & 63);
        if (e.op == ">>") return a >> (b & 63);
        if (e.op == "&") return a & b;
        if (e.op == "|") return a | b;
        if (e.op == "^") return a ^ b;
        return Err("non-constant binary");
      }
      default:
        return Err("expression is not a compile-time constant");
    }
  }

  vbase::Status ParseTopLevel(Program* prog) {
    Annotation anno = Annotation::kNone;
    uint64_t config_mask = 0;
    if (EatIdent("virtine")) {
      anno = Annotation::kVirtine;
    } else if (EatIdent("virtine_permissive")) {
      anno = Annotation::kVirtinePermissive;
    } else if (EatIdent("virtine_config")) {
      anno = Annotation::kVirtineConfig;
      VB_RETURN_IF_ERROR(ExpectPunct("("));
      auto mask_expr = ParseExpr();
      if (!mask_expr.ok()) {
        return mask_expr.status();
      }
      auto mask = FoldConst(**mask_expr);
      if (!mask.ok()) {
        return mask.status();
      }
      config_mask = static_cast<uint64_t>(*mask);
      VB_RETURN_IF_ERROR(ExpectPunct(")"));
    }

    auto type = ParseType();
    if (!type.ok()) {
      return type.status();
    }
    if (Peek().kind != Tok::kIdent) {
      return Err("expected declarator name");
    }
    const int line = Peek().line;
    std::string name = Next().text;

    if (IsPunct("(")) {
      // Function definition.
      Next();
      Function fn;
      fn.name = std::move(name);
      fn.ret = *type;
      fn.anno = anno;
      fn.config_mask = config_mask;
      fn.line = line;
      if (!IsPunct(")")) {
        while (true) {
          if (EatIdent("void") && IsPunct(")")) {
            break;
          }
          auto pt = ParseType();
          if (!pt.ok()) {
            return pt.status();
          }
          if (Peek().kind != Tok::kIdent) {
            return Err("expected parameter name");
          }
          fn.params.push_back({*pt, Next().text});
          if (!EatPunct(",")) {
            break;
          }
        }
      }
      VB_RETURN_IF_ERROR(ExpectPunct(")"));
      auto body = ParseBlock();
      if (!body.ok()) {
        return body.status();
      }
      fn.body = std::move(*body);
      prog->functions.push_back(std::move(fn));
      return vbase::Status::Ok();
    }

    // Global variable.
    if (anno != Annotation::kNone) {
      return Err("virtine annotations apply to functions only");
    }
    Global g;
    g.type = *type;
    g.name = std::move(name);
    g.line = line;
    if (EatPunct("[")) {
      auto count_expr = ParseExpr();
      if (!count_expr.ok()) {
        return count_expr.status();
      }
      auto count = FoldConst(**count_expr);
      if (!count.ok()) {
        return count.status();
      }
      g.array_count = *count;
      VB_RETURN_IF_ERROR(ExpectPunct("]"));
    }
    if (EatPunct("=")) {
      if (Peek().kind == Tok::kStrLit) {
        g.init_string = Next().text;
        g.has_string_init = true;
      } else if (EatPunct("{")) {
        while (!IsPunct("}")) {
          auto e = ParseAssign();
          if (!e.ok()) {
            return e.status();
          }
          auto v = FoldConst(**e);
          if (!v.ok()) {
            return v.status();
          }
          g.init_values.push_back(*v);
          if (!EatPunct(",")) {
            break;
          }
        }
        VB_RETURN_IF_ERROR(ExpectPunct("}"));
      } else {
        auto e = ParseAssign();
        if (!e.ok()) {
          return e.status();
        }
        auto v = FoldConst(**e);
        if (!v.ok()) {
          return v.status();
        }
        g.init_values.push_back(*v);
      }
    }
    VB_RETURN_IF_ERROR(ExpectPunct(";"));
    prog->globals.push_back(std::move(g));
    return vbase::Status::Ok();
  }

  using ExprP = std::unique_ptr<Expr>;
  using StmtP = std::unique_ptr<Stmt>;

  static ExprP MakeExpr(ExprKind kind, int line) {
    auto e = std::make_unique<Expr>();
    e->kind = kind;
    e->line = line;
    return e;
  }

  // --- Statements -------------------------------------------------------

  vbase::Result<StmtP> ParseBlock() {
    VB_RETURN_IF_ERROR(ExpectPunct("{"));
    auto block = std::make_unique<Stmt>();
    block->kind = StmtKind::kBlock;
    block->line = Peek().line;
    while (!IsPunct("}")) {
      if (AtEof()) {
        return Err("unterminated block");
      }
      auto s = ParseStmt();
      if (!s.ok()) {
        return s.status();
      }
      block->body.push_back(std::move(*s));
    }
    Next();  // '}'
    return block;
  }

  vbase::Result<StmtP> ParseStmt() {
    const vbase::NestingLevel level(&depth_);
    VB_RETURN_IF_ERROR(CheckNesting());
    const int line = Peek().line;
    if (IsPunct("{")) {
      return ParseBlock();
    }
    auto stmt = std::make_unique<Stmt>();
    stmt->line = line;
    if (EatIdent("if")) {
      stmt->kind = StmtKind::kIf;
      VB_RETURN_IF_ERROR(ExpectPunct("("));
      auto cond = ParseExpr();
      if (!cond.ok()) return cond.status();
      stmt->e = std::move(*cond);
      VB_RETURN_IF_ERROR(ExpectPunct(")"));
      auto then = ParseStmt();
      if (!then.ok()) return then.status();
      stmt->s1 = std::move(*then);
      if (EatIdent("else")) {
        auto els = ParseStmt();
        if (!els.ok()) return els.status();
        stmt->s2 = std::move(*els);
      }
      return stmt;
    }
    if (EatIdent("while")) {
      stmt->kind = StmtKind::kWhile;
      VB_RETURN_IF_ERROR(ExpectPunct("("));
      auto cond = ParseExpr();
      if (!cond.ok()) return cond.status();
      stmt->e = std::move(*cond);
      VB_RETURN_IF_ERROR(ExpectPunct(")"));
      auto body = ParseStmt();
      if (!body.ok()) return body.status();
      stmt->s1 = std::move(*body);
      return stmt;
    }
    if (EatIdent("for")) {
      stmt->kind = StmtKind::kFor;
      VB_RETURN_IF_ERROR(ExpectPunct("("));
      if (!IsPunct(";")) {
        auto init = ParseSimpleStmt();
        if (!init.ok()) return init.status();
        stmt->s1 = std::move(*init);
      }
      VB_RETURN_IF_ERROR(ExpectPunct(";"));
      if (!IsPunct(";")) {
        auto cond = ParseExpr();
        if (!cond.ok()) return cond.status();
        stmt->e = std::move(*cond);
      }
      VB_RETURN_IF_ERROR(ExpectPunct(";"));
      if (!IsPunct(")")) {
        auto post = ParseExpr();
        if (!post.ok()) return post.status();
        stmt->e3 = std::move(*post);
      }
      VB_RETURN_IF_ERROR(ExpectPunct(")"));
      auto body = ParseStmt();
      if (!body.ok()) return body.status();
      stmt->s2 = std::move(*body);
      return stmt;
    }
    if (EatIdent("return")) {
      stmt->kind = StmtKind::kReturn;
      if (!IsPunct(";")) {
        auto e = ParseExpr();
        if (!e.ok()) return e.status();
        stmt->e = std::move(*e);
      }
      VB_RETURN_IF_ERROR(ExpectPunct(";"));
      return stmt;
    }
    if (EatIdent("switch")) {
      stmt->kind = StmtKind::kSwitch;
      VB_RETURN_IF_ERROR(ExpectPunct("("));
      auto scrutinee = ParseExpr();
      if (!scrutinee.ok()) return scrutinee.status();
      stmt->e = std::move(*scrutinee);
      VB_RETURN_IF_ERROR(ExpectPunct(")"));
      auto body = ParseSwitchBody();
      if (!body.ok()) return body.status();
      stmt->s1 = std::move(*body);
      return stmt;
    }
    if (IsIdent("case") || IsIdent("default")) {
      return Err("'" + Peek().text + "' label outside a switch body");
    }
    if (EatIdent("break")) {
      stmt->kind = StmtKind::kBreak;
      VB_RETURN_IF_ERROR(ExpectPunct(";"));
      return stmt;
    }
    if (EatIdent("continue")) {
      stmt->kind = StmtKind::kContinue;
      VB_RETURN_IF_ERROR(ExpectPunct(";"));
      return stmt;
    }
    auto simple = ParseSimpleStmt();
    if (!simple.ok()) {
      return simple.status();
    }
    VB_RETURN_IF_ERROR(ExpectPunct(";"));
    return std::move(*simple);
  }

  // A switch body: a block whose direct children may also be `case K:` and
  // `default:` labels.  K is a constant expression, folded here; a label
  // anywhere deeper is rejected by ParseStmt.
  vbase::Result<StmtP> ParseSwitchBody() {
    VB_RETURN_IF_ERROR(ExpectPunct("{"));
    auto block = std::make_unique<Stmt>();
    block->kind = StmtKind::kBlock;
    block->line = Peek().line;
    std::set<int64_t> values;
    bool has_default = false;
    while (!IsPunct("}")) {
      if (AtEof()) {
        return Err("unterminated switch body");
      }
      const bool is_case = IsIdent("case");
      if (!is_case && !IsIdent("default")) {
        auto s = ParseStmt();
        if (!s.ok()) return s.status();
        block->body.push_back(std::move(*s));
        continue;
      }
      auto label = std::make_unique<Stmt>();
      label->kind = is_case ? StmtKind::kCase : StmtKind::kDefault;
      label->line = Next().line;
      if (is_case) {
        auto e = ParseCond();
        if (!e.ok()) return e.status();
        auto v = FoldConst(**e);
        if (!v.ok()) return v.status();
        if (!values.insert(*v).second) {
          return Err("duplicate case value " + std::to_string(*v));
        }
        label->case_value = *v;
      } else {
        if (has_default) {
          return Err("second default label in one switch");
        }
        has_default = true;
      }
      VB_RETURN_IF_ERROR(ExpectPunct(":"));
      block->body.push_back(std::move(label));
    }
    Next();  // '}'
    return block;
  }

  // A declaration or expression statement without the trailing ';' (shared
  // with for-init).
  vbase::Result<StmtP> ParseSimpleStmt() {
    auto stmt = std::make_unique<Stmt>();
    stmt->line = Peek().line;
    if (PeekType()) {
      stmt->kind = StmtKind::kDecl;
      auto type = ParseType();
      if (!type.ok()) return type.status();
      stmt->type = *type;
      if (Peek().kind != Tok::kIdent) {
        return Err("expected variable name");
      }
      stmt->name = Next().text;
      if (EatPunct("[")) {
        auto count_expr = ParseExpr();
        if (!count_expr.ok()) return count_expr.status();
        auto count = FoldConst(**count_expr);
        if (!count.ok()) return count.status();
        stmt->array_count = *count;
        VB_RETURN_IF_ERROR(ExpectPunct("]"));
      }
      if (EatPunct("=")) {
        auto init = ParseAssign();
        if (!init.ok()) return init.status();
        stmt->init = std::move(*init);
      }
      return stmt;
    }
    stmt->kind = StmtKind::kExpr;
    auto e = ParseExpr();
    if (!e.ok()) return e.status();
    stmt->e = std::move(*e);
    return stmt;
  }

  // --- Expressions (precedence climbing) -----------------------------------

  vbase::Result<ExprP> ParseExpr() { return ParseAssign(); }

  vbase::Result<ExprP> ParseAssign() {
    const vbase::NestingLevel level(&depth_);
    VB_RETURN_IF_ERROR(CheckNesting());
    auto lhs = ParseCond();
    if (!lhs.ok()) {
      return lhs;
    }
    if (Peek().kind == Tok::kPunct && IsAssignOp(Peek().text)) {
      const int line = Peek().line;
      std::string op = Next().text;
      auto rhs = ParseAssign();
      if (!rhs.ok()) {
        return rhs;
      }
      auto e = MakeExpr(ExprKind::kAssign, line);
      e->op = std::move(op);
      e->a = std::move(*lhs);
      e->b = std::move(*rhs);
      return e;
    }
    return lhs;
  }

  vbase::Result<ExprP> ParseCond() {
    auto cond = ParseBinary(0);
    if (!cond.ok()) {
      return cond;
    }
    if (IsPunct("?")) {
      const vbase::NestingLevel level(&depth_);  // the else arm recurses here
      VB_RETURN_IF_ERROR(CheckNesting());
      const int line = Next().line;
      auto then = ParseAssign();
      if (!then.ok()) return then;
      VB_RETURN_IF_ERROR(ExpectPunct(":"));
      auto els = ParseCond();
      if (!els.ok()) return els;
      auto e = MakeExpr(ExprKind::kCond, line);
      e->a = std::move(*cond);
      e->b = std::move(*then);
      e->c = std::move(*els);
      return e;
    }
    return cond;
  }

  static int Precedence(const std::string& op) {
    if (op == "||") return 1;
    if (op == "&&") return 2;
    if (op == "|") return 3;
    if (op == "^") return 4;
    if (op == "&") return 5;
    if (op == "==" || op == "!=") return 6;
    if (op == "<" || op == "<=" || op == ">" || op == ">=") return 7;
    if (op == "<<" || op == ">>") return 8;
    if (op == "+" || op == "-") return 9;
    if (op == "*" || op == "/" || op == "%") return 10;
    return -1;
  }

  vbase::Result<ExprP> ParseBinary(int min_prec) {
    auto lhs = ParseUnary();
    if (!lhs.ok()) {
      return lhs;
    }
    vbase::NestingLevel chain(&depth_, 0);
    while (Peek().kind == Tok::kPunct) {
      const int prec = Precedence(Peek().text);
      if (prec < 0 || prec < min_prec) {
        break;
      }
      chain.Add();
      VB_RETURN_IF_ERROR(CheckNesting());
      const int line = Peek().line;
      std::string op = Next().text;
      auto rhs = ParseBinary(prec + 1);
      if (!rhs.ok()) {
        return rhs;
      }
      auto e = MakeExpr(ExprKind::kBinary, line);
      e->op = std::move(op);
      e->a = std::move(*lhs);
      e->b = std::move(*rhs);
      lhs = vbase::Result<ExprP>(std::move(e));
    }
    return lhs;
  }

  vbase::Result<ExprP> ParseUnary() {
    const vbase::NestingLevel level(&depth_);
    VB_RETURN_IF_ERROR(CheckNesting());
    const int line = Peek().line;
    for (const PrefixOp& p : kPrefixOps) {
      if (EatPunct(p.text)) {
        auto a = ParseUnary();
        if (!a.ok()) return a;
        auto e = MakeExpr(p.kind, line);
        e->op = p.op;
        e->ival = p.ival;
        e->a = std::move(*a);
        return e;
      }
    }
    if (IsIdent("sizeof")) {
      Next();
      VB_RETURN_IF_ERROR(ExpectPunct("("));
      auto t = ParseType();
      if (!t.ok()) return t.status();
      VB_RETURN_IF_ERROR(ExpectPunct(")"));
      auto e = MakeExpr(ExprKind::kSizeof, line);
      e->type_arg = *t;
      return e;
    }
    return ParsePostfix();
  }

  vbase::Result<ExprP> ParsePostfix() {
    auto base = ParsePrimary();
    if (!base.ok()) {
      return base;
    }
    vbase::NestingLevel chain(&depth_, 0);
    while (IsPunct("[") || IsPunct("++") || IsPunct("--")) {
      chain.Add();
      VB_RETURN_IF_ERROR(CheckNesting());
      const int line = Peek().line;
      if (EatPunct("[")) {
        auto idx = ParseExpr();
        if (!idx.ok()) return idx;
        VB_RETURN_IF_ERROR(ExpectPunct("]"));
        auto e = MakeExpr(ExprKind::kIndex, line);
        e->a = std::move(*base);
        e->b = std::move(*idx);
        base = vbase::Result<ExprP>(std::move(e));
      } else {
        auto e = MakeExpr(ExprKind::kIncDec, line);
        e->op = Next().text;
        e->ival = 0;  // postfix
        e->a = std::move(*base);
        base = vbase::Result<ExprP>(std::move(e));
      }
    }
    return base;
  }

  vbase::Result<ExprP> ParsePrimary() {
    const Token& t = Peek();
    const int line = t.line;
    if (t.kind == Tok::kIntLit) {
      auto e = MakeExpr(ExprKind::kIntLit, line);
      e->ival = Next().value;
      return e;
    }
    if (t.kind == Tok::kStrLit) {
      auto e = MakeExpr(ExprKind::kStrLit, line);
      e->name = Next().text;
      return e;
    }
    if (EatPunct("(")) {
      auto e = ParseExpr();
      if (!e.ok()) return e;
      VB_RETURN_IF_ERROR(ExpectPunct(")"));
      return e;
    }
    if (t.kind == Tok::kIdent) {
      std::string name = Next().text;
      if (EatPunct("(")) {
        auto e = MakeExpr(ExprKind::kCall, line);
        e->name = std::move(name);
        if (!IsPunct(")")) {
          while (true) {
            auto arg = ParseAssign();
            if (!arg.ok()) return arg;
            e->args.push_back(std::move(*arg));
            if (!EatPunct(",")) {
              break;
            }
          }
        }
        VB_RETURN_IF_ERROR(ExpectPunct(")"));
        return e;
      }
      auto e = MakeExpr(ExprKind::kVar, line);
      e->name = std::move(name);
      return e;
    }
    return Err("expected expression");
  }

  std::vector<Token> toks_;
  size_t pos_ = 0;
  int depth_ = 0;  // statement/expression nesting of the parse
};

}  // namespace

vbase::Result<Program> Parse(const std::string& source) {
  auto toks = Lex(source);
  if (!toks.ok()) {
    return toks.status();
  }
  Parser parser(std::move(*toks));
  return parser.Run();
}

}  // namespace vcc
