// Internal AST, token, and type definitions for the vcc compiler.
#ifndef SRC_VCC_AST_H_
#define SRC_VCC_AST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/vcc/vcc.h"

namespace vcc {

// --- Tokens -----------------------------------------------------------------

enum class Tok : uint8_t {
  kEof,
  kIdent,
  kIntLit,
  kStrLit,
  kPunct,
};

struct Token {
  Tok kind = Tok::kEof;
  std::string text;   // identifier / punctuation spelling / string contents
  int64_t value = 0;  // integer value for kIntLit
  int line = 0;
};

vbase::Result<std::vector<Token>> Lex(const std::string& source);

// --- Types ------------------------------------------------------------------

// The dialect's types: `int` (machine word, signed), `char` (unsigned byte),
// `void`, and pointers over them.  Arrays exist at declaration sites and
// decay to pointers in expressions.
struct Type {
  enum class Base : uint8_t { kVoid, kInt, kChar } base = Base::kInt;
  int ptr = 0;  // pointer depth

  bool IsPtr() const { return ptr > 0; }
  Type Pointee() const { return Type{base, ptr - 1}; }
  Type PtrTo() const { return Type{base, ptr + 1}; }
  bool operator==(const Type&) const = default;
};

// --- Expressions -------------------------------------------------------------

enum class ExprKind : uint8_t {
  kIntLit,
  kStrLit,    // name holds the literal contents
  kVar,
  kAssign,    // op: "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="
  kBinary,    // op: arithmetic/logical/comparison
  kUnary,     // op: "-", "!", "~"
  kCond,      // a ? b : c
  kCall,      // name + args
  kIndex,     // a[b]
  kDeref,     // *a
  kAddr,      // &a
  kIncDec,    // op: "++" / "--"; ival: 1 = prefix, 0 = postfix
  kSizeof,    // type in `type_arg`
};

struct Expr {
  ExprKind kind;
  int line = 0;
  int64_t ival = 0;
  std::string name;
  std::string op;
  Type type_arg;  // kSizeof
  std::unique_ptr<Expr> a, b, c;
  std::vector<std::unique_ptr<Expr>> args;  // kCall
};

// --- Statements ---------------------------------------------------------------

enum class StmtKind : uint8_t {
  kBlock,
  kIf,
  kWhile,
  kFor,
  kReturn,
  kExpr,
  kDecl,
  kBreak,
  kContinue,
};

struct Stmt {
  StmtKind kind;
  int line = 0;
  std::unique_ptr<Expr> e, e2, e3;          // condition / for-init is s1
  std::unique_ptr<Stmt> s1, s2, s3;         // then/else, for-init/post-stmt
  std::vector<std::unique_ptr<Stmt>> body;  // kBlock
  // kDecl:
  Type type;
  std::string name;
  int64_t array_count = -1;  // >= 0 for array declarations
  std::unique_ptr<Expr> init;
};

// --- Top level ------------------------------------------------------------------

struct Param {
  Type type;
  std::string name;
};

struct Function {
  std::string name;
  Type ret;
  std::vector<Param> params;
  std::unique_ptr<Stmt> body;
  Annotation anno = Annotation::kNone;
  uint64_t config_mask = 0;
  int line = 0;
};

struct Global {
  Type type;
  std::string name;
  int64_t array_count = -1;           // >= 0 for arrays
  std::vector<int64_t> init_values;   // scalar/array initializers
  std::string init_string;            // "..." initializer for char arrays
  bool has_string_init = false;
  int line = 0;
};

struct Program {
  std::vector<Global> globals;
  std::vector<Function> functions;

  const Function* FindFunction(const std::string& name) const {
    for (const Function& f : functions) {
      if (f.name == name) {
        return &f;
      }
    }
    return nullptr;
  }
};

vbase::Result<Program> Parse(const std::string& source);

// Generates VBC assembly for the subset of `program` reachable from `entry`
// (the call-graph cut), with a `virtine_main` alias for the CRT.
// `word_bytes` is the target environment word size.  `reference` selects
// the plain generator — no register allocation and no fast paths, every
// variable accessed through its address and every binary operand staged
// through the stack — which the differential tests compare the default
// (optimizing) output against.
vbase::Result<std::string> Generate(const Program& program, const std::string& entry,
                                    int word_bytes, bool reference = false);

}  // namespace vcc

#endif  // SRC_VCC_AST_H_
