// VBC code generation for the vcc dialect.
//
// A tree-walking backend.  Expression results land in r0.  Calling
// convention (shared with the vrt CRT): arguments pushed right-to-left as
// machine words, caller cleans, result in r0, fp-based frames.  Registers:
//
//   r0        result of every expression, function return value
//   r1-r3     scratch, clobbered by calls; hypercall arguments
//   r4-r13    callee-saved and allocatable: a function saves (after its
//             frame) and restores (at every return) exactly the ones it uses
//   r14 (fp)  frame pointer;  r15 (sp) stack pointer
//
// Register allocation is one pass per function (Plan): every word-sized
// scalar param or local whose address is never taken gets a loop-weighted
// use count, and the heaviest ones whose uses outweigh their save/restore
// (and, for params, the load out of the argument slot) live in r4-r13 for
// the whole function.  Everything else — char scalars, arrays,
// address-taken variables — keeps its fp-relative slot.
//
// On top of that the generator applies local fast paths: ALU, compare and
// branch forms read register variables, imm32 literals and fp slots
// directly instead of evaluating them into r0 first; comparisons in branch
// position fuse into cmp + jcc; an assignment to a register variable loads
// or computes straight into it.  Memory accesses use VBC's x86-style
// operand [base + index*scale + disp]: a register-variable index folds in
// scaled by the element size, a constant index offset folds into the
// displacement, and a register-variable base stays where it lives (any
// other index is added into r0; one held in a scratch register would not
// survive a compound assignment's right side, which runs between the
// address and the store).  Global scalars are addressed absolutely as
// [SYM+0].  A binary operand that must survive the evaluation of its
// sibling is held in a free r4-r13 register inside loops and on the guest
// stack elsewhere.  A hypercall's first operand is evaluated into r1 and a
// later literal or register-variable operand is loaded straight into its
// register, so only a computed later operand is staged on the stack.  A
// switch whose case set is dense dispatches through a
// jump table in the data section, indexed by one scaled load; any other
// switch, and every switch in the reference build, compares the scrutinee
// against each case in turn.
//
// Generate's `reference` flag turns all of this off — no allocation, no fast
// paths, every operand staged through the stack, only the plain [rB+d]
// operand — and exists so the differential oracle has a plain code
// generator to compare against.
#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/base/log.h"
#include "src/vcc/ast.h"

namespace vcc {
namespace {

constexpr int kFirstAllocReg = 4;
constexpr int kLastAllocReg = 13;
constexpr int kFpReg = 14;

bool IsBuiltin(const std::string& name) {
  return name == "__hc0" || name == "__hc1" || name == "__hc2" || name == "__hc3" ||
         name == "__rdtsc" || name == "__hlt";
}

bool FitsImm32(int64_t v) { return v >= INT32_MIN && v <= INT32_MAX; }

std::string RegName(int r) { return r == kFpReg ? "fp" : "r" + std::to_string(r); }

int Log2(int n) {
  int k = 0;
  while ((1 << k) < n) {
    ++k;
  }
  return k;
}

// Whether evaluating `e` can assign a variable.  Calls are not counted: a
// callee cannot reach a register variable, because those never have their
// address taken.
bool HasWrites(const Expr* e) {
  if (e == nullptr) {
    return false;
  }
  if (e->kind == ExprKind::kAssign || e->kind == ExprKind::kIncDec) {
    return true;
  }
  if (HasWrites(e->a.get()) || HasWrites(e->b.get()) || HasWrites(e->c.get())) {
    return true;
  }
  for (const auto& arg : e->args) {
    if (HasWrites(arg.get())) {
      return true;
    }
  }
  return false;
}

// Collects names of functions called within an expression tree.
void CollectCalls(const Expr* e, std::set<std::string>* out) {
  if (e == nullptr) {
    return;
  }
  if (e->kind == ExprKind::kCall && !IsBuiltin(e->name)) {
    out->insert(e->name);
  }
  CollectCalls(e->a.get(), out);
  CollectCalls(e->b.get(), out);
  CollectCalls(e->c.get(), out);
  for (const auto& arg : e->args) {
    CollectCalls(arg.get(), out);
  }
}

void CollectCalls(const Stmt* s, std::set<std::string>* out) {
  if (s == nullptr) {
    return;
  }
  CollectCalls(s->e.get(), out);
  CollectCalls(s->e2.get(), out);
  CollectCalls(s->e3.get(), out);
  CollectCalls(s->init.get(), out);
  CollectCalls(s->s1.get(), out);
  CollectCalls(s->s2.get(), out);
  CollectCalls(s->s3.get(), out);
  for (const auto& sub : s->body) {
    CollectCalls(sub.get(), out);
  }
}

// Collects identifier references (for global inclusion).
void CollectVars(const Expr* e, std::set<std::string>* out) {
  if (e == nullptr) {
    return;
  }
  if (e->kind == ExprKind::kVar) {
    out->insert(e->name);
  }
  CollectVars(e->a.get(), out);
  CollectVars(e->b.get(), out);
  CollectVars(e->c.get(), out);
  for (const auto& arg : e->args) {
    CollectVars(arg.get(), out);
  }
}

void CollectVars(const Stmt* s, std::set<std::string>* out) {
  if (s == nullptr) {
    return;
  }
  CollectVars(s->e.get(), out);
  CollectVars(s->e2.get(), out);
  CollectVars(s->e3.get(), out);
  CollectVars(s->init.get(), out);
  CollectVars(s->s1.get(), out);
  CollectVars(s->s2.get(), out);
  CollectVars(s->s3.get(), out);
  for (const auto& sub : s->body) {
    CollectVars(sub.get(), out);
  }
}

// An instruction operand: an imm32 or a register.
struct Opnd {
  bool is_imm = false;
  int64_t imm = 0;
  int reg = 0;

  static Opnd Reg(int r) { return Opnd{false, 0, r}; }
  static Opnd Imm(int64_t v) { return Opnd{true, v, 0}; }
  std::string Str() const { return is_imm ? std::to_string(imm) : RegName(reg); }
};

// A memory operand [base + index*scale + disp], with a global's symbol in
// place of the base register when `sym` is set.  GenAddr's are based on r0,
// fp, a register variable or a symbol and index only register variables, so
// r1-r3 stay free for the caller.
struct MemRef {
  MemRef() = default;
  MemRef(int b, int64_t d) : base(b), disp(d) {}

  int base = 0;
  int64_t disp = 0;
  int index = -1;  // a register variable, or -1
  int scale = 1;
  std::string sym;

  std::string Str() const {
    std::string s = "[" + (sym.empty() ? RegName(base) : sym);
    if (index >= 0) {
      s += "+" + RegName(index) + (scale > 1 ? "*" + std::to_string(scale) : "");
    }
    return s + (disp < 0 ? "-" : "+") + std::to_string(disp < 0 ? -disp : disp) + "]";
  }

  // An fp slot or an absolute global: an address that no code can change.
  bool IsConstant() const { return index < 0 && (!sym.empty() || base == kFpReg); }
};

class CodeGen {
 public:
  CodeGen(const Program& prog, int word_bytes, bool reference)
      : prog_(prog), w_(word_bytes), ref_(reference) {}

  vbase::Result<std::string> Run(const std::string& entry) {
    const Function* entry_fn = prog_.FindFunction(entry);
    if (entry_fn == nullptr) {
      return vbase::NotFound("entry function not found: " + entry);
    }
    // --- Call-graph cut: functions reachable from the entry -----------------
    std::vector<const Function*> reachable;
    std::set<std::string> visited;
    std::vector<const Function*> work{entry_fn};
    visited.insert(entry_fn->name);
    std::set<std::string> used_names;
    while (!work.empty()) {
      const Function* fn = work.back();
      work.pop_back();
      reachable.push_back(fn);
      std::set<std::string> calls;
      CollectCalls(fn->body.get(), &calls);
      CollectVars(fn->body.get(), &used_names);
      for (const std::string& callee : calls) {
        if (visited.count(callee) != 0) {
          continue;
        }
        const Function* f = prog_.FindFunction(callee);
        if (f == nullptr) {
          return vbase::NotFound("undefined function '" + callee + "' called from '" +
                                 fn->name + "'");
        }
        visited.insert(callee);
        work.push_back(f);
      }
    }

    // --- Code -----------------------------------------------------------------
    std::string code;
    for (const Function* fn : reachable) {
      vbase::Status st = GenFunction(*fn);
      if (!st.ok()) {
        return st;
      }
      code += fn_;
    }
    if (entry != "virtine_main") {
      code += "virtine_main:\n  jmp " + entry + "\n";
    }

    // --- Data: referenced globals + string literals ----------------------------
    std::string data;
    for (const Global& g : prog_.globals) {
      if (used_names.count(g.name) == 0) {
        continue;
      }
      EmitGlobal(g, &data);
    }
    return code + data + tables_ + strings_;
  }

 private:
  struct VarInfo {
    Type type;
    bool is_array = false;
    bool is_param = false;
    int64_t fp_offset = 0;  // locals: [fp - fp_offset]
    int param_index = 0;
    int reg = -1;           // allocated register, or -1 for a memory slot
  };

  // Operand classes that need no r0: literals, register variables, and
  // fp slots (one load into a scratch register).
  enum class Leaf { kNone, kConst, kReg, kMem };

  const char* WordDirective() const { return w_ == 8 ? ".quad" : w_ == 4 ? ".dword" : ".word"; }

  int SizeOf(const Type& t) const {
    if (t.IsPtr()) {
      return w_;
    }
    switch (t.base) {
      case Type::Base::kChar:
        return 1;
      case Type::Base::kInt:
        return w_;
      case Type::Base::kVoid:
        return 1;  // void* arithmetic treats elements as bytes
    }
    return w_;
  }

  int ElemSize(const Type& ptr) const { return SizeOf(ptr.Pointee()); }

  int64_t Align(int64_t n) const { return (n + w_ - 1) & ~static_cast<int64_t>(w_ - 1); }

  static bool IsWord(const Type& t) { return t.IsPtr() || t.base == Type::Base::kInt; }

  vbase::Status Err(int line, const std::string& msg) {
    return vbase::InvalidArgument("codegen error line " + std::to_string(line) + ": " + msg);
  }

  std::string NewLabel() { return ".L" + std::to_string(label_counter_++); }

  void Emit(const std::string& text) {
    // `mov a, b` right after `mov b, a` is a no-op (a staged value moved
    // straight back); nothing can jump between the two.
    if (text.compare(0, 4, "mov ") == 0 && last_mov_.size() > 4) {
      const size_t comma = text.find(", ");
      const size_t last_comma = last_mov_.find(", ");
      if (comma != std::string::npos && last_comma != std::string::npos &&
          text.compare(4, comma - 4, last_mov_, last_comma + 2) == 0 &&
          text.compare(comma + 2, std::string::npos, last_mov_, 4, last_comma - 4) == 0) {
        return;
      }
    }
    last_mov_ = text.compare(0, 4, "mov ") == 0 ? text : std::string();
    fn_ += "  ";
    fn_ += text;
    fn_ += '\n';
  }

  void Label(const std::string& label) {
    last_mov_.clear();
    fn_ += label;
    fn_ += ":\n";
  }

  // --- Scopes ------------------------------------------------------------------

  void PushScope() { scopes_.emplace_back(); }
  void PopScope() { scopes_.pop_back(); }

  const VarInfo* Lookup(const std::string& name) const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      auto found = it->find(name);
      if (found != it->end()) {
        return &found->second;
      }
    }
    return nullptr;
  }

  const Global* FindGlobal(const std::string& name) const {
    for (const Global& g : prog_.globals) {
      if (g.name == name) {
        return &g;
      }
    }
    return nullptr;
  }

  // The register a variable reference lives in, or -1.
  int VarReg(const Expr& e) const {
    if (e.kind != ExprKind::kVar) {
      return -1;
    }
    const VarInfo* v = Lookup(e.name);
    return v == nullptr ? -1 : v->reg;
  }

  // The fp-relative slot of a local or parameter kept in memory.
  MemRef SlotOf(const VarInfo& v) const {
    if (v.is_param) {
      return MemRef{kFpReg, 2 * w_ + v.param_index * w_};
    }
    return MemRef{kFpReg, -v.fp_offset};
  }

  const char* LoadOp(const Type& t) const {
    return (!t.IsPtr() && t.base == Type::Base::kChar) ? "ld8" : "ldw";
  }

  const char* StoreOp(const Type& t) const {
    return (!t.IsPtr() && t.base == Type::Base::kChar) ? "st8" : "stw";
  }

  Leaf LeafOf(const Expr& e, Type* t) const {
    if (ref_) {
      return Leaf::kNone;
    }
    if (e.kind == ExprKind::kIntLit) {
      *t = Type{Type::Base::kInt, 0};
      return Leaf::kConst;
    }
    if (e.kind != ExprKind::kVar) {
      return Leaf::kNone;
    }
    const VarInfo* v = Lookup(e.name);
    if (v == nullptr || v->is_array) {
      return Leaf::kNone;
    }
    *t = v->type;
    return v->reg >= 0 ? Leaf::kReg : Leaf::kMem;
  }

  // Emits a leaf (see LeafOf) as an operand, using `scratch` for literals
  // wider than imm32 and for loads.  r0 is untouched.
  Opnd EmitLeaf(const Expr& e, int scratch) {
    if (e.kind == ExprKind::kIntLit) {
      if (FitsImm32(e.ival)) {
        return Opnd::Imm(e.ival);
      }
      Emit("mov " + RegName(scratch) + ", " + std::to_string(e.ival));
      return Opnd::Reg(scratch);
    }
    if (const int r = VarReg(e); r >= 0) {
      return Opnd::Reg(r);
    }
    const VarInfo* v = Lookup(e.name);
    Emit(std::string(LoadOp(v->type)) + " " + RegName(scratch) + ", " + SlotOf(*v).Str());
    return Opnd::Reg(scratch);
  }

  // --- Temporaries ----------------------------------------------------------------

  // A free allocatable register to hold a value across the evaluation of a
  // sibling subexpression, or -1 to stage it on the stack instead.  Only
  // inside loops: the register costs a save/restore per call, which a
  // single push/pop pair would not repay.
  int AcquireTemp() {
    if (ref_ || loop_depth_ == 0) {
      return -1;
    }
    for (int r = kFirstAllocReg; r <= kLastAllocReg; ++r) {
      const uint32_t bit = 1u << r;
      if ((var_regs_ & bit) == 0 && (held_temps_ & bit) == 0) {
        held_temps_ |= bit;
        used_regs_ |= bit;
        return r;
      }
    }
    return -1;
  }

  void ReleaseTemp(int r) {
    if (r >= 0) {
      held_temps_ &= ~(1u << r);
    }
  }

  // Holds r0 while another subexpression is evaluated.  Returns the temp
  // register, or -1 when the value went to the stack.
  int StageR0() {
    const int t = AcquireTemp();
    Emit(t >= 0 ? "mov " + RegName(t) + ", r0" : "push r0");
    return t;
  }

  // Brings a StageR0 value back into `dst` and frees its temp.
  void Unstage(int t, int dst) {
    if (t >= 0) {
      Emit("mov " + RegName(dst) + ", " + RegName(t));
      ReleaseTemp(t);
    } else {
      Emit("pop " + RegName(dst));
    }
  }

  // --- Register allocation pre-pass -------------------------------------------------

  struct Candidate {
    const void* decl;
    bool is_param;
    bool eligible;
    int64_t weight;
  };

  // One walk over `fn` that fills decl_regs_ (declaration -> register).
  // Scoping mirrors GenStmt exactly, so each use resolves to the same
  // declaration the generator will see.  A use at loop depth d weighs 8^d.
  void Plan(const Function& fn) {
    cands_.clear();
    plan_scopes_.clear();
    plan_scopes_.emplace_back();
    for (const Param& p : fn.params) {
      plan_scopes_.back()[p.name] = cands_.size();
      cands_.push_back(Candidate{&p, true, IsWord(p.type), 0});
    }
    PlanStmt(fn.body.get(), 0);
    std::vector<size_t> order(cands_.size());
    for (size_t i = 0; i < order.size(); ++i) {
      order[i] = i;
    }
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return cands_[a].weight > cands_[b].weight;
    });
    int next = kFirstAllocReg;
    for (size_t i : order) {
      const Candidate& c = cands_[i];
      // A use saves about one 3-cycle memory access; the register costs a
      // push and a pop (8 cycles), plus a 4-cycle load for a param.
      if (!c.eligible || 3 * c.weight <= (c.is_param ? 12 : 8)) {
        continue;
      }
      if (next > kLastAllocReg) {
        break;
      }
      decl_regs_[c.decl] = next++;
    }
  }

  void PlanDeclare(const Stmt* s) {
    plan_scopes_.back()[s->name] = cands_.size();
    cands_.push_back(Candidate{s, false, s->array_count < 0 && IsWord(s->type), 0});
  }

  Candidate* PlanLookup(const std::string& name) {
    for (auto it = plan_scopes_.rbegin(); it != plan_scopes_.rend(); ++it) {
      auto found = it->find(name);
      if (found != it->end()) {
        return &cands_[found->second];
      }
    }
    return nullptr;
  }

  void PlanExpr(const Expr* e, int depth) {
    if (e == nullptr) {
      return;
    }
    if (e->kind == ExprKind::kVar) {
      if (Candidate* c = PlanLookup(e->name); c != nullptr) {
        c->weight += int64_t{1} << (3 * std::min(depth, 6));
      }
      return;
    }
    if (e->kind == ExprKind::kAddr && e->a->kind == ExprKind::kVar) {
      if (Candidate* c = PlanLookup(e->a->name); c != nullptr) {
        c->eligible = false;
      }
      return;
    }
    PlanExpr(e->a.get(), depth);
    PlanExpr(e->b.get(), depth);
    PlanExpr(e->c.get(), depth);
    for (const auto& arg : e->args) {
      PlanExpr(arg.get(), depth);
    }
  }

  void PlanStmt(const Stmt* s, int depth) {
    if (s == nullptr) {
      return;
    }
    switch (s->kind) {
      case StmtKind::kBlock:
        plan_scopes_.emplace_back();
        for (const auto& sub : s->body) {
          PlanStmt(sub.get(), depth);
        }
        plan_scopes_.pop_back();
        return;
      case StmtKind::kDecl:
        PlanDeclare(s);
        PlanExpr(s->init.get(), depth);
        return;
      case StmtKind::kIf:
        PlanExpr(s->e.get(), depth);
        PlanStmt(s->s1.get(), depth);
        PlanStmt(s->s2.get(), depth);
        return;
      case StmtKind::kWhile:
        PlanExpr(s->e.get(), depth + 1);
        PlanStmt(s->s1.get(), depth + 1);
        return;
      case StmtKind::kFor:
        plan_scopes_.emplace_back();
        PlanStmt(s->s1.get(), depth);
        PlanExpr(s->e.get(), depth + 1);
        PlanStmt(s->s2.get(), depth + 1);
        PlanExpr(s->e3.get(), depth + 1);
        plan_scopes_.pop_back();
        return;
      case StmtKind::kReturn:
      case StmtKind::kExpr:
        PlanExpr(s->e.get(), depth);
        return;
      case StmtKind::kSwitch:
        PlanExpr(s->e.get(), depth);
        PlanStmt(s->s1.get(), depth);
        return;
      case StmtKind::kBreak:
      case StmtKind::kContinue:
      case StmtKind::kCase:
      case StmtKind::kDefault:
        return;
    }
  }

  int DeclReg(const void* decl) const {
    auto it = decl_regs_.find(decl);
    return it == decl_regs_.end() ? -1 : it->second;
  }

  // --- Frame size pre-pass ------------------------------------------------------

  int64_t FrameBytes(const Stmt* s) const {
    if (s == nullptr) {
      return 0;
    }
    int64_t total = 0;
    if (s->kind == StmtKind::kDecl) {
      if (s->array_count >= 0) {
        total += Align(s->array_count * SizeOf(s->type));
      } else if (DeclReg(s) < 0) {
        total += w_;
      }
    }
    total += FrameBytes(s->s1.get()) + FrameBytes(s->s2.get()) + FrameBytes(s->s3.get());
    for (const auto& sub : s->body) {
      total += FrameBytes(sub.get());
    }
    return total;
  }

  // --- Functions ------------------------------------------------------------------

  static constexpr const char* kSaveMark = "  @save\n";
  static constexpr const char* kRestoreMark = "  @restore\n";

  vbase::Status GenFunction(const Function& fn) {
    fn_.clear();
    cur_offset_ = 0;
    used_regs_ = 0;
    var_regs_ = 0;
    held_temps_ = 0;
    loop_depth_ = 0;
    decl_regs_.clear();
    if (!ref_) {
      Plan(fn);
    }
    for (const auto& [decl, reg] : decl_regs_) {
      var_regs_ |= 1u << reg;
    }
    used_regs_ = var_regs_;
    scopes_.clear();
    PushScope();
    Label(fn.name);
    Emit("push fp");
    Emit("mov fp, sp");
    const int64_t frame = FrameBytes(fn.body.get());
    if (frame > 0) {
      Emit("sub sp, " + std::to_string(frame));
    }
    fn_ += kSaveMark;
    last_mov_.clear();
    for (size_t i = 0; i < fn.params.size(); ++i) {
      VarInfo v;
      v.type = fn.params[i].type;
      v.is_param = true;
      v.param_index = static_cast<int>(i);
      v.reg = DeclReg(&fn.params[i]);
      if (v.reg >= 0) {
        Emit("ldw " + RegName(v.reg) + ", " + SlotOf(v).Str());
      }
      scopes_.back()[fn.params[i].name] = v;
    }
    VB_RETURN_IF_ERROR(GenStmt(*fn.body));
    // Implicit return (value 0) if control can fall off the end.
    if (fn.body->body.empty() || fn.body->body.back()->kind != StmtKind::kReturn) {
      Emit("mov r0, 0");
      EmitReturn();
    }
    PopScope();
    FillSaveRestore();
    return vbase::Status::Ok();
  }

  void EmitReturn() {
    last_mov_.clear();
    fn_ += kRestoreMark;
    Emit("mov sp, fp");
    Emit("pop fp");
    Emit("ret");
  }

  // Replaces the save/restore marks with pushes/pops of the registers the
  // body used.  Every return sits at statement level, where sp is exactly
  // at the save area.
  void FillSaveRestore() {
    std::string save;
    std::string restore;
    for (int r = kFirstAllocReg; r <= kLastAllocReg; ++r) {
      if ((used_regs_ & (1u << r)) != 0) {
        save += "  push " + RegName(r) + "\n";
        restore.insert(0, "  pop " + RegName(r) + "\n");
      }
    }
    std::string out;
    out.reserve(fn_.size() + 8 * save.size());
    size_t pos = 0;
    while (true) {
      const size_t at = fn_.find("  @", pos);
      if (at == std::string::npos) {
        break;
      }
      out.append(fn_, pos, at - pos);
      const bool is_save = fn_.compare(at, std::strlen(kSaveMark), kSaveMark) == 0;
      out += is_save ? save : restore;
      pos = at + std::strlen(is_save ? kSaveMark : kRestoreMark);
    }
    out.append(fn_, pos, std::string::npos);
    fn_ = std::move(out);
  }

  // --- Statements --------------------------------------------------------------------

  vbase::Status GenStmt(const Stmt& s) {
    switch (s.kind) {
      case StmtKind::kBlock: {
        PushScope();
        for (const auto& sub : s.body) {
          VB_RETURN_IF_ERROR(GenStmt(*sub));
        }
        PopScope();
        return vbase::Status::Ok();
      }
      case StmtKind::kDecl: {
        VarInfo v;
        v.type = s.type;
        v.reg = DeclReg(&s);
        if (s.array_count >= 0) {
          v.is_array = true;
          cur_offset_ += Align(s.array_count * SizeOf(s.type));
        } else if (v.reg < 0) {
          cur_offset_ += w_;
        }
        v.fp_offset = cur_offset_;
        scopes_.back()[s.name] = v;
        if (s.init != nullptr) {
          if (v.is_array) {
            return Err(s.line, "local array initializers are not supported");
          }
          if (v.reg >= 0) {
            bool in_r0 = false;
            return GenInto(*s.init, v.reg, v.type, &in_r0);
          }
          Type vt;
          VB_RETURN_IF_ERROR(GenExpr(*s.init, &vt));
          Emit(std::string(StoreOp(s.type)) + " " + SlotOf(v).Str() + ", r0");
        }
        return vbase::Status::Ok();
      }
      case StmtKind::kIf: {
        const std::string lelse = NewLabel();
        const std::string lend = NewLabel();
        VB_RETURN_IF_ERROR(GenBranch(*s.e, lelse, /*jump_if_true=*/false));
        VB_RETURN_IF_ERROR(GenStmt(*s.s1));
        if (s.s2 != nullptr) {
          Emit("jmp " + lend);
        }
        Label(lelse);
        if (s.s2 != nullptr) {
          VB_RETURN_IF_ERROR(GenStmt(*s.s2));
          Label(lend);
        }
        return vbase::Status::Ok();
      }
      case StmtKind::kWhile: {
        const std::string lhead = NewLabel();
        const std::string lend = NewLabel();
        break_stack_.push_back(lend);
        continue_stack_.push_back(lhead);
        ++loop_depth_;
        Label(lhead);
        VB_RETURN_IF_ERROR(GenBranch(*s.e, lend, /*jump_if_true=*/false));
        VB_RETURN_IF_ERROR(GenStmt(*s.s1));
        Emit("jmp " + lhead);
        Label(lend);
        --loop_depth_;
        break_stack_.pop_back();
        continue_stack_.pop_back();
        return vbase::Status::Ok();
      }
      case StmtKind::kFor: {
        PushScope();
        if (s.s1 != nullptr) {
          VB_RETURN_IF_ERROR(GenStmt(*s.s1));
        }
        const std::string lhead = NewLabel();
        const std::string lpost = NewLabel();
        const std::string lend = NewLabel();
        break_stack_.push_back(lend);
        continue_stack_.push_back(lpost);
        ++loop_depth_;
        Label(lhead);
        if (s.e != nullptr) {
          VB_RETURN_IF_ERROR(GenBranch(*s.e, lend, /*jump_if_true=*/false));
        }
        VB_RETURN_IF_ERROR(GenStmt(*s.s2));
        Label(lpost);
        if (s.e3 != nullptr) {
          VB_RETURN_IF_ERROR(GenEffect(*s.e3));
        }
        Emit("jmp " + lhead);
        Label(lend);
        --loop_depth_;
        break_stack_.pop_back();
        continue_stack_.pop_back();
        PopScope();
        return vbase::Status::Ok();
      }
      case StmtKind::kReturn: {
        if (s.e != nullptr) {
          Type t;
          VB_RETURN_IF_ERROR(GenExpr(*s.e, &t));
        } else {
          Emit("mov r0, 0");
        }
        EmitReturn();
        return vbase::Status::Ok();
      }
      case StmtKind::kExpr:
        return GenEffect(*s.e);
      case StmtKind::kBreak:
        if (break_stack_.empty()) {
          return Err(s.line, "break outside loop or switch");
        }
        Emit("jmp " + break_stack_.back());
        return vbase::Status::Ok();
      case StmtKind::kContinue:
        if (continue_stack_.empty()) {
          return Err(s.line, "continue outside loop");
        }
        Emit("jmp " + continue_stack_.back());
        return vbase::Status::Ok();
      case StmtKind::kSwitch:
        return GenSwitch(s);
      case StmtKind::kCase:
      case StmtKind::kDefault:
        Label(case_labels_.at(&s));
        return vbase::Status::Ok();
    }
    return Err(s.line, "unhandled statement");
  }

  // A switch: the scrutinee is evaluated once into r0 and dispatched to its
  // case's label, then the body is generated in source order with each label
  // in place, so arms fall through.  `break` leaves the switch; `continue`
  // still belongs to the enclosing loop.
  vbase::Status GenSwitch(const Stmt& s) {
    const std::string lend = NewLabel();
    std::string ldefault = lend;
    std::vector<std::pair<int64_t, std::string>> cases;  // source order
    for (const auto& sub : s.s1->body) {
      if (sub->kind != StmtKind::kCase && sub->kind != StmtKind::kDefault) {
        continue;
      }
      const std::string label = NewLabel();
      case_labels_[sub.get()] = label;
      if (sub->kind == StmtKind::kCase) {
        cases.emplace_back(sub->case_value, label);
      } else {
        ldefault = label;
      }
    }
    Type t;
    VB_RETURN_IF_ERROR(GenExpr(*s.e, &t));
    if (ref_ || !EmitJumpTable(cases, ldefault)) {
      for (const auto& [value, label] : cases) {
        if (FitsImm32(value)) {
          Emit("cmp r0, " + std::to_string(value));
        } else {
          Emit("mov r2, " + std::to_string(value));
          Emit("cmp r0, r2");
        }
        Emit("je " + label);
      }
      Emit("jmp " + ldefault);
    }
    break_stack_.push_back(lend);
    VB_RETURN_IF_ERROR(GenStmt(*s.s1));
    break_stack_.pop_back();
    Label(lend);
    return vbase::Status::Ok();
  }

  // Dispatches r0 through a jump table when the case set is dense: at least
  // 4 cases whose values span at most 3 table slots per case.  The table
  // holds one word per value in [lo, hi], holes pointing at `ldefault`, and
  // lives in the data section; one load indexes it by r0 scaled to the word
  // size.  Returns false, emitting nothing, for a sparse set.
  bool EmitJumpTable(const std::vector<std::pair<int64_t, std::string>>& cases,
                     const std::string& ldefault) {
    if (cases.size() < 4) {
      return false;
    }
    int64_t lo = cases[0].first;
    int64_t hi = lo;
    for (const auto& c : cases) {
      lo = std::min(lo, c.first);
      hi = std::max(hi, c.first);
    }
    if (!FitsImm32(lo) || !FitsImm32(hi) || hi - lo >= 3 * static_cast<int64_t>(cases.size())) {
      return false;
    }
    const int64_t span = hi - lo + 1;
    std::vector<std::string> slots(static_cast<size_t>(span), ldefault);
    for (const auto& [value, label] : cases) {
      slots[static_cast<size_t>(value - lo)] = label;
    }
    const std::string ltable = NewLabel();
    if (lo != 0) {
      Emit("sub r0, " + std::to_string(lo));
    }
    Emit("cmp r0, " + std::to_string(span));
    Emit("jae " + ldefault);
    Emit("ldw r0, [" + ltable + "+r0*" + std::to_string(w_) + "]");
    Emit("jmp r0");
    tables_ += ".align " + std::to_string(w_) + "\n" + ltable + ":\n  " + WordDirective();
    for (size_t i = 0; i < slots.size(); ++i) {
      tables_ += (i == 0 ? " " : ", ") + slots[i];
    }
    tables_ += "\n";
    return true;
  }

  // An expression whose value is discarded.
  vbase::Status GenEffect(const Expr& e) {
    Type t;
    if (e.kind == ExprKind::kAssign) {
      return GenAssign(e, &t, /*want_value=*/false);
    }
    if (e.kind == ExprKind::kIncDec) {
      return GenIncDec(e, &t, /*want_value=*/false);
    }
    return GenExpr(e, &t);
  }

  // --- Arithmetic ---------------------------------------------------------------------

  // Multiplies scratch register `r` by an element size (a power of two).
  void ScaleReg(int r, int size) {
    if (size <= 1) {
      return;
    }
    if (ref_) {
      Emit("mov r3, " + std::to_string(size));
      Emit("mul " + RegName(r) + ", r3");
    } else {
      Emit("shl " + RegName(r) + ", " + std::to_string(Log2(size)));
    }
  }

  // `r` scaled by an element size, as an operand.  Scratch registers
  // (r0-r2) scale in place; register variables are copied to r3 first.
  Opnd Scaled(Opnd r, int size) {
    if (size <= 1) {
      return r;
    }
    if (r.is_imm && FitsImm32(r.imm * size)) {
      return Opnd::Imm(r.imm * size);
    }
    if (r.is_imm) {
      Emit("mov r3, " + std::to_string(r.imm * size));
      return Opnd::Reg(3);
    }
    if (r.reg > 3) {
      Emit("mov r3, " + RegName(r.reg));
      r = Opnd::Reg(3);
    }
    ScaleReg(r.reg, size);
    return r;
  }

  static const char* ImmAluOp(const std::string& op) {
    static const std::map<std::string, const char*> kOps = {
        {"+", "add"}, {"-", "sub"}, {"&", "and"},  {"|", "or"},
        {"^", "xor"}, {"<<", "shl"}, {">>", "sar"},
    };
    auto it = kOps.find(op);
    return it == kOps.end() ? nullptr : it->second;
  }

  static const char* RegAluOp(const std::string& op) {
    if (op == "*") return "imul";
    if (op == "/") return "idiv";
    if (op == "%") return "imod";
    return nullptr;
  }

  // {signed, unsigned} condition of a comparison operator.
  static const std::pair<const char*, const char*>* CmpConds(const std::string& op) {
    static const std::map<std::string, std::pair<const char*, const char*>> kCmp = {
        {"==", {"eq", "eq"}}, {"!=", {"ne", "ne"}}, {"<", {"lt", "b"}},
        {"<=", {"le", "be"}}, {">", {"gt", "a"}},   {">=", {"ge", "ae"}},
    };
    auto it = kCmp.find(op);
    return it == kCmp.end() ? nullptr : &it->second;
  }

  // Whether EmitArith handles `op` (every non-short-circuit binary operator).
  static bool IsArith(const std::string& op) {
    return ImmAluOp(op) != nullptr || RegAluOp(op) != nullptr || CmpConds(op) != nullptr;
  }

  // L = L op R for a non-short-circuit binary operator, with C pointer
  // scaling.  L is a register the result may overwrite; R (imm32 or a
  // register) is left intact unless it is a scratch register.  r3 is the
  // only other register touched.
  vbase::Status EmitArith(const std::string& op, int line, const Type& lt, const Type& rt,
                          int l, Opnd r, Type* out) {
    const std::string L = RegName(l);
    if ((op == "+" || op == "-") && lt.IsPtr() && !rt.IsPtr()) {
      r = Scaled(r, ElemSize(lt));
      Emit((op == "+" ? "add " : "sub ") + L + ", " + r.Str());
      *out = lt;
      return vbase::Status::Ok();
    }
    if (op == "+" && rt.IsPtr() && !lt.IsPtr()) {
      ScaleReg(l, ElemSize(rt));
      Emit("add " + L + ", " + r.Str());
      *out = rt;
      return vbase::Status::Ok();
    }
    *out = Type{Type::Base::kInt, 0};
    if (op == "-" && lt.IsPtr() && rt.IsPtr()) {
      Emit("sub " + L + ", " + r.Str());
      const int size = ElemSize(lt);
      if (size > 1 && ref_) {
        Emit("mov r3, " + std::to_string(size));
        Emit("udiv " + L + ", r3");
      } else if (size > 1) {
        Emit("shr " + L + ", " + std::to_string(Log2(size)));
      }
      return vbase::Status::Ok();
    }
    if (const char* m = ImmAluOp(op); m != nullptr) {
      Emit(std::string(m) + " " + L + ", " + r.Str());
      return vbase::Status::Ok();
    }
    if (const char* m = RegAluOp(op); m != nullptr) {
      if (r.is_imm) {
        Emit("mov r3, " + std::to_string(r.imm));
        r = Opnd::Reg(3);
      }
      Emit(std::string(m) + " " + L + ", " + r.Str());
      return vbase::Status::Ok();
    }
    if (const auto* cc = CmpConds(op); cc != nullptr) {
      Emit("cmp " + L + ", " + r.Str());
      Emit("cset " + L + ", " + (lt.IsPtr() || rt.IsPtr() ? cc->second : cc->first));
      return vbase::Status::Ok();
    }
    return Err(line, "bad binary operator " + op);
  }

  // Both operands of a binary operator, evaluated: `l` holds the left value
  // and `r` the right one.  `temp` is a temp register to release once the
  // operands are consumed (or -1).
  struct Operands {
    int l = 0;
    Opnd r;
    Type lt;
    Type rt;
    int temp = -1;
  };

  // Evaluates both operands of `e`, left then right.  With `left_in_place`
  // a register-variable left operand is used where it lives (the caller
  // only reads it); otherwise `l` is a scratch register.
  vbase::Status GenOperands(const Expr& e, bool left_in_place, Operands* o) {
    const int lv = left_in_place ? VarReg(*e.a) : -1;
    if (lv >= 0 && !HasWrites(e.b.get())) {
      o->l = lv;
      o->lt = Lookup(e.a->name)->type;
      if (LeafOf(*e.b, &o->rt) != Leaf::kNone) {
        o->r = EmitLeaf(*e.b, 2);
        return vbase::Status::Ok();
      }
      VB_RETURN_IF_ERROR(GenExpr(*e.b, &o->rt));
      o->r = Opnd::Reg(0);
      return vbase::Status::Ok();
    }
    VB_RETURN_IF_ERROR(GenExpr(*e.a, &o->lt));
    o->l = 0;
    if (LeafOf(*e.b, &o->rt) != Leaf::kNone) {
      o->r = EmitLeaf(*e.b, 2);
      return vbase::Status::Ok();
    }
    const int t = StageR0();
    VB_RETURN_IF_ERROR(GenExpr(*e.b, &o->rt));
    if (t >= 0) {
      o->l = t;
      o->r = Opnd::Reg(0);
      o->temp = t;
    } else {
      Emit("mov r2, r0");
      Emit("pop r0");
      o->r = Opnd::Reg(2);
    }
    return vbase::Status::Ok();
  }

  // --- Addresses ------------------------------------------------------------------

  // Splits a constant element offset off an index: `i + 3` -> (i, 3),
  // `i - 1` -> (i, -1), `5` -> (nullptr, 5).  Only an int variable or
  // nothing is left as the core, so the scaling of the remainder is known.
  // Offsets stay below 2^24 elements, so the scaled displacement always
  // fits its imm32 field.
  const Expr* SplitIndex(const Expr& index, int64_t* c) const {
    constexpr int64_t kMax = int64_t{1} << 24;
    auto small = [](int64_t v) { return v > -kMax && v < kMax; };
    *c = 0;
    const Expr* core = &index;
    int64_t acc = 0;
    while (core->kind == ExprKind::kBinary && (core->op == "+" || core->op == "-") &&
           core->b->kind == ExprKind::kIntLit && small(core->b->ival) && small(acc)) {
      acc += core->op == "+" ? core->b->ival : -core->b->ival;
      core = core->a.get();
    }
    if (core->kind == ExprKind::kIntLit && small(core->ival) && small(acc)) {
      *c = acc + core->ival;
      return nullptr;
    }
    Type t;
    if (core->kind == ExprKind::kVar && LeafOf(*core, &t) != Leaf::kNone && !t.IsPtr()) {
      *c = acc;
      return core;
    }
    return &index;
  }

  // Computes the address of lvalue `e` as a memory operand; *out receives
  // the object type.  May clobber r0-r3.
  vbase::Status GenAddr(const Expr& e, Type* out, MemRef* m) {
    switch (e.kind) {
      case ExprKind::kVar: {
        if (const VarInfo* v = Lookup(e.name); v != nullptr) {
          if (v->reg >= 0) {
            return Err(e.line, "internal: address of register variable '" + e.name + "'");
          }
          *out = v->type;
          *m = SlotOf(*v);
          if (ref_) {
            Emit("lea r0, " + m->Str());
            *m = MemRef{0, 0};
          }
          return vbase::Status::Ok();
        }
        if (const Global* g = FindGlobal(e.name); g != nullptr) {
          *out = g->type;
          *m = MemRef{0, 0};
          if (ref_) {
            Emit("mov r0, " + g->name);
          } else {
            m->sym = g->name;
          }
          return vbase::Status::Ok();
        }
        return Err(e.line, "undefined variable '" + e.name + "'");
      }
      case ExprKind::kDeref: {
        Type pt;
        if (const int r = ref_ ? -1 : VarReg(*e.a); r >= 0) {
          pt = Lookup(e.a->name)->type;
          *m = MemRef{r, 0};
        } else {
          VB_RETURN_IF_ERROR(GenExpr(*e.a, &pt));
          *m = MemRef{0, 0};
        }
        if (!pt.IsPtr()) {
          return Err(e.line, "dereference of non-pointer");
        }
        *out = pt.Pointee();
        return vbase::Status::Ok();
      }
      case ExprKind::kIndex:
        return ref_ ? GenIndexAddrPlain(e, out, m) : GenIndexAddr(e, out, m);
      default:
        return Err(e.line, "expression is not an lvalue");
    }
  }

  vbase::Status GenIndexAddrPlain(const Expr& e, Type* out, MemRef* m) {
    Type bt;
    VB_RETURN_IF_ERROR(GenExpr(*e.a, &bt));  // base pointer value (arrays decay)
    if (!bt.IsPtr()) {
      return Err(e.line, "indexing a non-pointer");
    }
    Emit("push r0");
    Type it;
    VB_RETURN_IF_ERROR(GenExpr(*e.b, &it));
    ScaleReg(0, ElemSize(bt));
    Emit("mov r2, r0");
    Emit("pop r0");
    Emit("add r0, r2");
    *out = bt.Pointee();
    *m = MemRef{0, 0};
    return vbase::Status::Ok();
  }

  // A register-variable or constant index folds into the operand as
  // [base + rI*size + c*size], with the base left where it lives when it is
  // a register variable too.  Any other index is added into r0: one loaded
  // into a scratch register would not survive to the access, since
  // compound assignment evaluates its right side in between.
  vbase::Status GenIndexAddr(const Expr& e, Type* out, MemRef* m) {
    int64_t c = 0;
    const Expr* core = SplitIndex(*e.b, &c);
    const int index = core == nullptr ? -1 : VarReg(*core);
    Type bt;
    *m = MemRef{0, 0};
    if (const int r = VarReg(*e.a); r >= 0 && (core == nullptr || index >= 0)) {
      bt = Lookup(e.a->name)->type;
      m->base = r;
    } else {
      VB_RETURN_IF_ERROR(GenExpr(*e.a, &bt));
    }
    if (!bt.IsPtr()) {
      return Err(e.line, "indexing a non-pointer");
    }
    const int size = ElemSize(bt);
    m->disp = c * size;
    Type it;
    if (index >= 0) {
      m->index = index;
      m->scale = size;
    } else if (core != nullptr && LeafOf(*core, &it) != Leaf::kNone) {
      const Opnd idx = Scaled(EmitLeaf(*core, 2), size);
      Emit("add r0, " + idx.Str());
    } else if (core != nullptr) {
      const int t = StageR0();
      VB_RETURN_IF_ERROR(GenExpr(*core, &it));
      ScaleReg(0, size);
      if (t >= 0) {
        Emit("add r0, " + RegName(t));
        ReleaseTemp(t);
      } else {
        Emit("pop r2");
        Emit("add r0, r2");
      }
    }
    *out = bt.Pointee();
    return vbase::Status::Ok();
  }

  // r0 = the address a memory operand names (a bare symbol by mov, as array
  // decay and &global always did).
  void MaterializeAddr(const MemRef& m) {
    if (!m.sym.empty() && m.index < 0 && m.disp == 0) {
      Emit("mov r0, " + m.sym);
    } else if (!m.sym.empty() || m.index >= 0 || m.base != 0 || m.disp != 0) {
      Emit("lea r0, " + m.Str());
    }
  }

  // Whether a variable reference denotes an array (which decays to a pointer
  // rvalue rather than being loaded).
  bool VarIsArray(const std::string& name) const {
    if (const VarInfo* v = Lookup(name); v != nullptr) {
      return v->is_array;
    }
    const Global* g = FindGlobal(name);
    return g != nullptr && g->array_count >= 0;
  }

  // Whether `e` is an rvalue produced by one load from memory.
  bool IsLoad(const Expr& e) const {
    return e.kind == ExprKind::kIndex || e.kind == ExprKind::kDeref ||
           (e.kind == ExprKind::kVar && VarReg(e) < 0 && !VarIsArray(e.name));
  }

  // --- Expressions: value in r0, type via *out ------------------------------------------

  vbase::Status GenExpr(const Expr& e, Type* out) {
    switch (e.kind) {
      case ExprKind::kIntLit:
        Emit("mov r0, " + std::to_string(e.ival));
        *out = Type{Type::Base::kInt, 0};
        return vbase::Status::Ok();

      case ExprKind::kStrLit: {
        const std::string label = InternString(e.name);
        Emit("mov r0, " + label);
        *out = Type{Type::Base::kChar, 1};
        return vbase::Status::Ok();
      }

      case ExprKind::kSizeof:
        Emit("mov r0, " + std::to_string(SizeOf(e.type_arg)));
        *out = Type{Type::Base::kInt, 0};
        return vbase::Status::Ok();

      case ExprKind::kVar: {
        if (const int r = VarReg(e); r >= 0) {
          Emit("mov r0, " + RegName(r));
          *out = Lookup(e.name)->type;
          return vbase::Status::Ok();
        }
        Type ot;
        MemRef m;
        VB_RETURN_IF_ERROR(GenAddr(e, &ot, &m));
        if (VarIsArray(e.name)) {
          MaterializeAddr(m);
          *out = ot.PtrTo();  // decay: the address is the value
          return vbase::Status::Ok();
        }
        Emit(std::string(LoadOp(ot)) + " r0, " + m.Str());
        *out = ot;
        return vbase::Status::Ok();
      }

      case ExprKind::kIndex:
      case ExprKind::kDeref: {
        Type ot;
        MemRef m;
        VB_RETURN_IF_ERROR(GenAddr(e, &ot, &m));
        Emit(std::string(LoadOp(ot)) + " r0, " + m.Str());
        *out = ot;
        return vbase::Status::Ok();
      }

      case ExprKind::kAddr: {
        Type ot;
        MemRef m;
        VB_RETURN_IF_ERROR(GenAddr(*e.a, &ot, &m));
        MaterializeAddr(m);
        *out = ot.PtrTo();
        return vbase::Status::Ok();
      }

      case ExprKind::kUnary: {
        Type t;
        VB_RETURN_IF_ERROR(GenExpr(*e.a, &t));
        if (e.op == "-") {
          Emit("neg r0");
        } else if (e.op == "~") {
          Emit("not r0");
        } else if (e.op == "!") {
          Emit("cmp r0, 0");
          Emit("cset r0, eq");
        } else {
          return Err(e.line, "bad unary operator " + e.op);
        }
        *out = Type{Type::Base::kInt, 0};
        return vbase::Status::Ok();
      }

      case ExprKind::kBinary:
        return GenBinary(e, out);

      case ExprKind::kCond: {
        const std::string lelse = NewLabel();
        const std::string lend = NewLabel();
        VB_RETURN_IF_ERROR(GenBranch(*e.a, lelse, /*jump_if_true=*/false));
        Type then_t;
        VB_RETURN_IF_ERROR(GenExpr(*e.b, &then_t));
        Emit("jmp " + lend);
        Label(lelse);
        Type else_t;
        VB_RETURN_IF_ERROR(GenExpr(*e.c, &else_t));
        Label(lend);
        *out = then_t;
        return vbase::Status::Ok();
      }

      case ExprKind::kAssign:
        return GenAssign(e, out, /*want_value=*/true);

      case ExprKind::kIncDec:
        return GenIncDec(e, out, /*want_value=*/true);

      case ExprKind::kCall:
        return GenCall(e, out);
    }
    return Err(e.line, "unhandled expression");
  }

  vbase::Status GenBinary(const Expr& e, Type* out) {
    // Short-circuit forms first.
    if (e.op == "&&" || e.op == "||") {
      const bool is_and = e.op == "&&";
      const std::string lshort = NewLabel();
      const std::string lend = NewLabel();
      VB_RETURN_IF_ERROR(GenBranch(*e.a, lshort, /*jump_if_true=*/!is_and));
      VB_RETURN_IF_ERROR(GenBranch(*e.b, lshort, /*jump_if_true=*/!is_and));
      Emit(is_and ? "mov r0, 1" : "mov r0, 0");
      Emit("jmp " + lend);
      Label(lshort);
      Emit(is_and ? "mov r0, 0" : "mov r0, 1");
      Label(lend);
      *out = Type{Type::Base::kInt, 0};
      return vbase::Status::Ok();
    }
    if (!IsArith(e.op)) {
      return Err(e.line, "bad binary operator " + e.op);
    }
    Operands o;
    VB_RETURN_IF_ERROR(GenOperands(e, /*left_in_place=*/false, &o));
    VB_RETURN_IF_ERROR(EmitArith(e.op, e.line, o.lt, o.rt, o.l, o.r, out));
    if (o.l != 0) {
      Emit("mov r0, " + RegName(o.l));
    }
    ReleaseTemp(o.temp);
    return vbase::Status::Ok();
  }

  // Emits a conditional jump to `target`, taken when `e` is true
  // (jump_if_true) or false.  Comparison operators fuse into a cmp + jcc
  // pair instead of materializing a boolean through cset; &&, || and !
  // decompose structurally.  Falls back to value + "cmp r0, 0".
  vbase::Status GenBranch(const Expr& e, const std::string& target, bool jump_if_true) {
    if (ref_) {
      Type t;
      VB_RETURN_IF_ERROR(GenExpr(e, &t));
      Emit("cmp r0, 0");
      Emit((jump_if_true ? "jne " : "je ") + target);
      return vbase::Status::Ok();
    }
    if (e.kind == ExprKind::kIntLit) {
      // Truth at the target word width: 1 << 32 is false in prot32.
      const uint64_t mask = w_ == 8 ? ~uint64_t{0} : (uint64_t{1} << (8 * w_)) - 1;
      if (((static_cast<uint64_t>(e.ival) & mask) != 0) == jump_if_true) {
        Emit("jmp " + target);
      }
      return vbase::Status::Ok();
    }
    if (e.kind == ExprKind::kUnary && e.op == "!") {
      return GenBranch(*e.a, target, !jump_if_true);
    }
    if (e.kind == ExprKind::kBinary && e.op == "&") {
      // A bit test: the AND only sets flags.
      Operands o;
      VB_RETURN_IF_ERROR(GenOperands(e, /*left_in_place=*/true, &o));
      if (o.r.is_imm) {
        Emit("mov r2, " + std::to_string(o.r.imm));
        o.r = Opnd::Reg(2);
      }
      Emit("test " + RegName(o.l) + ", " + o.r.Str());
      ReleaseTemp(o.temp);
      Emit((jump_if_true ? "jne " : "je ") + target);
      return vbase::Status::Ok();
    }
    if (e.kind == ExprKind::kBinary && (e.op == "&&" || e.op == "||")) {
      const bool is_and = e.op == "&&";
      if (is_and != jump_if_true) {
        // jump-if-false of && / jump-if-true of ||: either clause decides.
        VB_RETURN_IF_ERROR(GenBranch(*e.a, target, jump_if_true));
        return GenBranch(*e.b, target, jump_if_true);
      }
      // jump-if-true of && / jump-if-false of ||: first clause can only veto.
      const std::string lskip = NewLabel();
      VB_RETURN_IF_ERROR(GenBranch(*e.a, lskip, !jump_if_true));
      VB_RETURN_IF_ERROR(GenBranch(*e.b, target, jump_if_true));
      Label(lskip);
      return vbase::Status::Ok();
    }
    if (e.kind == ExprKind::kBinary) {
      // {signed, unsigned, negated-signed, negated-unsigned}
      static const std::map<std::string, std::array<const char*, 4>> kJcc = {
          {"==", {{"je", "je", "jne", "jne"}}},
          {"!=", {{"jne", "jne", "je", "je"}}},
          {"<", {{"jl", "jb", "jge", "jae"}}},
          {"<=", {{"jle", "jbe", "jg", "ja"}}},
          {">", {{"jg", "ja", "jle", "jbe"}}},
          {">=", {{"jge", "jae", "jl", "jb"}}},
      };
      if (auto it = kJcc.find(e.op); it != kJcc.end()) {
        Operands o;
        VB_RETURN_IF_ERROR(GenOperands(e, /*left_in_place=*/true, &o));
        Emit("cmp " + RegName(o.l) + ", " + o.r.Str());
        ReleaseTemp(o.temp);
        const bool uns = o.lt.IsPtr() || o.rt.IsPtr();
        const int idx = (jump_if_true ? 0 : 2) + (uns ? 1 : 0);
        Emit(std::string(it->second[static_cast<size_t>(idx)]) + " " + target);
        return vbase::Status::Ok();
      }
    }
    if (const int r = VarReg(e); r >= 0) {
      Emit("cmp " + RegName(r) + ", 0");
    } else {
      Type t;
      VB_RETURN_IF_ERROR(GenExpr(e, &t));
      Emit("cmp r0, 0");
    }
    Emit((jump_if_true ? "jne " : "je ") + target);
    return vbase::Status::Ok();
  }

  // Evaluates `e` into register variable `dst` (of type `dt`).  Sets *in_r0
  // when r0 holds the value too.
  vbase::Status GenInto(const Expr& e, int dst, const Type& dt, bool* in_r0) {
    const std::string D = RegName(dst);
    *in_r0 = false;
    if (e.kind == ExprKind::kIntLit) {
      Emit("mov " + D + ", " + std::to_string(e.ival));
      return vbase::Status::Ok();
    }
    if (const int r = VarReg(e); r >= 0) {
      if (r != dst) {
        Emit("mov " + D + ", " + RegName(r));
      }
      return vbase::Status::Ok();
    }
    if (IsLoad(e)) {
      Type ot;
      MemRef m;
      VB_RETURN_IF_ERROR(GenAddr(e, &ot, &m));
      Emit(std::string(LoadOp(ot)) + " " + D + ", " + m.Str());
      return vbase::Status::Ok();
    }
    // x = x op y: operate on x in place, unless y assigns variables (and so
    // must see the old x first).
    Type rt;
    if (e.kind == ExprKind::kBinary && VarReg(*e.a) == dst && IsArith(e.op)) {
      Type t;
      if (LeafOf(*e.b, &rt) != Leaf::kNone) {
        return EmitArith(e.op, e.line, dt, rt, dst, EmitLeaf(*e.b, 2), &t);
      }
      if (!HasWrites(e.b.get())) {
        VB_RETURN_IF_ERROR(GenExpr(*e.b, &rt));
        return EmitArith(e.op, e.line, dt, rt, dst, Opnd::Reg(0), &t);
      }
    }
    Type t;
    VB_RETURN_IF_ERROR(GenExpr(e, &t));
    Emit("mov " + D + ", r0");
    *in_r0 = true;
    return vbase::Status::Ok();
  }

  vbase::Status GenAssign(const Expr& e, Type* out, bool want_value) {
    if (e.op == "=") {
      return GenPlainAssign(e, out, want_value);
    }
    // Compound assignment: op= .
    const std::string base_op = e.op.substr(0, e.op.size() - 1);
    if (!IsArith(base_op) || CmpConds(base_op) != nullptr) {
      return Err(e.line, "bad compound assignment " + e.op);
    }
    Type rt;
    Type t;
    if (const int x = VarReg(*e.a); x >= 0) {
      *out = Lookup(e.a->name)->type;
      if (HasWrites(e.b.get())) {
        // The right side assigns variables: read x before evaluating it.
        Emit("mov r0, " + RegName(x));
        const int s = StageR0();
        VB_RETURN_IF_ERROR(GenExpr(*e.b, &rt));
        Emit("mov r2, r0");
        Unstage(s, 0);
        VB_RETURN_IF_ERROR(EmitArith(base_op, e.line, *out, rt, 0, Opnd::Reg(2), &t));
        Emit("mov " + RegName(x) + ", r0");
        return vbase::Status::Ok();
      }
      Opnd r = Opnd::Reg(0);
      if (LeafOf(*e.b, &rt) != Leaf::kNone) {
        r = EmitLeaf(*e.b, 2);
      } else {
        VB_RETURN_IF_ERROR(GenExpr(*e.b, &rt));
      }
      VB_RETURN_IF_ERROR(EmitArith(base_op, e.line, *out, rt, x, r, &t));
      if (want_value) {
        Emit("mov r0, " + RegName(x));
      }
      return vbase::Status::Ok();
    }
    // Memory: address, old value, right side, store.
    MemRef m;
    VB_RETURN_IF_ERROR(GenAddr(*e.a, out, &m));
    if (LeafOf(*e.b, &rt) != Leaf::kNone) {
      Emit(std::string(LoadOp(*out)) + " r1, " + m.Str());
      VB_RETURN_IF_ERROR(EmitArith(base_op, e.line, *out, rt, 1, EmitLeaf(*e.b, 2), &t));
      Emit(std::string(StoreOp(*out)) + " " + m.Str() + ", r1");
      if (want_value) {
        Emit("mov r0, r1");
      }
      return vbase::Status::Ok();
    }
    // A constant address needs no register; any other is held meanwhile.
    const bool slot = m.IsConstant();
    int addr = -1;
    if (!slot) {
      MaterializeAddr(m);
      addr = StageR0();
      m = MemRef{0, 0};
    }
    Emit(std::string(LoadOp(*out)) + " r0, " + m.Str());
    const int old = StageR0();
    VB_RETURN_IF_ERROR(GenExpr(*e.b, &rt));
    Emit("mov r2, r0");
    Unstage(old, 0);
    VB_RETURN_IF_ERROR(EmitArith(base_op, e.line, *out, rt, 0, Opnd::Reg(2), &t));
    if (!slot) {
      Unstage(addr, 1);
      m = MemRef{1, 0};
    }
    Emit(std::string(StoreOp(*out)) + " " + m.Str() + ", r0");
    return vbase::Status::Ok();
  }

  vbase::Status GenPlainAssign(const Expr& e, Type* out, bool want_value) {
    if (const int x = VarReg(*e.a); x >= 0) {
      *out = Lookup(e.a->name)->type;
      bool in_r0 = false;
      VB_RETURN_IF_ERROR(GenInto(*e.b, x, *out, &in_r0));
      if (want_value && !in_r0) {
        Emit("mov r0, " + RegName(x));
      }
      return vbase::Status::Ok();
    }
    Type rt;
    if (!ref_ && e.a->kind == ExprKind::kVar && !VarIsArray(e.a->name)) {
      // An fp slot or a global scalar: the address is a constant, so the
      // value needs no staging.
      VB_RETURN_IF_ERROR(GenExpr(*e.b, &rt));
      MemRef m;
      if (const VarInfo* v = Lookup(e.a->name); v != nullptr) {
        *out = v->type;
        m = SlotOf(*v);
      } else if (const Global* g = FindGlobal(e.a->name); g != nullptr) {
        *out = g->type;
        m.sym = g->name;
      } else {
        return Err(e.line, "undefined variable '" + e.a->name + "'");
      }
      Emit(std::string(StoreOp(*out)) + " " + m.Str() + ", r0");
      return vbase::Status::Ok();
    }
    // A register or constant right side is read after the address when the
    // address computation cannot change it.
    const Leaf leaf = LeafOf(*e.b, &rt);
    if ((leaf == Leaf::kConst || leaf == Leaf::kReg) && !HasWrites(e.a.get())) {
      MemRef m;
      VB_RETURN_IF_ERROR(GenAddr(*e.a, out, &m));
      Opnd r = EmitLeaf(*e.b, 1);
      if (r.is_imm) {
        Emit("mov r1, " + std::to_string(r.imm));
        r = Opnd::Reg(1);
      }
      Emit(std::string(StoreOp(*out)) + " " + m.Str() + ", " + r.Str());
      if (want_value) {
        Emit("mov r0, " + r.Str());
      }
      return vbase::Status::Ok();
    }
    VB_RETURN_IF_ERROR(GenExpr(*e.b, &rt));
    const int s = StageR0();
    MemRef m;
    VB_RETURN_IF_ERROR(GenAddr(*e.a, out, &m));
    int v = s;
    if (s < 0) {
      Emit("pop r1");
      v = 1;
    }
    Emit(std::string(StoreOp(*out)) + " " + m.Str() + ", " + RegName(v));
    if (want_value) {
      Emit("mov r0, " + RegName(v));
    }
    ReleaseTemp(s);
    return vbase::Status::Ok();
  }

  vbase::Status GenIncDec(const Expr& e, Type* out, bool want_value) {
    const bool prefix = e.ival == 1;
    const std::string op = e.op == "++" ? "add " : "sub ";
    const bool keep_old = want_value && !prefix;
    if (const int x = VarReg(*e.a); x >= 0) {
      *out = Lookup(e.a->name)->type;
      const std::string X = RegName(x);
      if (keep_old) {
        Emit("mov r0, " + X);
      }
      Emit(op + X + ", " + std::to_string(out->IsPtr() ? ElemSize(*out) : 1));
      if (want_value && prefix) {
        Emit("mov r0, " + X);
      }
      return vbase::Status::Ok();
    }
    MemRef m;
    VB_RETURN_IF_ERROR(GenAddr(*e.a, out, &m));
    Emit(std::string(LoadOp(*out)) + " r1, " + m.Str());
    if (keep_old) {
      Emit("mov r2, r1");
    }
    Emit(op + "r1, " + std::to_string(out->IsPtr() ? ElemSize(*out) : 1));
    Emit(std::string(StoreOp(*out)) + " " + m.Str() + ", r1");
    if (want_value) {
      Emit(keep_old ? "mov r0, r2" : "mov r0, r1");
    }
    return vbase::Status::Ok();
  }

  // The reference build's hypercall operands: evaluated right-to-left onto
  // the stack, then popped into r1..rN.
  vbase::Status GenHypercallOperandsStaged(const Expr& e, int n) {
    for (int i = n; i >= 1; --i) {
      Type t;
      VB_RETURN_IF_ERROR(GenExpr(*e.args[static_cast<size_t>(i)], &t));
      Emit("push r0");
    }
    for (int i = 1; i <= n; ++i) {
      Emit("pop r" + std::to_string(i));
    }
    return vbase::Status::Ok();
  }

  // Loads a leaf (see LeafOf) straight into register `r`.
  void LeafInto(const Expr& e, int r) {
    const Opnd o = EmitLeaf(e, r);
    if (o.is_imm || o.reg != r) {
      Emit("mov " + RegName(r) + ", " + o.Str());
    }
  }

  // The optimizing build's hypercall operands, still evaluated right-to-left.
  // A later operand (2..N) that is a literal, or a register variable that no
  // operand evaluated after it assigns, is loaded straight into its register
  // once the rest are done; any other later operand is staged on the stack.
  // The first operand, evaluated last, goes straight into r1.  So a
  // hypercall whose later operands are leaves writes nothing to the stack.
  vbase::Status GenHypercallOperands(const Expr& e, int n) {
    auto arg = [&e](int i) -> const Expr& { return *e.args[static_cast<size_t>(i)]; };
    std::array<bool, 4> direct{};
    bool assigned_after = false;  // whether an operand left of i assigns a variable
    for (int i = 2; i <= n; ++i) {
      assigned_after = assigned_after || HasWrites(&arg(i - 1));
      Type t;
      const Leaf leaf = LeafOf(arg(i), &t);
      direct[i] = leaf == Leaf::kConst || (leaf == Leaf::kReg && !assigned_after);
    }
    Type t;
    for (int i = n; i >= 2; --i) {
      if (!direct[i]) {
        VB_RETURN_IF_ERROR(GenExpr(arg(i), &t));
        Emit("push r0");
      }
    }
    if (n >= 1 && LeafOf(arg(1), &t) != Leaf::kNone) {
      LeafInto(arg(1), 1);
    } else if (n >= 1) {
      VB_RETURN_IF_ERROR(GenExpr(arg(1), &t));
      Emit("mov r1, r0");
    }
    for (int i = 2; i <= n; ++i) {
      if (!direct[i]) {
        Emit("pop r" + std::to_string(i));
      }
    }
    for (int i = 2; i <= n; ++i) {
      if (direct[i]) {
        LeafInto(arg(i), i);
      }
    }
    return vbase::Status::Ok();
  }

  vbase::Status GenCall(const Expr& e, Type* out) {
    *out = Type{Type::Base::kInt, 0};
    if (e.name == "__rdtsc") {
      Emit("rdtsc r0");
      return vbase::Status::Ok();
    }
    if (e.name == "__hlt") {
      Emit("hlt");
      return vbase::Status::Ok();
    }
    if (e.name == "__hc0" || e.name == "__hc1" || e.name == "__hc2" || e.name == "__hc3") {
      const int n = e.name[4] - '0';
      if (static_cast<int>(e.args.size()) != n + 1) {
        return Err(e.line, e.name + " expects " + std::to_string(n + 1) + " arguments");
      }
      // The port must be a compile-time constant (it is encoded in `out`).
      if (e.args[0]->kind != ExprKind::kIntLit) {
        return Err(e.line, "hypercall port must be an integer literal");
      }
      const int64_t port = e.args[0]->ival;
      VB_RETURN_IF_ERROR(ref_ ? GenHypercallOperandsStaged(e, n) : GenHypercallOperands(e, n));
      Emit("mov r0, 0");
      Emit("out " + std::to_string(port) + ", r0");
      return vbase::Status::Ok();
    }
    const Function* callee = prog_.FindFunction(e.name);
    if (callee == nullptr) {
      return Err(e.line, "call to undefined function '" + e.name + "'");
    }
    if (callee->params.size() != e.args.size()) {
      return Err(e.line, "call to '" + e.name + "' with " + std::to_string(e.args.size()) +
                             " args, expected " + std::to_string(callee->params.size()));
    }
    for (int i = static_cast<int>(e.args.size()) - 1; i >= 0; --i) {
      Type t;
      VB_RETURN_IF_ERROR(GenExpr(*e.args[static_cast<size_t>(i)], &t));
      Emit("push r0");
    }
    Emit("call " + e.name);
    if (!e.args.empty()) {
      Emit("add sp, " + std::to_string(e.args.size() * static_cast<size_t>(w_)));
    }
    *out = callee->ret;
    return vbase::Status::Ok();
  }

  // --- Data ---------------------------------------------------------------------------

  static std::string EscapeAsm(const std::string& s) {
    std::string out;
    for (char c : s) {
      switch (c) {
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        case '\0': out += "\\0"; break;
        case '\\': out += "\\\\"; break;
        case '"': out += "\\\""; break;
        default: out += c;
      }
    }
    return out;
  }

  std::string InternString(const std::string& value) {
    auto it = string_labels_.find(value);
    if (it != string_labels_.end()) {
      return it->second;
    }
    const std::string label = ".Lstr" + std::to_string(string_labels_.size());
    string_labels_[value] = label;
    strings_ += label + ":\n  .asciz \"" + EscapeAsm(value) + "\"\n";
    return label;
  }

  // C's conversion of an initializer to its object's type: modulo 2^8 for
  // the (unsigned) char, a two's-complement wrap to the word for int, so the
  // value fits the data directive that emits it.
  int64_t ConvertInit(int64_t v, bool is_char) const {
    if (is_char) {
      return v & 0xff;
    }
    const int shift = 64 - 8 * w_;
    return static_cast<int64_t>(static_cast<uint64_t>(v) << shift) >> shift;
  }

  void EmitGlobal(const Global& g, std::string* os) const {
    const bool is_char = !g.type.IsPtr() && g.type.base == Type::Base::kChar;
    if (!is_char) {
      *os += ".align " + std::to_string(w_) + "\n";
    }
    *os += g.name + ":\n";
    const int64_t count = g.array_count >= 0 ? g.array_count : 1;
    const int unit = is_char ? 1 : w_;
    if (g.has_string_init) {
      *os += "  .asciz \"" + EscapeAsm(g.init_string) + "\"\n";
      const int64_t used = static_cast<int64_t>(g.init_string.size()) + 1;
      if (count * unit > used) {
        *os += "  .space " + std::to_string(count * unit - used) + "\n";
      }
      return;
    }
    if (!g.init_values.empty()) {
      *os += std::string("  ") + (is_char ? ".byte" : WordDirective());
      for (size_t i = 0; i < g.init_values.size(); ++i) {
        *os += (i == 0 ? " " : ", ") + std::to_string(ConvertInit(g.init_values[i], is_char));
      }
      *os += "\n";
      const int64_t used = static_cast<int64_t>(g.init_values.size()) * unit;
      if (count * unit > used) {
        *os += "  .space " + std::to_string(count * unit - used) + "\n";
      }
      return;
    }
    *os += "  .space " + std::to_string(count * unit) + "\n";
  }

  const Program& prog_;
  const int w_;
  const bool ref_;
  std::string fn_;  // the function being generated
  std::string strings_;
  std::string tables_;  // switch jump tables (data)
  std::map<std::string, std::string> string_labels_;
  std::unordered_map<const Stmt*, std::string> case_labels_;  // case/default -> label
  std::vector<std::unordered_map<std::string, VarInfo>> scopes_;
  std::vector<std::string> break_stack_;
  std::vector<std::string> continue_stack_;
  int64_t cur_offset_ = 0;
  int label_counter_ = 0;
  int loop_depth_ = 0;
  std::string last_mov_;  // the previous instruction when it was a mov
  // Register state of the current function: registers holding variables,
  // temps currently held, and every register that needs a save/restore.
  uint32_t var_regs_ = 0;
  uint32_t held_temps_ = 0;
  uint32_t used_regs_ = 0;
  std::unordered_map<const void*, int> decl_regs_;
  std::vector<Candidate> cands_;
  std::vector<std::unordered_map<std::string, size_t>> plan_scopes_;
};

}  // namespace

vbase::Result<std::string> Generate(const Program& program, const std::string& entry,
                                    int word_bytes, bool reference) {
  CodeGen gen(program, word_bytes, reference);
  return gen.Run(entry);
}

}  // namespace vcc
