// Abstract syntax tree for ECL programs.
//
// ECL is ANSI-C-like (the supported subset: scalar types, arrays, structs,
// unions, typedefs, functions — no pointers, per the Esterel value
// discipline) plus the reactive constructs of the paper: modules, signals,
// emit/emit_v, await, halt, present, do..abort/weak_abort/suspend (with
// handle), and par.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/support/source_location.h"

namespace ecl::ast {

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class ExprKind {
    IntLit,
    BoolLit,
    Ident,
    Unary,
    Binary,
    Assign,
    Cond,
    Index,
    Member,
    Call,
    Cast,
    SizeofType,
};

enum class UnaryOp { Plus, Minus, Not, BitNot, PreInc, PreDec, PostInc, PostDec };

enum class BinaryOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Shl,
    Shr,
    Lt,
    Gt,
    Le,
    Ge,
    Eq,
    Ne,
    BitAnd,
    BitOr,
    BitXor,
    LogAnd,
    LogOr,
};

/// Compound-assignment flavor; Plain is '='.
enum class AssignOp { Plain, Add, Sub, Mul, Div, Rem, Shl, Shr, And, Or, Xor };

struct Expr {
    explicit Expr(ExprKind k, SourceLoc l) : kind(k), loc(l) {}
    virtual ~Expr() = default;
    Expr(const Expr&) = delete;
    Expr& operator=(const Expr&) = delete;

    ExprKind kind;
    SourceLoc loc;
};

using ExprPtr = std::unique_ptr<Expr>;

struct IntLitExpr final : Expr {
    IntLitExpr(std::int64_t v, SourceLoc l) : Expr(ExprKind::IntLit, l), value(v) {}
    std::int64_t value;
};

struct BoolLitExpr final : Expr {
    BoolLitExpr(bool v, SourceLoc l) : Expr(ExprKind::BoolLit, l), value(v) {}
    bool value;
};

/// A name: a variable, a constant, or — in value position — a valued signal.
struct IdentExpr final : Expr {
    IdentExpr(std::string n, SourceLoc l)
        : Expr(ExprKind::Ident, l), name(std::move(n))
    {
    }
    std::string name;
};

struct UnaryExpr final : Expr {
    UnaryExpr(UnaryOp o, ExprPtr e, SourceLoc l)
        : Expr(ExprKind::Unary, l), op(o), operand(std::move(e))
    {
    }
    UnaryOp op;
    ExprPtr operand;
};

struct BinaryExpr final : Expr {
    BinaryExpr(BinaryOp o, ExprPtr a, ExprPtr b, SourceLoc l)
        : Expr(ExprKind::Binary, l), op(o), lhs(std::move(a)), rhs(std::move(b))
    {
    }
    BinaryOp op;
    ExprPtr lhs;
    ExprPtr rhs;
};

struct AssignExpr final : Expr {
    AssignExpr(AssignOp o, ExprPtr a, ExprPtr b, SourceLoc l)
        : Expr(ExprKind::Assign, l), op(o), lhs(std::move(a)), rhs(std::move(b))
    {
    }
    AssignOp op;
    ExprPtr lhs;
    ExprPtr rhs;
};

struct CondExpr final : Expr {
    CondExpr(ExprPtr c, ExprPtr t, ExprPtr f, SourceLoc l)
        : Expr(ExprKind::Cond, l), cond(std::move(c)), thenExpr(std::move(t)),
          elseExpr(std::move(f))
    {
    }
    ExprPtr cond;
    ExprPtr thenExpr;
    ExprPtr elseExpr;
};

struct IndexExpr final : Expr {
    IndexExpr(ExprPtr b, ExprPtr i, SourceLoc l)
        : Expr(ExprKind::Index, l), base(std::move(b)), index(std::move(i))
    {
    }
    ExprPtr base;
    ExprPtr index;
};

struct MemberExpr final : Expr {
    MemberExpr(ExprPtr b, std::string f, SourceLoc l)
        : Expr(ExprKind::Member, l), base(std::move(b)), field(std::move(f))
    {
    }
    ExprPtr base;
    std::string field;
};

/// Function call; module instantiation shares this syntax and is
/// distinguished during semantic analysis.
struct CallExpr final : Expr {
    CallExpr(std::string c, std::vector<ExprPtr> a, SourceLoc l)
        : Expr(ExprKind::Call, l), callee(std::move(c)), args(std::move(a))
    {
    }
    std::string callee;
    std::vector<ExprPtr> args;
};

/// `(type) expr` — types referenced by name (e.g. `(int) x`).
struct CastExpr final : Expr {
    CastExpr(std::string t, ExprPtr e, SourceLoc l)
        : Expr(ExprKind::Cast, l), typeName(std::move(t)), operand(std::move(e))
    {
    }
    std::string typeName;
    ExprPtr operand;
};

struct SizeofTypeExpr final : Expr {
    SizeofTypeExpr(std::string t, SourceLoc l)
        : Expr(ExprKind::SizeofType, l), typeName(std::move(t))
    {
    }
    std::string typeName;
};

// ---------------------------------------------------------------------------
// Signal expressions (presence tests: names combined with & | ~)
// ---------------------------------------------------------------------------

enum class SigExprKind { Ref, And, Or, Not };

struct SigExpr {
    SigExprKind kind = SigExprKind::Ref;
    SourceLoc loc;
    std::string name;              ///< For Ref.
    std::unique_ptr<SigExpr> lhs;  ///< For And/Or/Not.
    std::unique_ptr<SigExpr> rhs;  ///< For And/Or.
};

using SigExprPtr = std::unique_ptr<SigExpr>;

SigExprPtr makeSigRef(std::string name, SourceLoc loc);
SigExprPtr makeSigNot(SigExprPtr e, SourceLoc loc);
SigExprPtr makeSigAnd(SigExprPtr a, SigExprPtr b, SourceLoc loc);
SigExprPtr makeSigOr(SigExprPtr a, SigExprPtr b, SourceLoc loc);

/// Deep copy (used when modules are inlined).
SigExprPtr cloneSigExpr(const SigExpr& e);

// ---------------------------------------------------------------------------
// Type specifiers and declarators (pre-semantic)
// ---------------------------------------------------------------------------

/// Reference to a type by spelling: builtin names ("int", "unsigned char",
/// "bool", ...), a typedef name, or "struct Tag"/"union Tag".
struct TypeSpec {
    std::string name;
    SourceLoc loc;
};

/// One declared entity: `name dims...` with optional initializer
/// (e.g. `buffer[PKTSIZE]`, `crc = 0`).
struct Declarator {
    std::string name;
    std::vector<ExprPtr> arrayDims; ///< Outermost dimension first.
    ExprPtr init;                   ///< May be null.
    SourceLoc loc;
};

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class StmtKind {
    Block,
    Decl,
    ExprStmt,
    If,
    While,
    DoWhile,
    For,
    Break,
    Continue,
    Return,
    Empty,
    // Reactive statements.
    Await,
    Emit,
    Halt,
    Present,
    Abort,
    Suspend,
    Par,
    SignalDecl,
};

struct Stmt {
    explicit Stmt(StmtKind k, SourceLoc l) : kind(k), loc(l) {}
    virtual ~Stmt() = default;
    Stmt(const Stmt&) = delete;
    Stmt& operator=(const Stmt&) = delete;

    StmtKind kind;
    SourceLoc loc;
};

using StmtPtr = std::unique_ptr<Stmt>;

struct BlockStmt final : Stmt {
    explicit BlockStmt(SourceLoc l) : Stmt(StmtKind::Block, l) {}
    std::vector<StmtPtr> body;
};

struct DeclStmt final : Stmt {
    DeclStmt(TypeSpec t, SourceLoc l) : Stmt(StmtKind::Decl, l), type(std::move(t)) {}
    TypeSpec type;
    std::vector<Declarator> decls;
};

struct ExprStmt final : Stmt {
    ExprStmt(ExprPtr e, SourceLoc l) : Stmt(StmtKind::ExprStmt, l), expr(std::move(e)) {}
    ExprPtr expr;
};

struct IfStmt final : Stmt {
    IfStmt(ExprPtr c, StmtPtr t, StmtPtr e, SourceLoc l)
        : Stmt(StmtKind::If, l), cond(std::move(c)), thenStmt(std::move(t)),
          elseStmt(std::move(e))
    {
    }
    ExprPtr cond;
    StmtPtr thenStmt;
    StmtPtr elseStmt; ///< May be null.
};

struct WhileStmt final : Stmt {
    WhileStmt(ExprPtr c, StmtPtr b, SourceLoc l)
        : Stmt(StmtKind::While, l), cond(std::move(c)), body(std::move(b))
    {
    }
    ExprPtr cond;
    StmtPtr body;
};

struct DoWhileStmt final : Stmt {
    DoWhileStmt(StmtPtr b, ExprPtr c, SourceLoc l)
        : Stmt(StmtKind::DoWhile, l), body(std::move(b)), cond(std::move(c))
    {
    }
    StmtPtr body;
    ExprPtr cond;
};

struct ForStmt final : Stmt {
    explicit ForStmt(SourceLoc l) : Stmt(StmtKind::For, l) {}
    StmtPtr init;  ///< DeclStmt or ExprStmt; may be null.
    ExprPtr cond;  ///< May be null (infinite).
    ExprPtr step;  ///< May be null.
    StmtPtr body;
};

struct BreakStmt final : Stmt {
    explicit BreakStmt(SourceLoc l) : Stmt(StmtKind::Break, l) {}
};

struct ContinueStmt final : Stmt {
    explicit ContinueStmt(SourceLoc l) : Stmt(StmtKind::Continue, l) {}
};

struct ReturnStmt final : Stmt {
    ReturnStmt(ExprPtr e, SourceLoc l) : Stmt(StmtKind::Return, l), value(std::move(e)) {}
    ExprPtr value; ///< May be null.
};

struct EmptyStmt final : Stmt {
    explicit EmptyStmt(SourceLoc l) : Stmt(StmtKind::Empty, l) {}
};

/// `await(sigexpr);` — `cond == nullptr` is the delta-cycle `await()`.
struct AwaitStmt final : Stmt {
    AwaitStmt(SigExprPtr c, SourceLoc l) : Stmt(StmtKind::Await, l), cond(std::move(c)) {}
    SigExprPtr cond;
};

/// `emit(sig);` or `emit_v(sig, value);`
struct EmitStmt final : Stmt {
    EmitStmt(std::string s, ExprPtr v, SourceLoc l)
        : Stmt(StmtKind::Emit, l), signal(std::move(s)), value(std::move(v))
    {
    }
    std::string signal;
    ExprPtr value; ///< Null for pure emit.
};

struct HaltStmt final : Stmt {
    explicit HaltStmt(SourceLoc l) : Stmt(StmtKind::Halt, l) {}
};

struct PresentStmt final : Stmt {
    PresentStmt(SigExprPtr c, StmtPtr t, StmtPtr e, SourceLoc l)
        : Stmt(StmtKind::Present, l), cond(std::move(c)), thenStmt(std::move(t)),
          elseStmt(std::move(e))
    {
    }
    SigExprPtr cond;
    StmtPtr thenStmt;
    StmtPtr elseStmt; ///< May be null.
};

/// `do body abort(sigexpr) [handle handler]` — strong or weak.
struct AbortStmt final : Stmt {
    AbortStmt(StmtPtr b, SigExprPtr c, bool w, StmtPtr h, SourceLoc l)
        : Stmt(StmtKind::Abort, l), body(std::move(b)), cond(std::move(c)),
          weak(w), handler(std::move(h))
    {
    }
    StmtPtr body;
    SigExprPtr cond;
    bool weak;
    StmtPtr handler; ///< May be null.
};

struct SuspendStmt final : Stmt {
    SuspendStmt(StmtPtr b, SigExprPtr c, SourceLoc l)
        : Stmt(StmtKind::Suspend, l), body(std::move(b)), cond(std::move(c))
    {
    }
    StmtPtr body;
    SigExprPtr cond;
};

struct ParStmt final : Stmt {
    explicit ParStmt(SourceLoc l) : Stmt(StmtKind::Par, l) {}
    std::vector<StmtPtr> branches;
};

/// `signal [pure] type name, name... ;` — module-local signals.
struct SignalDeclStmt final : Stmt {
    explicit SignalDeclStmt(SourceLoc l) : Stmt(StmtKind::SignalDecl, l) {}
    bool pure = false;
    TypeSpec type;                  ///< Unused when pure.
    std::vector<std::string> names;
};

// ---------------------------------------------------------------------------
// Top-level declarations
// ---------------------------------------------------------------------------

struct FieldDecl {
    TypeSpec type;
    Declarator decl;
};

/// struct/union body, possibly anonymous (inside a typedef).
struct AggregateDef {
    bool isUnion = false;
    std::string tag; ///< Empty for anonymous aggregates.
    std::vector<FieldDecl> fields;
    SourceLoc loc;
};

enum class DeclKind { Typedef, Aggregate, Function, Module, GlobalVar };

struct TopDecl {
    explicit TopDecl(DeclKind k, SourceLoc l) : kind(k), loc(l) {}
    virtual ~TopDecl() = default;
    TopDecl(const TopDecl&) = delete;
    TopDecl& operator=(const TopDecl&) = delete;

    DeclKind kind;
    SourceLoc loc;
};

using TopDeclPtr = std::unique_ptr<TopDecl>;

/// `typedef <spec|aggregate> name dims;`
struct TypedefDecl final : TopDecl {
    explicit TypedefDecl(SourceLoc l) : TopDecl(DeclKind::Typedef, l) {}
    TypeSpec underlying;                    ///< Used when aggregate is null.
    std::unique_ptr<AggregateDef> aggregate; ///< Inline struct/union def.
    std::string name;
    std::vector<ExprPtr> arrayDims;
};

/// `struct Tag { ... };` at file scope.
struct AggregateDecl final : TopDecl {
    explicit AggregateDecl(SourceLoc l) : TopDecl(DeclKind::Aggregate, l) {}
    AggregateDef def;
};

struct ParamDecl {
    TypeSpec type;
    std::string name;
    std::vector<ExprPtr> arrayDims;
    SourceLoc loc;
};

/// A pure-C helper function.
struct FunctionDecl final : TopDecl {
    explicit FunctionDecl(SourceLoc l) : TopDecl(DeclKind::Function, l) {}
    TypeSpec returnType;
    std::string name;
    std::vector<ParamDecl> params;
    std::unique_ptr<BlockStmt> body;
};

enum class SignalDir { Input, Output };

struct SignalParam {
    SignalDir dir = SignalDir::Input;
    bool pure = false;
    TypeSpec type; ///< Unused when pure.
    std::string name;
    SourceLoc loc;
};

struct ModuleDecl final : TopDecl {
    explicit ModuleDecl(SourceLoc l) : TopDecl(DeclKind::Module, l) {}
    std::string name;
    std::vector<SignalParam> params;
    std::unique_ptr<BlockStmt> body;
};

/// File-scope variable (only `const` ones are accepted by sema; the paper
/// notes plain globals clash with Esterel scoping).
struct GlobalVarDecl final : TopDecl {
    explicit GlobalVarDecl(SourceLoc l) : TopDecl(DeclKind::GlobalVar, l) {}
    bool isConst = false;
    TypeSpec type;
    std::vector<Declarator> decls;
};

struct Program {
    std::vector<TopDeclPtr> decls;

    /// Returns the module with the given name, or nullptr.
    [[nodiscard]] const ModuleDecl* findModule(std::string_view name) const;
};

// ---------------------------------------------------------------------------
// Deep cloning (module inlining duplicates bodies)
// ---------------------------------------------------------------------------

ExprPtr cloneExpr(const Expr& e);
StmtPtr cloneStmt(const Stmt& s);

// ---------------------------------------------------------------------------
// Child enumeration: the one place that lists what each node kind contains
// ---------------------------------------------------------------------------

/// Hooks receiving the direct children of a read-only node. A hook left
/// empty skips the children of its type.
struct Children {
    std::function<void(const Stmt&)> stmt{};
    std::function<void(const Expr&)> expr{};
    std::function<void(const SigExpr&)> sig{};
};

/// Hooks receiving each direct child of a node as its owning slot, so a
/// walker can rewrite the child or replace it.
struct ChildSlots {
    std::function<void(StmtPtr&)> stmt{};
    std::function<void(ExprPtr&)> expr{};
    std::function<void(SigExprPtr&)> sig{};
};

/// Calls the matching hook on each direct child of a node, in source
/// order: statements, expressions (a declarator's array dimensions, then
/// its initializer) and signal expressions. Absent optional children (a
/// missing `else`, a pure `emit`'s value, an empty `for` clause) are not
/// visited.
void forEachChild(const Stmt& s, const Children& f);
void forEachChild(const Expr& e, const Children& f);
void forEachChild(const SigExpr& e, const Children& f);
void forEachChildSlot(Stmt& s, const ChildSlots& f);
void forEachChildSlot(Expr& e, const ChildSlots& f);
void forEachChildSlot(SigExpr& e, const ChildSlots& f);

} // namespace ecl::ast
