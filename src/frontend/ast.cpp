#include "src/frontend/ast.h"

#include "src/support/diagnostics.h"

namespace ecl::ast {

SigExprPtr makeSigRef(std::string name, SourceLoc loc)
{
    auto e = std::make_unique<SigExpr>();
    e->kind = SigExprKind::Ref;
    e->name = std::move(name);
    e->loc = loc;
    return e;
}

SigExprPtr makeSigNot(SigExprPtr inner, SourceLoc loc)
{
    auto e = std::make_unique<SigExpr>();
    e->kind = SigExprKind::Not;
    e->lhs = std::move(inner);
    e->loc = loc;
    return e;
}

SigExprPtr makeSigAnd(SigExprPtr a, SigExprPtr b, SourceLoc loc)
{
    auto e = std::make_unique<SigExpr>();
    e->kind = SigExprKind::And;
    e->lhs = std::move(a);
    e->rhs = std::move(b);
    e->loc = loc;
    return e;
}

SigExprPtr makeSigOr(SigExprPtr a, SigExprPtr b, SourceLoc loc)
{
    auto e = std::make_unique<SigExpr>();
    e->kind = SigExprKind::Or;
    e->lhs = std::move(a);
    e->rhs = std::move(b);
    e->loc = loc;
    return e;
}

SigExprPtr cloneSigExpr(const SigExpr& e)
{
    auto out = std::make_unique<SigExpr>();
    out->kind = e.kind;
    out->loc = e.loc;
    out->name = e.name;
    if (e.lhs) out->lhs = cloneSigExpr(*e.lhs);
    if (e.rhs) out->rhs = cloneSigExpr(*e.rhs);
    return out;
}

const ModuleDecl* Program::findModule(std::string_view name) const
{
    for (const TopDeclPtr& d : decls)
        if (d->kind == DeclKind::Module) {
            const auto* m = static_cast<const ModuleDecl*>(d.get());
            if (m->name == name) return m;
        }
    return nullptr;
}

// ---------------------------------------------------------------------------
// Cloning
// ---------------------------------------------------------------------------

ExprPtr cloneExpr(const Expr& e)
{
    switch (e.kind) {
    case ExprKind::IntLit: {
        const auto& x = static_cast<const IntLitExpr&>(e);
        return std::make_unique<IntLitExpr>(x.value, x.loc);
    }
    case ExprKind::BoolLit: {
        const auto& x = static_cast<const BoolLitExpr&>(e);
        return std::make_unique<BoolLitExpr>(x.value, x.loc);
    }
    case ExprKind::Ident: {
        const auto& x = static_cast<const IdentExpr&>(e);
        return std::make_unique<IdentExpr>(x.name, x.loc);
    }
    case ExprKind::Unary: {
        const auto& x = static_cast<const UnaryExpr&>(e);
        return std::make_unique<UnaryExpr>(x.op, cloneExpr(*x.operand), x.loc);
    }
    case ExprKind::Binary: {
        const auto& x = static_cast<const BinaryExpr&>(e);
        return std::make_unique<BinaryExpr>(x.op, cloneExpr(*x.lhs),
                                            cloneExpr(*x.rhs), x.loc);
    }
    case ExprKind::Assign: {
        const auto& x = static_cast<const AssignExpr&>(e);
        return std::make_unique<AssignExpr>(x.op, cloneExpr(*x.lhs),
                                            cloneExpr(*x.rhs), x.loc);
    }
    case ExprKind::Cond: {
        const auto& x = static_cast<const CondExpr&>(e);
        return std::make_unique<CondExpr>(cloneExpr(*x.cond),
                                          cloneExpr(*x.thenExpr),
                                          cloneExpr(*x.elseExpr), x.loc);
    }
    case ExprKind::Index: {
        const auto& x = static_cast<const IndexExpr&>(e);
        return std::make_unique<IndexExpr>(cloneExpr(*x.base),
                                           cloneExpr(*x.index), x.loc);
    }
    case ExprKind::Member: {
        const auto& x = static_cast<const MemberExpr&>(e);
        return std::make_unique<MemberExpr>(cloneExpr(*x.base), x.field, x.loc);
    }
    case ExprKind::Call: {
        const auto& x = static_cast<const CallExpr&>(e);
        std::vector<ExprPtr> args;
        args.reserve(x.args.size());
        for (const ExprPtr& a : x.args) args.push_back(cloneExpr(*a));
        return std::make_unique<CallExpr>(x.callee, std::move(args), x.loc);
    }
    case ExprKind::Cast: {
        const auto& x = static_cast<const CastExpr&>(e);
        return std::make_unique<CastExpr>(x.typeName, cloneExpr(*x.operand),
                                          x.loc);
    }
    case ExprKind::SizeofType: {
        const auto& x = static_cast<const SizeofTypeExpr&>(e);
        return std::make_unique<SizeofTypeExpr>(x.typeName, x.loc);
    }
    }
    throw EclError("cloneExpr: unknown expression kind");
}

namespace {

Declarator cloneDeclarator(const Declarator& d)
{
    Declarator out;
    out.name = d.name;
    out.loc = d.loc;
    for (const ExprPtr& dim : d.arrayDims) out.arrayDims.push_back(cloneExpr(*dim));
    if (d.init) out.init = cloneExpr(*d.init);
    return out;
}

} // namespace

StmtPtr cloneStmt(const Stmt& s)
{
    switch (s.kind) {
    case StmtKind::Block: {
        const auto& x = static_cast<const BlockStmt&>(s);
        auto out = std::make_unique<BlockStmt>(x.loc);
        for (const StmtPtr& st : x.body) out->body.push_back(cloneStmt(*st));
        return out;
    }
    case StmtKind::Decl: {
        const auto& x = static_cast<const DeclStmt&>(s);
        auto out = std::make_unique<DeclStmt>(x.type, x.loc);
        for (const Declarator& d : x.decls) out->decls.push_back(cloneDeclarator(d));
        return out;
    }
    case StmtKind::ExprStmt: {
        const auto& x = static_cast<const ExprStmt&>(s);
        return std::make_unique<ExprStmt>(cloneExpr(*x.expr), x.loc);
    }
    case StmtKind::If: {
        const auto& x = static_cast<const IfStmt&>(s);
        return std::make_unique<IfStmt>(
            cloneExpr(*x.cond), cloneStmt(*x.thenStmt),
            x.elseStmt ? cloneStmt(*x.elseStmt) : nullptr, x.loc);
    }
    case StmtKind::While: {
        const auto& x = static_cast<const WhileStmt&>(s);
        return std::make_unique<WhileStmt>(cloneExpr(*x.cond),
                                           cloneStmt(*x.body), x.loc);
    }
    case StmtKind::DoWhile: {
        const auto& x = static_cast<const DoWhileStmt&>(s);
        return std::make_unique<DoWhileStmt>(cloneStmt(*x.body),
                                             cloneExpr(*x.cond), x.loc);
    }
    case StmtKind::For: {
        const auto& x = static_cast<const ForStmt&>(s);
        auto out = std::make_unique<ForStmt>(x.loc);
        if (x.init) out->init = cloneStmt(*x.init);
        if (x.cond) out->cond = cloneExpr(*x.cond);
        if (x.step) out->step = cloneExpr(*x.step);
        out->body = cloneStmt(*x.body);
        return out;
    }
    case StmtKind::Break: return std::make_unique<BreakStmt>(s.loc);
    case StmtKind::Continue: return std::make_unique<ContinueStmt>(s.loc);
    case StmtKind::Return: {
        const auto& x = static_cast<const ReturnStmt&>(s);
        return std::make_unique<ReturnStmt>(
            x.value ? cloneExpr(*x.value) : nullptr, x.loc);
    }
    case StmtKind::Empty: return std::make_unique<EmptyStmt>(s.loc);
    case StmtKind::Await: {
        const auto& x = static_cast<const AwaitStmt&>(s);
        return std::make_unique<AwaitStmt>(
            x.cond ? cloneSigExpr(*x.cond) : nullptr, x.loc);
    }
    case StmtKind::Emit: {
        const auto& x = static_cast<const EmitStmt&>(s);
        return std::make_unique<EmitStmt>(
            x.signal, x.value ? cloneExpr(*x.value) : nullptr, x.loc);
    }
    case StmtKind::Halt: return std::make_unique<HaltStmt>(s.loc);
    case StmtKind::Present: {
        const auto& x = static_cast<const PresentStmt&>(s);
        return std::make_unique<PresentStmt>(
            cloneSigExpr(*x.cond), cloneStmt(*x.thenStmt),
            x.elseStmt ? cloneStmt(*x.elseStmt) : nullptr, x.loc);
    }
    case StmtKind::Abort: {
        const auto& x = static_cast<const AbortStmt&>(s);
        return std::make_unique<AbortStmt>(
            cloneStmt(*x.body), cloneSigExpr(*x.cond), x.weak,
            x.handler ? cloneStmt(*x.handler) : nullptr, x.loc);
    }
    case StmtKind::Suspend: {
        const auto& x = static_cast<const SuspendStmt&>(s);
        return std::make_unique<SuspendStmt>(cloneStmt(*x.body),
                                             cloneSigExpr(*x.cond), x.loc);
    }
    case StmtKind::Par: {
        const auto& x = static_cast<const ParStmt&>(s);
        auto out = std::make_unique<ParStmt>(x.loc);
        for (const StmtPtr& b : x.branches) out->branches.push_back(cloneStmt(*b));
        return out;
    }
    case StmtKind::SignalDecl: {
        const auto& x = static_cast<const SignalDeclStmt&>(s);
        auto out = std::make_unique<SignalDeclStmt>(x.loc);
        out->pure = x.pure;
        out->type = x.type;
        out->names = x.names;
        return out;
    }
    }
    throw EclError("cloneStmt: unknown statement kind");
}

// ---------------------------------------------------------------------------
// Child enumeration
// ---------------------------------------------------------------------------

// The switches below name every kind and have no default, and -Wswitch is
// an error here: a new StmtKind or ExprKind, the last one included, does
// not build until it lists its children.
#pragma GCC diagnostic push
#pragma GCC diagnostic error "-Wswitch"

void forEachChildSlot(Stmt& s, const ChildSlots& f)
{
    auto stmt = [&](StmtPtr& c) { if (c && f.stmt) f.stmt(c); };
    auto expr = [&](ExprPtr& c) { if (c && f.expr) f.expr(c); };
    auto sig = [&](SigExprPtr& c) { if (c && f.sig) f.sig(c); };
    switch (s.kind) {
    case StmtKind::Block:
        for (StmtPtr& c : static_cast<BlockStmt&>(s).body) stmt(c);
        return;
    case StmtKind::Decl:
        for (Declarator& d : static_cast<DeclStmt&>(s).decls) {
            for (ExprPtr& dim : d.arrayDims) expr(dim);
            expr(d.init);
        }
        return;
    case StmtKind::ExprStmt: expr(static_cast<ExprStmt&>(s).expr); return;
    case StmtKind::If: {
        auto& x = static_cast<IfStmt&>(s);
        expr(x.cond);
        stmt(x.thenStmt);
        stmt(x.elseStmt);
        return;
    }
    case StmtKind::While: {
        auto& x = static_cast<WhileStmt&>(s);
        expr(x.cond);
        stmt(x.body);
        return;
    }
    case StmtKind::DoWhile: {
        auto& x = static_cast<DoWhileStmt&>(s);
        stmt(x.body);
        expr(x.cond);
        return;
    }
    case StmtKind::For: {
        auto& x = static_cast<ForStmt&>(s);
        stmt(x.init);
        expr(x.cond);
        expr(x.step);
        stmt(x.body);
        return;
    }
    case StmtKind::Return: expr(static_cast<ReturnStmt&>(s).value); return;
    case StmtKind::Await: sig(static_cast<AwaitStmt&>(s).cond); return;
    case StmtKind::Emit: expr(static_cast<EmitStmt&>(s).value); return;
    case StmtKind::Present: {
        auto& x = static_cast<PresentStmt&>(s);
        sig(x.cond);
        stmt(x.thenStmt);
        stmt(x.elseStmt);
        return;
    }
    case StmtKind::Abort: {
        auto& x = static_cast<AbortStmt&>(s);
        stmt(x.body);
        sig(x.cond);
        stmt(x.handler);
        return;
    }
    case StmtKind::Suspend: {
        auto& x = static_cast<SuspendStmt&>(s);
        stmt(x.body);
        sig(x.cond);
        return;
    }
    case StmtKind::Par:
        for (StmtPtr& c : static_cast<ParStmt&>(s).branches) stmt(c);
        return;
    case StmtKind::Break:
    case StmtKind::Continue:
    case StmtKind::Empty:
    case StmtKind::Halt:
    case StmtKind::SignalDecl: return;
    }
}

void forEachChildSlot(Expr& e, const ChildSlots& f)
{
    if (!f.expr) return;
    switch (e.kind) {
    case ExprKind::Unary: f.expr(static_cast<UnaryExpr&>(e).operand); return;
    case ExprKind::Binary: {
        auto& x = static_cast<BinaryExpr&>(e);
        f.expr(x.lhs);
        f.expr(x.rhs);
        return;
    }
    case ExprKind::Assign: {
        auto& x = static_cast<AssignExpr&>(e);
        f.expr(x.lhs);
        f.expr(x.rhs);
        return;
    }
    case ExprKind::Cond: {
        auto& x = static_cast<CondExpr&>(e);
        f.expr(x.cond);
        f.expr(x.thenExpr);
        f.expr(x.elseExpr);
        return;
    }
    case ExprKind::Index: {
        auto& x = static_cast<IndexExpr&>(e);
        f.expr(x.base);
        f.expr(x.index);
        return;
    }
    case ExprKind::Member: f.expr(static_cast<MemberExpr&>(e).base); return;
    case ExprKind::Call:
        for (ExprPtr& a : static_cast<CallExpr&>(e).args) f.expr(a);
        return;
    case ExprKind::Cast: f.expr(static_cast<CastExpr&>(e).operand); return;
    case ExprKind::IntLit:
    case ExprKind::BoolLit:
    case ExprKind::Ident:
    case ExprKind::SizeofType: return;
    }
}

#pragma GCC diagnostic pop

void forEachChildSlot(SigExpr& e, const ChildSlots& f)
{
    // Every kind keeps its operands in lhs, then rhs; a Ref has none.
    if (!f.sig) return;
    if (e.lhs) f.sig(e.lhs);
    if (e.rhs) f.sig(e.rhs);
}

namespace {

/// Slot hooks handing `f` each child read-only.
ChildSlots readOnly(const Children& f)
{
    ChildSlots slots;
    if (f.stmt) slots.stmt = [&f](StmtPtr& c) { f.stmt(*c); };
    if (f.expr) slots.expr = [&f](ExprPtr& c) { f.expr(*c); };
    if (f.sig) slots.sig = [&f](SigExprPtr& c) { f.sig(*c); };
    return slots;
}

} // namespace

// The read-only forms share the slot walk; `f` sees every child as const,
// so nothing is written through the cast.
void forEachChild(const Stmt& s, const Children& f)
{
    forEachChildSlot(const_cast<Stmt&>(s), readOnly(f));
}

void forEachChild(const Expr& e, const Children& f)
{
    forEachChildSlot(const_cast<Expr&>(e), readOnly(f));
}

void forEachChild(const SigExpr& e, const Children& f)
{
    forEachChildSlot(const_cast<SigExpr&>(e), readOnly(f));
}

} // namespace ecl::ast
