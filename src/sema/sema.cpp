#include "src/sema/sema.h"

#include <functional>

namespace ecl {

using namespace ast;

namespace {

/// Records `msg` as the diagnostic at `loc` and throws the same text.
[[noreturn]] void reject(SourceLoc loc, const std::string& msg,
                         Diagnostics& diags)
{
    diags.error(loc, msg);
    throw EclError(loc, msg);
}

} // namespace

// ---------------------------------------------------------------------------
// Constant expressions
// ---------------------------------------------------------------------------

std::int64_t evalConstExpr(const Expr& e, const ProgramSema& sema,
                           Diagnostics& diags)
{
    auto fail = [&](const std::string& msg) -> std::int64_t {
        reject(e.loc, msg, diags);
    };

    switch (e.kind) {
    case ExprKind::IntLit: return static_cast<const IntLitExpr&>(e).value;
    case ExprKind::BoolLit:
        return static_cast<const BoolLitExpr&>(e).value ? 1 : 0;
    case ExprKind::Ident: {
        const auto& x = static_cast<const IdentExpr&>(e);
        auto it = sema.constants.find(x.name);
        if (it == sema.constants.end())
            return fail("'" + x.name + "' is not a compile-time constant");
        return it->second;
    }
    case ExprKind::Unary: {
        const auto& x = static_cast<const UnaryExpr&>(e);
        std::int64_t v = evalConstExpr(*x.operand, sema, diags);
        switch (x.op) {
        case UnaryOp::Plus: return v;
        case UnaryOp::Minus: return -v;
        case UnaryOp::Not: return v == 0 ? 1 : 0;
        case UnaryOp::BitNot: return ~v;
        default: return fail("operator not allowed in constant expression");
        }
    }
    case ExprKind::Binary: {
        const auto& x = static_cast<const BinaryExpr&>(e);
        std::int64_t a = evalConstExpr(*x.lhs, sema, diags);
        std::int64_t b = evalConstExpr(*x.rhs, sema, diags);
        switch (x.op) {
        case BinaryOp::Add: return a + b;
        case BinaryOp::Sub: return a - b;
        case BinaryOp::Mul: return a * b;
        case BinaryOp::Div:
            if (b == 0) return fail("division by zero in constant expression");
            return a / b;
        case BinaryOp::Rem:
            if (b == 0) return fail("division by zero in constant expression");
            return a % b;
        case BinaryOp::Shl: return a << (b & 63);
        case BinaryOp::Shr: return a >> (b & 63);
        case BinaryOp::Lt: return a < b;
        case BinaryOp::Gt: return a > b;
        case BinaryOp::Le: return a <= b;
        case BinaryOp::Ge: return a >= b;
        case BinaryOp::Eq: return a == b;
        case BinaryOp::Ne: return a != b;
        case BinaryOp::BitAnd: return a & b;
        case BinaryOp::BitOr: return a | b;
        case BinaryOp::BitXor: return a ^ b;
        case BinaryOp::LogAnd: return (a != 0 && b != 0) ? 1 : 0;
        case BinaryOp::LogOr: return (a != 0 || b != 0) ? 1 : 0;
        }
        return fail("bad binary operator in constant expression");
    }
    case ExprKind::Cond: {
        const auto& x = static_cast<const CondExpr&>(e);
        return evalConstExpr(*x.cond, sema, diags)
                   ? evalConstExpr(*x.thenExpr, sema, diags)
                   : evalConstExpr(*x.elseExpr, sema, diags);
    }
    case ExprKind::SizeofType: {
        const auto& x = static_cast<const SizeofTypeExpr&>(e);
        const Type* t = sema.types.lookup(x.typeName);
        if (!t) return fail("unknown type in sizeof: '" + x.typeName + "'");
        return static_cast<std::int64_t>(t->size());
    }
    case ExprKind::Cast: {
        const auto& x = static_cast<const CastExpr&>(e);
        return evalConstExpr(*x.operand, sema, diags);
    }
    default: return fail("not a constant expression");
    }
}

// ---------------------------------------------------------------------------
// Program-level analysis
// ---------------------------------------------------------------------------

namespace {

const Type* resolveFieldType(const TypeSpec& spec,
                             const std::vector<ExprPtr>& dims,
                             ProgramSema& sema, Diagnostics& diags)
{
    const Type* t = sema.types.require(spec.name, spec.loc, diags);
    // Dimensions apply outermost-first: `byte m[2][3]` is 2 rows of 3.
    for (std::size_t i = dims.size(); i-- > 0;)
        t = sema.types.arrayOf(t, evalConstExpr(*dims[i], sema, diags),
                               dims[i]->loc, diags);
    return t;
}

const Type* buildAggregate(const AggregateDef& def, const std::string& name,
                           ProgramSema& sema, Diagnostics& diags)
{
    std::vector<std::pair<std::string, const Type*>> fields;
    for (const FieldDecl& f : def.fields) {
        const Type* ft =
            resolveFieldType(f.type, f.decl.arrayDims, sema, diags);
        if (ft->isVoid())
            reject(f.decl.loc, "field cannot have void type", diags);
        fields.emplace_back(f.decl.name, ft);
    }
    return sema.types.makeAggregate(def.isUnion, name, std::move(fields),
                                    def.loc, diags);
}

} // namespace

ProgramSema analyzeProgramDecls(const Program& program, Diagnostics& diags)
{
    ProgramSema sema;
    sema.program = &program;

    for (const TopDeclPtr& d : program.decls) {
        switch (d->kind) {
        case DeclKind::Typedef: {
            const auto& x = static_cast<const TypedefDecl&>(*d);
            const Type* base;
            if (x.aggregate) {
                std::string aggName = x.aggregate->tag.empty()
                                          ? x.name
                                          : ((x.aggregate->isUnion
                                                  ? "union "
                                                  : "struct ") +
                                             x.aggregate->tag);
                base = buildAggregate(*x.aggregate, aggName, sema, diags);
                if (!x.aggregate->tag.empty())
                    sema.types.registerName(aggName, base, x.loc);
            } else {
                base = sema.types.require(x.underlying.name, x.loc, diags);
            }
            for (std::size_t i = x.arrayDims.size(); i-- > 0;)
                base = sema.types.arrayOf(
                    base, evalConstExpr(*x.arrayDims[i], sema, diags),
                    x.arrayDims[i]->loc, diags);
            sema.types.registerName(x.name, base, x.loc);
            break;
        }
        case DeclKind::Aggregate: {
            const auto& x = static_cast<const AggregateDecl&>(*d);
            std::string name =
                (x.def.isUnion ? "union " : "struct ") + x.def.tag;
            const Type* t = buildAggregate(x.def, name, sema, diags);
            sema.types.registerName(name, t, x.loc);
            break;
        }
        case DeclKind::Function: {
            const auto& x = static_cast<const FunctionDecl&>(*d);
            if (sema.functions.count(x.name))
                reject(x.loc, "redefinition of function '" + x.name + "'",
                       diags);
            FunctionInfo info;
            info.decl = &x;
            info.returnType =
                sema.types.require(x.returnType.name, x.loc, diags);
            for (const ParamDecl& p : x.params) {
                const Type* pt =
                    resolveFieldType(p.type, p.arrayDims, sema, diags);
                info.params.emplace_back(p.name, pt);
            }
            sema.functions.emplace(x.name, std::move(info));
            break;
        }
        case DeclKind::Module:
            // Modules are analyzed on demand (after elaboration).
            break;
        case DeclKind::GlobalVar: {
            const auto& x = static_cast<const GlobalVarDecl&>(*d);
            if (!x.isConst)
                reject(x.loc,
                       "file-scope variables must be 'const' in ECL "
                       "(Esterel scoping; see paper Section 3)",
                       diags);
            for (const Declarator& decl : x.decls) {
                if (!decl.arrayDims.empty())
                    reject(decl.loc,
                           "const arrays at file scope are not supported; "
                           "use #define tables or locals",
                           diags);
                if (!decl.init)
                    reject(decl.loc,
                           "const '" + decl.name + "' needs an initializer",
                           diags);
                sema.constants[decl.name] =
                    evalConstExpr(*decl.init, sema, diags);
            }
            break;
        }
        }
    }
    if (diags.hasErrors())
        throw EclError("semantic errors:\n" + diags.formatAll());
    return sema;
}

// ---------------------------------------------------------------------------
// Body checking (shared by modules and functions)
// ---------------------------------------------------------------------------

namespace {

class BodyChecker {
public:
    BodyChecker(const ProgramSema& prog, Diagnostics& diags, ModuleSema* mod,
                FunctionSema* fn)
        : prog_(prog), diags_(diags), mod_(mod), fn_(fn)
    {
    }

    void collectModule(const ModuleDecl& m)
    {
        int sigIdx = 0;
        for (const SignalParam& p : m.params) {
            SignalInfo info;
            info.name = p.name;
            info.dir = p.dir == ast::SignalDir::Input
                           ? ecl::SignalDir::Input
                           : ecl::SignalDir::Output;
            info.pure = p.pure;
            if (!p.pure)
                info.valueType = prog_.types.require(p.type.name, p.loc, diags_);
            info.index = sigIdx++;
            addSignal(std::move(info), p.loc);
        }
        collectStmt(*m.body);
    }

    void collectFunction(const FunctionDecl& f, const FunctionInfo& info)
    {
        for (std::size_t i = 0; i < f.params.size(); ++i)
            addVar(f.params[i].name, info.params[i].second, f.params[i].loc);
        collectStmt(*f.body);
    }

    void checkModuleBody(const ModuleDecl& m) { checkStmt(*m.body); }

    void checkFunctionBody(const FunctionDecl& f) { checkStmt(*f.body); }

private:
    // --- symbol collection -------------------------------------------------

    void addSignal(SignalInfo info, SourceLoc loc)
    {
        if (mod_->signalIndex.count(info.name) ||
            mod_->varIndex.count(info.name))
            error(loc, "duplicate name '" + info.name + "' in module");
        info.index = static_cast<int>(mod_->signals.size());
        mod_->signalIndex[info.name] = info.index;
        mod_->signals.push_back(std::move(info));
    }

    void addVar(const std::string& name, const Type* type, SourceLoc loc)
    {
        auto& vars = mod_ ? mod_->vars : fn_->vars;
        auto& index = mod_ ? mod_->varIndex : fn_->varIndex;
        if (index.count(name) || (mod_ && mod_->signalIndex.count(name)))
            error(loc, "duplicate declaration of '" + name +
                           "' (ECL forbids shadowing within a module)");
        if (type->isVoid()) error(loc, "variable cannot have void type");
        VarInfo v;
        v.name = name;
        v.type = type;
        v.index = static_cast<int>(vars.size());
        index[name] = v.index;
        vars.push_back(std::move(v));
    }

    void collectStmt(const Stmt& s)
    {
        switch (s.kind) {
        case StmtKind::Decl: {
            const auto& x = static_cast<const DeclStmt&>(s);
            for (const Declarator& d : x.decls) {
                const Type* t = prog_.types.require(x.type.name, x.loc, diags_);
                for (std::size_t i = d.arrayDims.size(); i-- > 0;)
                    t = const_cast<TypeTable&>(prog_.types)
                            .arrayOf(t,
                                     evalConstExpr(*d.arrayDims[i], prog_,
                                                   diags_),
                                     d.loc, diags_);
                addVar(d.name, t, d.loc);
            }
            return;
        }
        case StmtKind::SignalDecl: {
            const auto& x = static_cast<const SignalDeclStmt&>(s);
            if (!mod_) {
                error(s.loc, "signal declarations are only allowed in modules");
                return;
            }
            for (const std::string& n : x.names) {
                SignalInfo info;
                info.name = n;
                info.dir = ecl::SignalDir::Local;
                info.pure = x.pure;
                if (!x.pure)
                    info.valueType =
                        prog_.types.require(x.type.name, x.loc, diags_);
                addSignal(std::move(info), x.loc);
            }
            return;
        }
        default: break;
        }
        forEachChild(s, {.stmt = [&](const Stmt& c) { collectStmt(c); }});
    }

    // --- expression typing --------------------------------------------------

    [[noreturn]] void error(SourceLoc loc, const std::string& msg)
    {
        diags_.error(loc, msg);
        throw EclError(loc, msg);
    }

    void setType(const Expr& e, const Type* t)
    {
        (mod_ ? mod_->exprType : fn_->exprType)[&e] = t;
    }

    void setRef(const Expr& e, RefKind k)
    {
        (mod_ ? mod_->refKind : fn_->refKind)[&e] = k;
    }

    const VarInfo* lookupVar(const std::string& n)
    {
        auto& index = mod_ ? mod_->varIndex : fn_->varIndex;
        auto& vars = mod_ ? mod_->vars : fn_->vars;
        auto it = index.find(n);
        return it == index.end() ? nullptr : &vars[static_cast<std::size_t>(it->second)];
    }

    bool isLvalue(const Expr& e)
    {
        switch (e.kind) {
        case ExprKind::Ident: {
            auto& refs = mod_ ? mod_->refKind : fn_->refKind;
            auto it = refs.find(&e);
            return it != refs.end() && it->second == RefKind::Var;
        }
        case ExprKind::Index:
            return isLvalue(*static_cast<const IndexExpr&>(e).base);
        case ExprKind::Member:
            return isLvalue(*static_cast<const MemberExpr&>(e).base);
        default: return false;
        }
    }

    void checkAssignable(const Type* dst, const Type* src, SourceLoc loc)
    {
        if (dst->isScalar() && src->isScalar()) return;
        if (dst == src && dst->isAggregate()) return;
        if (dst->kind() == TypeKind::Array)
            error(loc, "array assignment is not supported; wrap the array "
                       "in a struct");
        error(loc, "incompatible types in assignment ('" + dst->name() +
                       "' from '" + src->name() + "')");
    }

    const Type* typeExpr(const Expr& e)
    {
        const Type* t = typeExprImpl(e);
        setType(e, t);
        return t;
    }

    const Type* typeExprImpl(const Expr& e)
    {
        switch (e.kind) {
        case ExprKind::IntLit: return prog_.types.intType();
        case ExprKind::BoolLit: return prog_.types.boolType();
        case ExprKind::Ident: {
            const auto& x = static_cast<const IdentExpr&>(e);
            if (const VarInfo* v = lookupVar(x.name)) {
                setRef(e, RefKind::Var);
                return v->type;
            }
            if (mod_) {
                if (const SignalInfo* s = mod_->findSignal(x.name)) {
                    if (s->pure)
                        error(e.loc, "pure signal '" + x.name +
                                         "' has no value; test it with "
                                         "present() instead");
                    setRef(e, RefKind::SignalValue);
                    return s->valueType;
                }
            }
            if (prog_.constants.count(x.name)) {
                setRef(e, RefKind::Constant);
                return prog_.types.intType();
            }
            error(e.loc, "unknown identifier '" + x.name + "'");
        }
        case ExprKind::Unary: {
            const auto& x = static_cast<const UnaryExpr&>(e);
            const Type* t = typeExpr(*x.operand);
            switch (x.op) {
            case UnaryOp::Plus:
            case UnaryOp::Minus:
                if (!t->isScalar())
                    error(e.loc, "unary +/- requires a scalar operand");
                return prog_.types.intType();
            case UnaryOp::Not:
                if (!t->isScalar())
                    error(e.loc, "'!' requires a scalar operand");
                return prog_.types.boolType();
            case UnaryOp::BitNot:
                if (!t->isScalar())
                    error(e.loc, "'~' requires a scalar operand");
                // The paper writes `if (~crc_ok)` on a bool: '~' on bool is
                // logical negation in ECL.
                return t->isBool() ? prog_.types.boolType()
                                   : prog_.types.intType();
            case UnaryOp::PreInc:
            case UnaryOp::PreDec:
            case UnaryOp::PostInc:
            case UnaryOp::PostDec:
                if (!isLvalue(*x.operand) || !t->isScalar())
                    error(e.loc, "++/-- requires a scalar variable");
                return t;
            }
            error(e.loc, "bad unary operator");
        }
        case ExprKind::Binary: {
            const auto& x = static_cast<const BinaryExpr&>(e);
            const Type* a = typeExpr(*x.lhs);
            const Type* b = typeExpr(*x.rhs);
            if (!a->isScalar() || !b->isScalar())
                error(e.loc, "binary operator requires scalar operands");
            switch (x.op) {
            case BinaryOp::Lt:
            case BinaryOp::Gt:
            case BinaryOp::Le:
            case BinaryOp::Ge:
            case BinaryOp::Eq:
            case BinaryOp::Ne:
            case BinaryOp::LogAnd:
            case BinaryOp::LogOr: return prog_.types.boolType();
            default: return prog_.types.intType();
            }
        }
        case ExprKind::Assign: {
            const auto& x = static_cast<const AssignExpr&>(e);
            const Type* dst = typeExpr(*x.lhs);
            const Type* src = typeExpr(*x.rhs);
            if (!isLvalue(*x.lhs))
                error(e.loc, "left side of assignment is not assignable "
                             "(signals are written with emit_v)");
            if (x.op != AssignOp::Plain &&
                (!dst->isScalar() || !src->isScalar()))
                error(e.loc, "compound assignment requires scalars");
            checkAssignable(dst, src, e.loc);
            return dst;
        }
        case ExprKind::Cond: {
            const auto& x = static_cast<const CondExpr&>(e);
            const Type* c = typeExpr(*x.cond);
            if (!c->isScalar()) error(e.loc, "condition must be scalar");
            const Type* a = typeExpr(*x.thenExpr);
            const Type* b = typeExpr(*x.elseExpr);
            if (a->isScalar() && b->isScalar()) return a;
            if (a == b) return a;
            error(e.loc, "incompatible branches in conditional expression");
        }
        case ExprKind::Index: {
            const auto& x = static_cast<const IndexExpr&>(e);
            const Type* base = typeExpr(*x.base);
            const Type* idx = typeExpr(*x.index);
            if (base->kind() != TypeKind::Array)
                error(e.loc, "indexing a non-array of type '" + base->name() +
                                 "'");
            if (!idx->isScalar()) error(e.loc, "array index must be scalar");
            return base->element();
        }
        case ExprKind::Member: {
            const auto& x = static_cast<const MemberExpr&>(e);
            const Type* base = typeExpr(*x.base);
            if (!base->isAggregate())
                error(e.loc, "member access on non-struct type '" +
                                 base->name() + "'");
            const Type::Field* f = base->findField(x.field);
            if (!f)
                error(e.loc, "no field '" + x.field + "' in '" +
                                 base->name() + "'");
            return f->type;
        }
        case ExprKind::Call: {
            const auto& x = static_cast<const CallExpr&>(e);
            if (x.callee == "__sizeof_expr") {
                typeExpr(*x.args[0]);
                setRef(e, RefKind::SizeofBuiltin);
                return prog_.types.intType();
            }
            if (const FunctionInfo* f = prog_.findFunction(x.callee)) {
                if (x.args.size() != f->params.size())
                    error(e.loc, "call to '" + x.callee + "' expects " +
                                     std::to_string(f->params.size()) +
                                     " arguments, got " +
                                     std::to_string(x.args.size()));
                for (std::size_t i = 0; i < x.args.size(); ++i) {
                    const Type* at = typeExpr(*x.args[i]);
                    const Type* pt = f->params[i].second;
                    if (at->isScalar() && pt->isScalar()) continue;
                    if (at == pt) continue;
                    error(x.args[i]->loc,
                          "argument " + std::to_string(i + 1) + " of '" +
                              x.callee + "' has incompatible type");
                }
                setRef(e, RefKind::FunctionCall);
                return f->returnType;
            }
            if (mod_ && prog_.program &&
                prog_.program->findModule(x.callee)) {
                // Module instantiations should have been inlined by the
                // elaborator before sema runs on a flat module.
                error(e.loc, "module instantiation '" + x.callee +
                                 "' survived elaboration (internal error or "
                                 "instantiation in expression position)");
            }
            error(e.loc, "call to unknown function '" + x.callee + "'");
        }
        case ExprKind::Cast: {
            const auto& x = static_cast<const CastExpr&>(e);
            const Type* dst = prog_.types.require(x.typeName, e.loc, diags_);
            const Type* src = typeExpr(*x.operand);
            if (dst->isScalar() && src->isScalar()) return dst;
            if (dst->isScalar() && src->kind() == TypeKind::Array &&
                src->size() <= 8 && src->element()->isScalar())
                return dst; // reinterpret little-endian (paper Figure 2)
            error(e.loc, "unsupported cast from '" + src->name() + "' to '" +
                             dst->name() + "'");
        }
        case ExprKind::SizeofType: {
            const auto& x = static_cast<const SizeofTypeExpr&>(e);
            prog_.types.require(x.typeName, e.loc, diags_);
            return prog_.types.intType();
        }
        }
        error(e.loc, "unknown expression kind");
    }

    // --- signal expressions --------------------------------------------------

    void checkSigExpr(const SigExpr& se)
    {
        if (!mod_) {
            error(se.loc, "signal expressions are only allowed in modules");
            return;
        }
        switch (se.kind) {
        case SigExprKind::Ref:
            if (!mod_->findSignal(se.name))
                error(se.loc, "unknown signal '" + se.name +
                                  "' in signal expression");
            return;
        case SigExprKind::Not: checkSigExpr(*se.lhs); return;
        case SigExprKind::And:
        case SigExprKind::Or:
            checkSigExpr(*se.lhs);
            checkSigExpr(*se.rhs);
            return;
        }
    }

    // --- statements ------------------------------------------------------------

    void requireModule(const Stmt& s, const char* what)
    {
        if (!mod_)
            error(s.loc, std::string(what) +
                             " is a reactive statement; it is not allowed "
                             "in C functions");
    }

    void checkStmt(const Stmt& s)
    {
        switch (s.kind) {
        case StmtKind::Block:
            for (const StmtPtr& st : static_cast<const BlockStmt&>(s).body)
                checkStmt(*st);
            return;
        case StmtKind::Decl: {
            const auto& x = static_cast<const DeclStmt&>(s);
            for (const Declarator& d : x.decls) {
                if (d.init) {
                    const Type* src = typeExpr(*d.init);
                    const VarInfo* v = lookupVar(d.name);
                    checkAssignable(v->type, src, d.loc);
                }
            }
            return;
        }
        case StmtKind::ExprStmt:
            typeExpr(*static_cast<const ExprStmt&>(s).expr);
            return;
        case StmtKind::If: {
            const auto& x = static_cast<const IfStmt&>(s);
            const Type* c = typeExpr(*x.cond);
            if (!c->isScalar()) error(s.loc, "if condition must be scalar");
            checkStmt(*x.thenStmt);
            if (x.elseStmt) checkStmt(*x.elseStmt);
            return;
        }
        case StmtKind::While: {
            const auto& x = static_cast<const WhileStmt&>(s);
            if (!typeExpr(*x.cond)->isScalar())
                error(s.loc, "while condition must be scalar");
            ++loopDepth_;
            checkStmt(*x.body);
            --loopDepth_;
            return;
        }
        case StmtKind::DoWhile: {
            const auto& x = static_cast<const DoWhileStmt&>(s);
            ++loopDepth_;
            checkStmt(*x.body);
            --loopDepth_;
            if (!typeExpr(*x.cond)->isScalar())
                error(s.loc, "do-while condition must be scalar");
            return;
        }
        case StmtKind::For: {
            const auto& x = static_cast<const ForStmt&>(s);
            if (x.init) checkStmt(*x.init);
            if (x.cond && !typeExpr(*x.cond)->isScalar())
                error(s.loc, "for condition must be scalar");
            if (x.step) typeExpr(*x.step);
            ++loopDepth_;
            checkStmt(*x.body);
            --loopDepth_;
            return;
        }
        case StmtKind::Break:
            if (loopDepth_ == 0)
                error(s.loc, "'break' outside of a loop (note: break cannot "
                             "cross a par boundary)");
            return;
        case StmtKind::Continue:
            if (loopDepth_ == 0)
                error(s.loc, "'continue' outside of a loop (note: continue "
                             "cannot cross a par boundary)");
            return;
        case StmtKind::Return: {
            const auto& x = static_cast<const ReturnStmt&>(s);
            if (mod_) error(s.loc, "'return' is not allowed in a module body");
            const Type* want = prog_.findFunction(fn_->decl->name)->returnType;
            if (x.value) {
                const Type* got = typeExpr(*x.value);
                checkAssignable(want, got, s.loc);
            } else if (!want->isVoid()) {
                error(s.loc, "non-void function must return a value");
            }
            return;
        }
        case StmtKind::Empty: return;
        case StmtKind::Await: {
            requireModule(s, "'await'");
            const auto& x = static_cast<const AwaitStmt&>(s);
            if (x.cond) checkSigExpr(*x.cond);
            return;
        }
        case StmtKind::Emit: {
            requireModule(s, "'emit'");
            const auto& x = static_cast<const EmitStmt&>(s);
            const SignalInfo* sig = mod_->findSignal(x.signal);
            if (!sig) error(s.loc, "emit of unknown signal '" + x.signal + "'");
            if (sig->dir == ecl::SignalDir::Input)
                error(s.loc, "cannot emit input signal '" + x.signal + "'");
            if (x.value) {
                if (sig->pure)
                    error(s.loc, "emit_v on pure signal '" + x.signal + "'");
                const Type* vt = typeExpr(*x.value);
                checkAssignable(sig->valueType, vt, s.loc);
            } else if (!sig->pure) {
                error(s.loc, "valued signal '" + x.signal +
                                 "' must be emitted with emit_v(sig, value)");
            }
            return;
        }
        case StmtKind::Halt: requireModule(s, "'halt'"); return;
        case StmtKind::Present: {
            requireModule(s, "'present'");
            const auto& x = static_cast<const PresentStmt&>(s);
            checkSigExpr(*x.cond);
            checkStmt(*x.thenStmt);
            if (x.elseStmt) checkStmt(*x.elseStmt);
            return;
        }
        case StmtKind::Abort: {
            requireModule(s, "'abort'");
            const auto& x = static_cast<const AbortStmt&>(s);
            checkSigExpr(*x.cond);
            checkStmt(*x.body);
            if (x.handler) checkStmt(*x.handler);
            return;
        }
        case StmtKind::Suspend: {
            requireModule(s, "'suspend'");
            const auto& x = static_cast<const SuspendStmt&>(s);
            checkSigExpr(*x.cond);
            checkStmt(*x.body);
            return;
        }
        case StmtKind::Par: {
            requireModule(s, "'par'");
            const auto& x = static_cast<const ParStmt&>(s);
            int save = loopDepth_;
            loopDepth_ = 0;
            for (const StmtPtr& b : x.branches) checkStmt(*b);
            loopDepth_ = save;
            return;
        }
        case StmtKind::SignalDecl: return; // collected earlier
        }
        error(s.loc, "unknown statement kind");
    }

    const ProgramSema& prog_;
    Diagnostics& diags_;
    ModuleSema* mod_;
    FunctionSema* fn_;
    int loopDepth_ = 0;
};

} // namespace

ModuleSema analyzeModule(const ModuleDecl& module,
                         const ProgramSema& programSema, Diagnostics& diags)
{
    ModuleSema sema;
    sema.name = module.name;
    sema.decl = &module;
    BodyChecker checker(programSema, diags, &sema, nullptr);
    checker.collectModule(module);
    checker.checkModuleBody(module);
    if (diags.hasErrors())
        throw EclError("semantic errors in module '" + module.name + "':\n" +
                       diags.formatAll());
    return sema;
}

FunctionSema analyzeFunction(const FunctionDecl& fn,
                             const ProgramSema& programSema,
                             Diagnostics& diags)
{
    FunctionSema sema;
    sema.decl = &fn;
    const FunctionInfo* info = programSema.findFunction(fn.name);
    if (!info) throw EclError(fn.loc, "function not registered: " + fn.name);
    BodyChecker checker(programSema, diags, nullptr, &sema);
    checker.collectFunction(fn, *info);
    checker.checkFunctionBody(fn);
    if (diags.hasErrors())
        throw EclError("semantic errors in function '" + fn.name + "':\n" +
                       diags.formatAll());
    return sema;
}

} // namespace ecl
