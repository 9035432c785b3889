// Semantic analysis tests: type layout (incl. unions), constants, module
// signal/variable tables, type checking, ECL-specific rules, elaboration.
#include <gtest/gtest.h>

#include "src/frontend/parser.h"
#include "src/sema/elaborate.h"
#include "src/sema/sema.h"

namespace {

using namespace ecl;

struct Analyzed {
    ast::Program program;
    ProgramSema sema;
    Diagnostics diags;
};

std::unique_ptr<Analyzed> analyze(const std::string& src)
{
    auto out = std::make_unique<Analyzed>();
    out->program = parseEcl(src, out->diags);
    out->sema = analyzeProgramDecls(out->program, out->diags);
    out->sema.program = &out->program;
    return out;
}

ModuleSema analyzeFlat(Analyzed& a, const std::string& name)
{
    auto flat = elaborate(a.program, a.sema, name, a.diags);
    ModuleSema ms = analyzeModule(*flat, a.sema, a.diags);
    // NOTE: tests only inspect tables that don't dangle into `flat`.
    ms.decl = nullptr;
    return ms;
}

void expectSemaError(const std::string& src, const std::string& fragment,
                     const std::string& module = "")
{
    try {
        auto a = analyze(src);
        for (const ast::TopDeclPtr& d : a->program.decls)
            if (d->kind == ast::DeclKind::Function)
                analyzeFunction(static_cast<const ast::FunctionDecl&>(*d),
                                a->sema, a->diags);
        if (!module.empty()) {
            auto flat = elaborate(a->program, a->sema, module, a->diags);
            analyzeModule(*flat, a->sema, a->diags);
        }
        FAIL() << "expected error containing '" << fragment << "'";
    } catch (const EclError& e) {
        EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
            << e.what();
    }
}

// --- types and layout --------------------------------------------------------

TEST(TypeLayoutTest, ScalarSizes)
{
    TypeTable t;
    EXPECT_EQ(t.boolType()->size(), 1u);
    EXPECT_EQ(t.charType()->size(), 1u);
    EXPECT_EQ(t.ucharType()->size(), 1u);
    EXPECT_EQ(t.shortType()->size(), 2u);
    EXPECT_EQ(t.intType()->size(), 4u);
    EXPECT_EQ(t.uintType()->size(), 4u);
    EXPECT_TRUE(t.charType()->isSigned());
    EXPECT_FALSE(t.ucharType()->isSigned());
    EXPECT_EQ(t.lookup("long"), t.intType()); // MIPS32 model
}

TEST(TypeLayoutTest, PacketLayoutFromPaper)
{
    auto a = analyze(R"(
#define HDRSIZE 6
#define DATASIZE 56
#define CRCSIZE 2
#define PKTSIZE HDRSIZE+DATASIZE+CRCSIZE
typedef unsigned char byte;
typedef struct { byte packet[PKTSIZE]; } packet_view_1_t;
typedef struct { byte header[HDRSIZE]; byte data[DATASIZE]; byte crc[CRCSIZE]; } packet_view_2_t;
typedef union { packet_view_1_t raw; packet_view_2_t cooked; } packet_t;
)");
    const Type* pkt = a->sema.types.lookup("packet_t");
    ASSERT_NE(pkt, nullptr);
    EXPECT_EQ(pkt->kind(), TypeKind::Union);
    EXPECT_EQ(pkt->size(), 64u);
    const Type* v2 = a->sema.types.lookup("packet_view_2_t");
    EXPECT_EQ(v2->findField("header")->offset, 0u);
    EXPECT_EQ(v2->findField("data")->offset, 6u);
    EXPECT_EQ(v2->findField("crc")->offset, 62u);
    // Union views both start at offset 0.
    EXPECT_EQ(pkt->findField("raw")->offset, 0u);
    EXPECT_EQ(pkt->findField("cooked")->offset, 0u);
}

TEST(TypeLayoutTest, ArrayCanonicalization)
{
    TypeTable t;
    Diagnostics diags;
    const Type* a1 = t.arrayOf(t.intType(), 4, {}, diags);
    const Type* a2 = t.arrayOf(t.intType(), 4, {}, diags);
    EXPECT_EQ(a1, a2);
    EXPECT_EQ(a1->size(), 16u);
}

TEST(TypeLayoutTest, NestedArrays)
{
    auto a = analyze("typedef unsigned char byte;\n"
                     "typedef struct { byte m[2][3]; } mat_t;");
    const Type* m = a->sema.types.lookup("mat_t")->findField("m")->type;
    EXPECT_EQ(m->count(), 2u);
    EXPECT_EQ(m->element()->count(), 3u);
    EXPECT_EQ(m->size(), 6u);
}

TEST(TypeLayoutTest, DuplicateFieldRejected)
{
    expectSemaError("typedef struct { int a; int a; } t;", "duplicate field");
}

TEST(TypeLayoutTest, TypesPastTheDataCapRejected)
{
    // 2^32 x 2^32 ints: the inner dimension alone is 16 GiB.
    expectSemaError("module m (input int v, output int o) {\n"
                    "  int a[4294967296][4294967296];\n"
                    "  while (1) { await (v); emit_v (o, a[v & 1023][7]); }\n"
                    "}\n",
                    "2:7: type 'int[4294967296]' is larger than 268435456 "
                    "bytes",
                    "m");
    expectSemaError("module m (input pure a) { int a0[2147483647]; }",
                    "type 'int[2147483647]' is larger than", "m");
    // Fields of 128 MiB each sum past the cap.
    expectSemaError("typedef struct { char x[134217728]; char y[134217728];"
                    " char z; } big_t;",
                    "type 'big_t' is larger than 268435456 bytes");
    expectSemaError("typedef int neg_t[-1];",
                    "array dimension must be positive");
}

TEST(TypeLayoutTest, TypesUpToTheDataCapAccepted)
{
    auto a = analyze("typedef struct { char x[134217728]; char y[134217728]; }"
                     " big_t;\n"
                     "module m (input pure p) { int a[1048576]; }");
    EXPECT_EQ(a->sema.types.lookup("big_t")->size(), kMaxDataBytes);
    EXPECT_EQ(analyzeFlat(*a, "m").vars.front().type->size(), 4u << 20);
    EXPECT_FALSE(a->diags.hasErrors());
}

// --- constants ---------------------------------------------------------------

TEST(ConstantsTest, ConstGlobalsAndSizeof)
{
    auto a = analyze("typedef struct { int x; int y; } pt;\n"
                     "const int A = 3 * 4;\n"
                     "const int B = A + sizeof(pt);\n"
                     "const int C = A > 10 ? 1 : 2;");
    EXPECT_EQ(a->sema.constants.at("A"), 12);
    EXPECT_EQ(a->sema.constants.at("B"), 20);
    EXPECT_EQ(a->sema.constants.at("C"), 1);
}

TEST(ConstantsTest, NonConstGlobalRejected)
{
    expectSemaError("int g;", "must be 'const'");
}

TEST(ConstantsTest, DivisionByZeroRejected)
{
    expectSemaError("const int A = 1 / 0;", "division by zero");
}

TEST(ConstantsTest, ProgramLevelRejectionsThrowTheRecordedText)
{
    // What eclc prints (the thrown text) is the whole diagnostic, reason
    // and name included.
    const std::pair<const char*, const char*> cases[] = {
        {"const int A[2] = 1;",
         "const arrays at file scope are not supported; use #define "
         "tables or locals"},
        {"const int B;", "const 'B' needs an initializer"},
        {"int f(int x) { return x; }\nint f(int y) { return y; }",
         "redefinition of function 'f'"},
        {"int g;",
         "file-scope variables must be 'const' in ECL (Esterel scoping; "
         "see paper Section 3)"},
    };
    for (const auto& [src, text] : cases) {
        Diagnostics diags;
        ast::Program program = parseEcl(src, diags);
        ASSERT_FALSE(diags.hasErrors()) << src;
        try {
            analyzeProgramDecls(program, diags);
            ADD_FAILURE() << "accepted: " << src;
        } catch (const EclError& e) {
            ASSERT_EQ(diags.all().size(), 1u) << src;
            const Diagnostic& d = diags.all()[0];
            EXPECT_EQ(d.message, text) << src;
            EXPECT_EQ(std::string(e.what()), to_string(d.loc) + ": " + text);
        }
    }
}

// --- module analysis -----------------------------------------------------------

TEST(ModuleSemaTest, SignalAndVarTables)
{
    auto a = analyze(R"(
typedef unsigned char byte;
module m (input pure reset, input byte b, output bool ok)
{
    signal pure k;
    int n;
    byte buf[4];
    await (b);
    emit_v (ok, n > 0);
    emit (k);
    halt ();
})");
    ModuleSema ms = analyzeFlat(*a, "m");
    ASSERT_EQ(ms.signals.size(), 4u);
    EXPECT_EQ(ms.signals[0].name, "reset");
    EXPECT_EQ(ms.signals[0].dir, SignalDir::Input);
    EXPECT_TRUE(ms.signals[0].pure);
    EXPECT_EQ(ms.signals[1].valueType->size(), 1u);
    EXPECT_EQ(ms.signals[2].dir, SignalDir::Output);
    EXPECT_EQ(ms.signals[3].dir, SignalDir::Local);
    ASSERT_EQ(ms.vars.size(), 2u);
    EXPECT_EQ(ms.vars[1].type->size(), 4u);
}

TEST(ModuleSemaTest, PureSignalValueReadRejected)
{
    expectSemaError(
        "module m (input pure a, output int o) { emit_v (o, a); }",
        "has no value", "m");
}

TEST(ModuleSemaTest, EmitInputRejected)
{
    expectSemaError("module m (input pure a) { emit (a); }",
                    "cannot emit input", "m");
}

TEST(ModuleSemaTest, EmitValueOnPureRejected)
{
    expectSemaError("module m (output pure o) { emit_v (o, 1); }",
                    "emit_v on pure", "m");
}

TEST(ModuleSemaTest, ValuedEmitWithoutValueRejected)
{
    expectSemaError("module m (output int o) { emit (o); }",
                    "must be emitted with emit_v", "m");
}

TEST(ModuleSemaTest, ShadowingRejected)
{
    expectSemaError("module m (input pure a) { int n; { int n; } halt(); }",
                    "forbids shadowing", "m");
}

TEST(ModuleSemaTest, SignalVarCollisionRejected)
{
    expectSemaError("module m (input int a) { int a; halt(); }",
                    "duplicate", "m");
}

TEST(ModuleSemaTest, AssignToSignalRejected)
{
    expectSemaError("module m (input int a) { a = 3; }",
                    "not assignable", "m");
}

TEST(ModuleSemaTest, ReturnInModuleRejected)
{
    expectSemaError("module m (input pure a) { return; }",
                    "not allowed in a module", "m");
}

TEST(ModuleSemaTest, BreakOutsideLoopRejected)
{
    expectSemaError("module m (input pure a) { break; }",
                    "outside of a loop", "m");
}

TEST(ModuleSemaTest, BreakAcrossParRejected)
{
    expectSemaError("module m (input pure a) {"
                    " while (1) { par { { break; } } } }",
                    "outside of a loop", "m");
}

TEST(ModuleSemaTest, UnknownSignalInGuard)
{
    expectSemaError("module m (input pure a) { await (nosuch); }",
                    "unknown signal", "m");
}

TEST(ModuleSemaTest, ArrayAssignmentRejected)
{
    expectSemaError("typedef unsigned char byte;\n"
                    "module m (input pure a) { byte x[4]; byte y[4];"
                    " x = y; halt(); }",
                    "array assignment", "m");
}

TEST(ModuleSemaTest, AggregateAssignmentAllowed)
{
    auto a = analyze("typedef struct { int v[2]; } box_t;\n"
                     "module m (input box_t in, output box_t out) {"
                     " box_t tmp; await (in); tmp = in;"
                     " emit_v (out, tmp); halt(); }");
    ModuleSema ms = analyzeFlat(*a, "m");
    SUCCEED();
}

TEST(ModuleSemaTest, BitNotOnBoolTypesAsBool)
{
    auto a = analyze("module m (input bool c, output pure o) {"
                     " await (c); if (~c) emit (o); halt(); }");
    auto flat = elaborate(a->program, a->sema, "m", a->diags);
    ModuleSema ms = analyzeModule(*flat, a->sema, a->diags);
    // find the unary expr type: scan exprType for a bool-typed unary
    bool found = false;
    for (const auto& [expr, type] : ms.exprType) {
        if (expr->kind == ast::ExprKind::Unary &&
            static_cast<const ast::UnaryExpr*>(expr)->op ==
                ast::UnaryOp::BitNot) {
            EXPECT_TRUE(type->isBool());
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

// --- functions ----------------------------------------------------------------

TEST(FunctionSemaTest, ReactiveInFunctionRejected)
{
    expectSemaError("void f(void) { halt(); }", "not allowed in C functions");
}

TEST(FunctionSemaTest, ReturnTypeChecked)
{
    expectSemaError("typedef struct { int a; } s_t;\n"
                    "int f(void) { s_t s; return s; }",
                    "incompatible types");
}

TEST(FunctionSemaTest, MissingReturnValueRejected)
{
    expectSemaError("int f(void) { return; }", "must return a value");
}

TEST(FunctionSemaTest, CallArityChecked)
{
    expectSemaError("int f(int a) { return a; }\n"
                    "module m (output int o) { emit_v (o, f(1, 2)); }",
                    "expects 1 arguments", "m");
}

// --- elaboration ----------------------------------------------------------------

TEST(ElaborateTest, InlinesAndRenames)
{
    auto a = analyze(R"(
module leaf (input pure t, output pure d)
{
    int n;
    await (t);
    n = 1;
    emit (d);
}
module top (input pure tick, output pure done)
{
    par {
        leaf (tick, done);
        leaf (tick, done);
    }
})");
    auto flat = elaborate(a->program, a->sema, "top", a->diags);
    ModuleSema ms = analyzeModule(*flat, a->sema, a->diags);
    // Two instances: two renamed copies of n.
    EXPECT_EQ(ms.vars.size(), 2u);
    EXPECT_NE(ms.vars[0].name, ms.vars[1].name);
    // Formals were substituted: no 't'/'d' signals at top level.
    EXPECT_EQ(ms.findSignal("t"), nullptr);
    EXPECT_NE(ms.findSignal("tick"), nullptr);
}

TEST(ElaborateTest, RecursionRejected)
{
    expectSemaError("module a (input pure t) { a (t); }",
                    "recursive instantiation", "a");
}

TEST(ElaborateTest, ArityChecked)
{
    expectSemaError("module leaf (input pure t) { halt(); }\n"
                    "module top (input pure x) { leaf (x, x); }",
                    "expects 1 signals", "top");
}

TEST(ElaborateTest, PureValuedMismatchRejected)
{
    expectSemaError("module leaf (input int t) { halt(); }\n"
                    "module top (input pure x) { leaf (x); }",
                    "pure/valued mismatch", "top");
}

TEST(ElaborateTest, OutputCannotDriveEnclosingInput)
{
    expectSemaError("module leaf (output pure o) { emit (o); }\n"
                    "module top (input pure x) { leaf (x); }",
                    "cannot drive enclosing input", "top");
}

TEST(ElaborateTest, SignalTypeMismatchRejected)
{
    expectSemaError("module leaf (input int t) { halt(); }\n"
                    "module top (input bool x) { leaf (x); }",
                    "type mismatch", "top");
}

TEST(ElaborateTest, ActualMustBeSignal)
{
    expectSemaError("module leaf (input int t) { halt(); }\n"
                    "module top (input int x) { int v; leaf (v); }",
                    "not a signal", "top");
}

TEST(ElaborateTest, InstantiationInForInitializerRejected)
{
    // Plain and comma-list initializers: the elaborator reports the
    // instantiation where it stands, rather than sema blaming an internal
    // error for an instantiation that survived.
    for (const std::string init : {"leaf (a)", "i = 0, leaf (a)"}) {
        const std::string top = "module top (input pure a) { int i; for (" +
                                init + "; i < 1; i++) { } }";
        const std::string where =
            "2:" + std::to_string(top.find("leaf") + 1) + ": ";
        auto a = analyze("module leaf (input pure t) { halt(); }\n" + top);
        try {
            (void)elaborate(a->program, a->sema, "top", a->diags);
            ADD_FAILURE() << "accepted: " << init;
        } catch (const EclError& e) {
            EXPECT_EQ(std::string(e.what()),
                      where + "module instantiation 'leaf' is not allowed "
                              "in a for initializer");
        }
    }
}

TEST(ElaborateTest, NestedInstantiation)
{
    auto a = analyze(R"(
module inner (input pure t, output pure d) { await (t); emit (d); }
module middle (input pure t, output pure d) { inner (t, d); }
module outer (input pure t, output pure d) { middle (t, d); }
)");
    auto flat = elaborate(a->program, a->sema, "outer", a->diags);
    ModuleSema ms = analyzeModule(*flat, a->sema, a->diags);
    EXPECT_NE(ms.findSignal("t"), nullptr);
}

} // namespace
