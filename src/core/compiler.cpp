#include "src/core/compiler.h"

#include "src/codegen/c_gen.h"
#include "src/frontend/parser.h"
#include "src/sema/elaborate.h"

namespace ecl {

CompiledModule::CompiledModule(std::shared_ptr<const SharedProgram> shared,
                               std::unique_ptr<ast::ModuleDecl> flat,
                               const CompileOptions& options,
                               Diagnostics& diags)
    : shared_(std::move(shared)), flat_(std::move(flat))
{
    sema_ = std::make_unique<ModuleSema>(
        analyzeModule(*flat_, shared_->sema, diags));
    // Sema caps each type; the instance they sum to is capped here.
    if (rt::computeInstanceLayout(*sema_).dataBytes > kMaxDataBytes) {
        const std::string msg = "module '" + flat_->name + "' holds more " +
                                "than " + std::to_string(kMaxDataBytes) +
                                " bytes of instance data";
        diags.error(flat_->loc, msg);
        throw EclError(flat_->loc, msg);
    }
    inputs_ = std::make_unique<rt::InputTable>(*sema_);
    reactive_ = std::make_unique<ir::ReactiveProgram>(
        lowerModule(*flat_, *sema_, diags, &lowerStats_));
    machine_ = std::make_unique<efsm::Efsm>(
        buildEfsm(*reactive_, *sema_, diags, options.efsm));

    // Flatten the decision trees and compile every data predicate, data
    // action and emit-value expression to bytecode, then run the
    // post-flatten optimization pipeline (src/opt) at options.optLevel.
    // Every backend runs these tables, so a failure fails the compile.
    try {
        auto fp = std::make_unique<efsm::FlatProgram>(
            efsm::flatten(*machine_));
        bc::ProgramBuilder builder(shared_->sema, shared_->functions,
                                   *sema_);
        for (efsm::FlatNode& n : fp->nodes)
            if (n.dataCond) n.predChunk = builder.compileExpr(*n.dataCond);
        for (efsm::FlatAction& a : fp->actions) {
            if (a.kind == efsm::FlatAction::Kind::Emit) {
                if (a.valueExpr) a.chunk = builder.compileExpr(*a.valueExpr);
                continue;
            }
            const ir::DataAction& da =
                reactive_->actions[static_cast<std::size_t>(a.dataActionId)];
            if (da.stmt)
                a.chunk = builder.compileStmt(*da.stmt);
            else if (da.expr)
                a.chunk = builder.compileExpr(*da.expr);
        }
        std::shared_ptr<bc::Program> code = builder.finish();
        optStats_ = opt::optimize(*fp, *code, options.optLevel);
        byteCode_ = std::move(code);
        flatProgram_ = std::move(fp);
    } catch (const EclError& e) {
        throw EclError("flat tables for module '" + flat_->name +
                       "': " + e.what());
    }
}

std::shared_ptr<const rt::NativeModule> CompiledModule::nativeOrNull() const
{
    std::lock_guard<std::mutex> lock(nativeMutex_);
    if (!nativeTried_) {
        nativeTried_ = true;
        try {
            auto native =
                rt::NativeModule::build(codegen::generateC(*this), name());
            rt::validateNativeShape(native->info(), *sema_, *flatProgram_,
                                    rt::computeInstanceLayout(*sema_));
            nativeModule_ = std::move(native);
        } catch (const EclError& e) {
            nativeError_ = e.what();
        }
    }
    return nativeModule_;
}

std::shared_ptr<const rt::NativeModule> CompiledModule::nativeModule() const
{
    auto native = nativeOrNull();
    if (!native) throw EclError(nativeError_);
    return native;
}

std::unique_ptr<rt::ReactiveEngine>
CompiledModule::makeEngine(EngineKind kind) const
{
    std::unique_ptr<rt::ReactiveEngine> engine;
    auto native = kind == EngineKind::Native ? nativeOrNull() : nullptr;
    if (native) {
        engine = std::make_unique<rt::NativeEngine>(*sema_, *flatProgram_,
                                                    std::move(native));
    } else if (kind == EngineKind::TreeWalk) {
        engine = std::make_unique<rt::TreeWalkEngine>(
            *machine_, *sema_, shared_->sema, shared_->functions);
    } else {
        engine = std::make_unique<rt::SyncEngine>(*sema_, *flatProgram_,
                                                  byteCode_);
    }
    // Keep this module alive while the engine exists (compile() hands out
    // shared_ptrs; stack-constructed modules simply skip the retain).
    if (auto self = weak_from_this().lock()) engine->retain(self);
    return engine;
}

std::unique_ptr<rt::BatchEngine>
CompiledModule::makeBatchEngine(std::size_t instances,
                                rt::BatchOptions options,
                                EngineKind kind) const
{
    if (kind == EngineKind::TreeWalk)
        throw EclError("makeBatchEngine: the batch runtime is arena-based; "
                       "EngineKind::TreeWalk has no batch backend");
    auto engine = std::make_unique<rt::BatchEngine>(
        *flatProgram_, byteCode_, *sema_, *inputs_, instances, options,
        kind == EngineKind::Native ? nativeOrNull() : nullptr);
    if (auto self = weak_from_this().lock()) engine->retain(self);
    return engine;
}

std::unique_ptr<verify::Explorer>
CompiledModule::makeExplorer(verify::ExplorerOptions options) const
{
    auto native = options.nativeSuccessors ? nativeOrNull() : nullptr;
    auto explorer = std::make_unique<verify::Explorer>(
        *flatProgram_, byteCode_, *sema_, std::move(options),
        std::move(native));
    if (auto self = weak_from_this().lock()) explorer->retain(self);
    return explorer;
}

void CompiledModule::attachAsMonitor(verify::Explorer& explorer) const
{
    explorer.attachMonitor(*flatProgram_, byteCode_, *sema_,
                           weak_from_this().lock());
}

std::unique_ptr<rt::RcEngine> CompiledModule::makeBaselineEngine() const
{
    auto engine = std::make_unique<rt::RcEngine>(
        *reactive_, *sema_, shared_->sema, shared_->functions);
    if (auto self = weak_from_this().lock()) engine->retain(self);
    return engine;
}

Compiler::Compiler(const std::string& source)
{
    shared_ = std::make_shared<SharedProgram>();
    shared_->program = parseEcl(source, diags_);
    shared_->sema = analyzeProgramDecls(shared_->program, diags_);
    // ProgramSema::program points at the pre-move AST; fix it up to the
    // final location inside the shared struct.
    shared_->sema.program = &shared_->program;
    for (const ast::TopDeclPtr& d : shared_->program.decls) {
        if (d->kind != ast::DeclKind::Function) continue;
        const auto& fn = static_cast<const ast::FunctionDecl&>(*d);
        shared_->functions.emplace(
            fn.name, analyzeFunction(fn, shared_->sema, diags_));
    }
}

std::shared_ptr<CompiledModule> Compiler::compile(const std::string& topName,
                                                  const CompileOptions& options)
{
    // Each compile reports into its own Diagnostics, whose errors alone
    // decide it, so one failed compile does not fail the next; all of them
    // end up in diags_.
    Diagnostics diags;
    try {
        std::unique_ptr<ast::ModuleDecl> flat =
            elaborate(shared_->program, shared_->sema, topName, diags);
        auto mod = std::make_shared<CompiledModule>(shared_, std::move(flat),
                                                    options, diags);
        diags_.append(diags);
        return mod;
    } catch (...) {
        diags_.append(diags);
        throw;
    }
}

std::vector<std::string> Compiler::moduleNames() const
{
    std::vector<std::string> out;
    for (const ast::TopDeclPtr& d : shared_->program.decls)
        if (d->kind == ast::DeclKind::Module)
            out.push_back(static_cast<const ast::ModuleDecl&>(*d).name);
    return out;
}

} // namespace ecl
