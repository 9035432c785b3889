// AOT native backend harness: compile the generated C, dlopen it, and
// run it behind the common ReactiveEngine interface.
//
// NativeModule::build() takes the translation unit emitted by
// codegen::generateC(), runs a host C compiler on it ($CC if set, split
// on whitespace, else the first of cc/gcc/clang that works) as a child
// process from an argument vector, with no shell in between, caches the
// shared object by a hash of source, compiler and flags
// (ECL_NATIVE_CACHE_DIR, default a directory under the system temp dir,
// write-then-rename so concurrent builds are safe), loads it with dlopen
// and resolves `ecl_module_info` + `ecl_native_react`. Every failure
// mode — ECL_NATIVE_DISABLE set, no working compiler, compile error, ABI
// version mismatch — throws EclError; CompiledModule's one native
// fallback point catches that, memoizes the reason
// (CompiledModule::nativeModule() rethrows it) and hands makeEngine,
// makeBatchEngine and makeExplorer the bytecode VM.
//
// NativeEngine is the ArenaEngine built over a loaded module: its
// rt::Reactor calls the kernel's one native call, rt::reactNative
// (src/runtime/flat_kernel.h), where the VM-backed SyncEngine's walks
// the tables, so the two share input staging, presence snapshots,
// output reads, packed state and their error strings, and are
// differentially testable down to trap messages.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/efsm/flatten.h"
#include "src/runtime/engine.h"
#include "src/runtime/flat_kernel.h"
#include "src/runtime/instance_layout.h"
#include "src/runtime/native_abi.h"
#include "src/sema/sema.h"

namespace ecl::rt {

class NativeModule {
public:
    /// Compiles + loads `cSource`; throws EclError when the native
    /// backend is unavailable (see file comment). `moduleName` only
    /// names cache artifacts and error messages.
    static std::shared_ptr<const NativeModule>
    build(const std::string& cSource, const std::string& moduleName);

    NativeModule(const NativeModule&) = delete;
    NativeModule& operator=(const NativeModule&) = delete;
    ~NativeModule();

    [[nodiscard]] const EclNativeInfo& info() const { return *info_; }
    [[nodiscard]] EclNativeReactFn react() const { return react_; }
    /// The cached shared object backing this module (diagnostics).
    [[nodiscard]] const std::string& objectPath() const { return soPath_; }
    /// The compiler command that produced it ("" on a cache hit).
    [[nodiscard]] const std::string& compiler() const { return compiler_; }

private:
    NativeModule() = default;

    void* handle_ = nullptr;
    const EclNativeInfo* info_ = nullptr;
    EclNativeReactFn react_ = nullptr;
    std::string soPath_;
    std::string compiler_;
};

/// Validates a loaded module's shape record against the host tables it
/// is about to run over (data layout, signal/state counts, initial
/// state, output-ring capacity); throws EclError on any mismatch (stale
/// cache, wrong flat tables). Called by CompiledModule's native fallback
/// point and by every rt::Reactor built on a native module, so each
/// rejects a mismatched module the same way.
void validateNativeShape(const EclNativeInfo& info, const ModuleSema& sema,
                         const efsm::FlatProgram& flat,
                         const InstanceLayout& layout);

/// The native-backed ArenaEngine's name: ArenaEngine(sema, flat, native).
using NativeEngine = ArenaEngine;

} // namespace ecl::rt
