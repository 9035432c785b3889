#include "src/runtime/native_module.h"

#include <dlfcn.h>
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/support/strings.h"

namespace ecl::rt {

namespace fs = std::filesystem;

namespace {

// The object links no default libraries: the few libc symbols the
// generated C uses (setjmp/longjmp, snprintf, memcpy) resolve against the
// host process at dlopen(RTLD_NOW), which rejects any that do not.
constexpr const char* kCompileFlags = "-std=c99 -O2 -fPIC -shared";
constexpr const char* kLinkFlags = "-nodefaultlibs -lgcc";

std::vector<std::string> splitWords(const std::string& s)
{
    std::vector<std::string> words;
    std::istringstream is(s);
    for (std::string w; is >> w;) words.push_back(std::move(w));
    return words;
}

/// Runs `argv` (its first word looked up on PATH) with stderr on
/// `logPath`; returns how it failed, or "" when it exited 0.
std::string runCompiler(std::vector<std::string> argv, const fs::path& logPath)
{
    std::vector<char*> args;
    for (std::string& a : argv) args.push_back(a.data());
    args.push_back(nullptr);
    posix_spawn_file_actions_t files;
    posix_spawn_file_actions_init(&files);
    posix_spawn_file_actions_addopen(&files, STDERR_FILENO, logPath.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    pid_t pid = 0;
    int status = 0;
    int err =
        posix_spawnp(&pid, args[0], &files, nullptr, args.data(), environ);
    posix_spawn_file_actions_destroy(&files);
    while (err == 0 && ::waitpid(pid, &status, 0) < 0)
        if (errno != EINTR) err = errno;
    if (err != 0) return std::strerror(err);
    if (WIFSIGNALED(status))
        return "signal " + std::to_string(WTERMSIG(status));
    return status == 0 ? "" : "exit " + std::to_string(WEXITSTATUS(status));
}

std::string readLogTail(const fs::path& log)
{
    std::ifstream is(log);
    if (!is) return {};
    std::stringstream ss;
    ss << is.rdbuf();
    std::string text = ss.str();
    if (text.size() > 512) text = "..." + text.substr(text.size() - 512);
    return text;
}

} // namespace

// ---------------------------------------------------------------------------
// NativeModule
// ---------------------------------------------------------------------------

std::shared_ptr<const NativeModule>
NativeModule::build(const std::string& cSource, const std::string& moduleName)
{
    if (const char* off = std::getenv("ECL_NATIVE_DISABLE");
        off && *off)
        throw EclError("native backend disabled via ECL_NATIVE_DISABLE");

    std::vector<std::string> candidates;
    if (const char* cc = std::getenv("CC"); cc && *cc)
        candidates = {cc}; // $CC is authoritative: no silent substitute.
    else
        candidates = {"cc", "gcc", "clang"};

    fs::path cacheDir;
    if (const char* dir = std::getenv("ECL_NATIVE_CACHE_DIR"); dir && *dir)
        cacheDir = dir;
    else
        cacheDir = fs::temp_directory_path() / "ecl-native-cache";
    std::error_code ec;
    fs::create_directories(cacheDir, ec);
    if (ec)
        throw EclError("native backend: cannot create cache dir '" +
                       cacheDir.string() + "': " + ec.message());

    auto mod = std::shared_ptr<NativeModule>(new NativeModule());
    std::string firstError;
    fs::path soPath;
    for (const std::string& compiler : candidates) {
        // The whole build command is part of the cache key: different
        // compilers or flags may produce ABI-identical but byte-different
        // objects, and a failed $CC must never hit a cache entry a working
        // cc produced.
        std::uint64_t h = fnv1a64(cSource + '\0' + compiler + '\0' +
                                  kCompileFlags + '\0' + kLinkFlags);
        fs::path base =
            cacheDir / ("ecl_" + moduleName + "_" + hex64(h));
        soPath = base;
        soPath += ".so";
        if (fs::exists(soPath)) {
            mod->compiler_.clear(); // Cache hit.
            break;
        }

        fs::path cPath = base;
        cPath += ".c";
        fs::path logPath = base;
        logPath += ".log";
        {
            std::ofstream os(cPath, std::ios::binary | std::ios::trunc);
            os << cSource;
            if (!os)
                throw EclError("native backend: cannot write '" +
                               cPath.string() + "'");
        }
        // Write-then-rename: concurrent builders race benignly.
        fs::path tmp = soPath;
        tmp += ".tmp" + std::to_string(static_cast<long>(::getpid()));
        // $CC may carry words of its own ("ccache gcc"); paths go in
        // as single arguments, whatever they hold.
        std::vector<std::string> argv =
            splitWords(compiler + ' ' + kCompileFlags + " -o");
        argv.push_back(tmp.string());
        argv.push_back(cPath.string());
        for (std::string& w : splitWords(kLinkFlags))
            argv.push_back(std::move(w));
        const std::string failure = runCompiler(std::move(argv), logPath);
        if (failure.empty() && fs::exists(tmp)) {
            fs::rename(tmp, soPath, ec);
            if (ec && !fs::exists(soPath))
                throw EclError("native backend: rename failed: " +
                               ec.message());
            mod->compiler_ = compiler;
            break;
        }
        fs::remove(tmp, ec);
        if (firstError.empty()) {
            firstError = "'" + compiler + "' failed (" +
                         (failure.empty() ? "no output" : failure) + ")";
            std::string tail = readLogTail(logPath);
            if (!tail.empty()) firstError += ": " + tail;
        }
        soPath.clear();
    }
    if (soPath.empty())
        throw EclError("native backend: no working C compiler for module '" +
                       moduleName + "': " + firstError);

    mod->soPath_ = soPath.string();
    mod->handle_ = ::dlopen(mod->soPath_.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (!mod->handle_) {
        const char* err = ::dlerror();
        throw EclError("native backend: dlopen('" + mod->soPath_ +
                       "') failed: " + (err ? err : "unknown error"));
    }
    mod->info_ = static_cast<const EclNativeInfo*>(
        ::dlsym(mod->handle_, "ecl_module_info"));
    mod->react_ = reinterpret_cast<EclNativeReactFn>(
        ::dlsym(mod->handle_, "ecl_native_react"));
    if (!mod->info_ || !mod->react_)
        throw EclError("native backend: '" + mod->soPath_ +
                       "' lacks the ecl_module_info/ecl_native_react "
                       "symbols");
    if (mod->info_->abi_version != kEclNativeAbiVersion)
        throw EclError("native backend: ABI version " +
                       std::to_string(mod->info_->abi_version) +
                       " in '" + mod->soPath_ + "', host expects " +
                       std::to_string(kEclNativeAbiVersion));
    return mod;
}

NativeModule::~NativeModule()
{
    if (handle_) ::dlclose(handle_);
}

void validateNativeShape(const EclNativeInfo& info, const ModuleSema& sema,
                         const efsm::FlatProgram& flat,
                         const InstanceLayout& layout)
{
    if (info.data_bytes != layout.dataBytes ||
        info.signals != sema.signals.size() ||
        info.states != flat.states.size() ||
        info.initial_state != flat.initialState ||
        info.max_emits != flat.outputRingSlots())
        throw EclError(std::string("native backend: module '") +
                       (info.module_name ? info.module_name : "?") +
                       "' shape does not match this compile (stale cache "
                       "or wrong flat tables)");
}

} // namespace ecl::rt
