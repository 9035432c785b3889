#include "src/sema/types.h"

#include <algorithm>

namespace ecl {

const Type::Field* Type::findField(const std::string& n) const
{
    for (const Field& f : fields_)
        if (f.name == n) return &f;
    return nullptr;
}

TypeTable::TypeTable()
{
    void_ = addScalar(TypeKind::Void, "void", 0, false);
    bool_ = addScalar(TypeKind::Bool, "bool", 1, false);
    char_ = addScalar(TypeKind::Int, "char", 1, true);
    uchar_ = addScalar(TypeKind::Int, "unsigned char", 1, false);
    short_ = addScalar(TypeKind::Int, "short", 2, true);
    ushort_ = addScalar(TypeKind::Int, "unsigned short", 2, false);
    int_ = addScalar(TypeKind::Int, "int", 4, true);
    uint_ = addScalar(TypeKind::Int, "unsigned int", 4, false);

    names_["void"] = void_;
    names_["bool"] = bool_;
    names_["char"] = char_;
    names_["unsigned char"] = uchar_;
    names_["short"] = short_;
    names_["unsigned short"] = ushort_;
    names_["int"] = int_;
    names_["unsigned int"] = uint_;
    // MIPS32 model: long is 4 bytes.
    names_["long"] = int_;
    names_["unsigned long"] = uint_;
}

const Type* TypeTable::addScalar(TypeKind k, std::string name,
                                 std::size_t size, bool isSigned)
{
    auto t = std::unique_ptr<Type>(new Type());
    t->kind_ = k;
    t->name_ = std::move(name);
    t->size_ = size;
    t->isSigned_ = isSigned;
    owned_.push_back(std::move(t));
    return owned_.back().get();
}

namespace {

[[noreturn]] void fail(SourceLoc loc, const std::string& msg,
                       Diagnostics& diags)
{
    diags.error(loc, msg);
    throw EclError(loc, msg);
}

std::string tooBig(const std::string& type)
{
    return "type '" + type + "' is larger than " +
           std::to_string(kMaxDataBytes) + " bytes";
}

} // namespace

const Type* TypeTable::arrayOf(const Type* elem, std::int64_t n,
                               SourceLoc loc, Diagnostics& diags)
{
    if (n <= 0) fail(loc, "array dimension must be positive", diags);
    const auto count = static_cast<std::size_t>(n);
    std::string key = elem->name() + "[" + std::to_string(count) + "]";
    if (elem->size() != 0 && count > kMaxDataBytes / elem->size())
        fail(loc, tooBig(key), diags);
    auto it = arrayCache_.find(key);
    if (it != arrayCache_.end()) return it->second;

    auto t = std::unique_ptr<Type>(new Type());
    t->kind_ = TypeKind::Array;
    t->name_ = key;
    t->element_ = elem;
    t->count_ = count;
    t->size_ = elem->size() * count;
    owned_.push_back(std::move(t));
    arrayCache_[key] = owned_.back().get();
    return owned_.back().get();
}

const Type* TypeTable::makeAggregate(
    bool isUnion, std::string name,
    std::vector<std::pair<std::string, const Type*>> fields, SourceLoc loc,
    Diagnostics& diags)
{
    auto t = std::unique_ptr<Type>(new Type());
    t->kind_ = isUnion ? TypeKind::Union : TypeKind::Struct;
    t->name_ = std::move(name);
    std::size_t offset = 0;
    std::size_t maxSize = 0;
    for (auto& [fname, ftype] : fields) {
        for (const Type::Field& existing : t->fields_)
            if (existing.name == fname)
                fail(loc,
                     "duplicate field '" + fname + "' in '" + t->name_ + "'",
                     diags);
        Type::Field f;
        f.name = fname;
        f.type = ftype;
        f.offset = isUnion ? 0 : offset;
        offset += ftype->size();
        maxSize = std::max(maxSize, ftype->size());
        t->fields_.push_back(std::move(f));
    }
    t->size_ = isUnion ? maxSize : offset;
    if (t->size_ > kMaxDataBytes) fail(loc, tooBig(t->name_), diags);
    owned_.push_back(std::move(t));
    return owned_.back().get();
}

void TypeTable::registerName(const std::string& name, const Type* type,
                             SourceLoc loc)
{
    auto [it, inserted] = names_.emplace(name, type);
    if (!inserted && it->second != type)
        throw EclError(loc, "type name '" + name + "' already defined");
}

const Type* TypeTable::lookup(const std::string& name) const
{
    auto it = names_.find(name);
    return it == names_.end() ? nullptr : it->second;
}

const Type* TypeTable::require(const std::string& name, SourceLoc loc,
                               Diagnostics& diags) const
{
    const Type* t = lookup(name);
    if (!t) fail(loc, "unknown type '" + name + "'", diags);
    return t;
}

} // namespace ecl
