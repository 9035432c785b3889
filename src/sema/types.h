// The ECL type system: scalars, arrays, structs and unions with C-like
// byte layout. Types are canonicalized and owned by a TypeTable; all other
// phases hold `const Type*`.
//
// Layout rules (documented in docs/LANGUAGE.md): fields are packed with no padding,
// little-endian scalar encoding. sizeof: bool/char 1, short 2, int/long 4
// (MIPS32 model). A union's fields all start at offset 0 — the packet
// raw/cooked dual view of the paper's Figure 1 relies on this. No type,
// and no module's instance data, may exceed kMaxDataBytes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/support/diagnostics.h"

namespace ecl {

/// The largest size of any type, and of a module instance's data: 2^28
/// bytes (256 MiB). The VM and the generated C address an instance by
/// 32-bit offsets, and every engine allocates its instances whole.
inline constexpr std::size_t kMaxDataBytes = std::size_t{1} << 28;

enum class TypeKind { Void, Bool, Int, Array, Struct, Union };

class Type {
public:
    struct Field {
        std::string name;
        const Type* type = nullptr;
        std::size_t offset = 0;
    };

    TypeKind kind() const { return kind_; }
    const std::string& name() const { return name_; }
    std::size_t size() const { return size_; }

    // Scalars.
    bool isScalar() const { return kind_ == TypeKind::Bool || kind_ == TypeKind::Int; }
    bool isSigned() const { return isSigned_; }
    bool isBool() const { return kind_ == TypeKind::Bool; }
    bool isVoid() const { return kind_ == TypeKind::Void; }

    // Arrays.
    const Type* element() const { return element_; }
    std::size_t count() const { return count_; }

    // Aggregates.
    bool isAggregate() const
    {
        return kind_ == TypeKind::Struct || kind_ == TypeKind::Union;
    }
    const std::vector<Field>& fields() const { return fields_; }
    const Field* findField(const std::string& n) const;

private:
    friend class TypeTable;
    Type() = default;

    TypeKind kind_ = TypeKind::Void;
    std::string name_;
    std::size_t size_ = 0;
    bool isSigned_ = false;
    const Type* element_ = nullptr;
    std::size_t count_ = 0;
    std::vector<Field> fields_;
};

/// Owns all Type instances for one compilation; canonicalizes arrays.
class TypeTable {
public:
    TypeTable();
    TypeTable(const TypeTable&) = delete;
    TypeTable& operator=(const TypeTable&) = delete;
    TypeTable(TypeTable&&) = default;
    TypeTable& operator=(TypeTable&&) = default;

    const Type* boolType() const { return bool_; }
    const Type* charType() const { return char_; }
    const Type* ucharType() const { return uchar_; }
    const Type* shortType() const { return short_; }
    const Type* intType() const { return int_; }
    const Type* uintType() const { return uint_; }

    /// Array of `count` elements of `elem` (canonicalized). Raises a
    /// diagnostic at `loc` + EclError unless `count` is positive and the
    /// array fits in kMaxDataBytes.
    const Type* arrayOf(const Type* elem, std::int64_t count, SourceLoc loc,
                        Diagnostics& diags);

    /// Creates a struct/union with computed offsets. `name` is the display
    /// name (typedef name or "struct Tag"). Raises a diagnostic at `loc` +
    /// EclError on a duplicate field or past kMaxDataBytes.
    const Type* makeAggregate(bool isUnion, std::string name,
                              std::vector<std::pair<std::string, const Type*>>
                                  fields,
                              SourceLoc loc, Diagnostics& diags);

    /// Binds `name` (a typedef name or "struct Tag") to `type`.
    void registerName(const std::string& name, const Type* type,
                      SourceLoc loc);

    /// Resolves a type spelling ("int", "unsigned char", "packet_t",
    /// "struct foo"). Returns nullptr if unknown.
    const Type* lookup(const std::string& name) const;

    /// Like lookup but raises a diagnostic + EclError when unknown.
    const Type* require(const std::string& name, SourceLoc loc,
                        Diagnostics& diags) const;

private:
    const Type* addScalar(TypeKind k, std::string name, std::size_t size,
                          bool isSigned);

    std::vector<std::unique_ptr<Type>> owned_;
    std::unordered_map<std::string, const Type*> names_;
    std::unordered_map<std::string, const Type*> arrayCache_;

    const Type* void_ = nullptr;
    const Type* bool_ = nullptr;
    const Type* char_ = nullptr;
    const Type* uchar_ = nullptr;
    const Type* short_ = nullptr;
    const Type* ushort_ = nullptr;
    const Type* int_ = nullptr;
    const Type* uint_ = nullptr;
};

} // namespace ecl
