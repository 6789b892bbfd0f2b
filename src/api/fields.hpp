#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <vector>

namespace llamp {
class JsonValue;
}

namespace llamp::api {

/// Field tables: the one declaration of a request schema.  Each row names
/// one struct member by its canonical JSON key and its `--flag` spelling,
/// with one line of help; the member's C++ type picks its codec.  The same
/// rows drive the canonical JSON serializer, the JSON parser with its
/// unknown-field rejection, the CLI flag reader and its allowlist, and the
/// option lines of `--help`.  Defaults are the default-constructed
/// struct's, never restated in a row.
///
/// Both surfaces share one reader: flag text is lexed into the JSON value
/// the row expects (`--ranks=8,27` becomes `[8, 27]`) and then read like a
/// JSON member, so the integer-range, unsigned, present-but-empty and
/// gating rules cannot drift apart.

/// The codecs, one per member type, in the order of `FieldTypes`; kBlock is
/// a nested struct (an object in JSON, flat on the CLI).
enum class FieldKind {
  kBool, kInt, kU64, kDouble, kString, kOptU64, kOptDouble,
  kInts, kDoubles, kStrings, kBlock,
};
using FieldTypes =
    std::tuple<bool, int, std::uint64_t, double, std::string,
               std::optional<std::uint64_t>, std::optional<double>,
               std::vector<int>, std::vector<double>,
               std::vector<std::string>>;

/// Row traits.  kOptional: an empty value means "absent", so it is not
/// serialized and a present but empty value is rejected on both surfaces.
/// kSpelled: a list of numbers kept as the user spelled them (the campaign
/// override axes name config variants after them).
inline constexpr unsigned kOptional = 1;
inline constexpr unsigned kSpelled = 2;

struct Field {
  const char* key;   ///< canonical JSON key (row order = field order)
  const char* flag;  ///< `--flag` spelling; nullptr for a nested block
  const char* help;  ///< one line of --help
  FieldKind kind;
  void* (*member)(void* owner);  ///< the member inside its owning struct
  std::span<const Field> block;  ///< kBlock: the nested struct's rows
  unsigned traits;
  /// Key of a string row of the same struct that must be non-empty for
  /// this row to be given; the row is serialized only when it is.
  const char* gate;
};

namespace detail {

template <class M>
struct MemberOf;
template <class C, class T>
struct MemberOf<T C::*> {
  using Owner = C;
  using Type = T;
};

template <auto M>
void* member(void* owner) {
  using Owner = typename MemberOf<decltype(M)>::Owner;
  return &(static_cast<Owner*>(owner)->*M);
}

template <class T, std::size_t I = 0>
constexpr FieldKind kind_of() {
  static_assert(I < std::tuple_size_v<FieldTypes>, "no codec for this type");
  if constexpr (std::is_same_v<T, std::tuple_element_t<I, FieldTypes>>) {
    return static_cast<FieldKind>(I);
  } else {
    return kind_of<T, I + 1>();
  }
}

}  // namespace detail

/// A value row: `field<&AppSpec::ranks>("ranks", "ranks", "help")`.
template <auto M>
constexpr Field field(const char* key, const char* flag, const char* help,
                      unsigned traits = 0, const char* gate = nullptr) {
  using Type = typename detail::MemberOf<decltype(M)>::Type;
  return {key,  flag, help, detail::kind_of<Type>(), &detail::member<M>, {},
          traits, gate};
}

/// A CLI-only option row: the flag doubles as its key.
template <auto M>
constexpr Field option(const char* flag, const char* help,
                       unsigned traits = 0) {
  return field<M>(flag, flag, help, traits);
}

/// A nested struct's rows under `key`.
template <auto M>
constexpr Field block(const char* key, std::span<const Field> rows) {
  return {key, nullptr, nullptr, FieldKind::kBlock, &detail::member<M>,
          rows, 0,   nullptr};
}

// The codec.  `owner` is the struct the rows describe: a row table and its
// struct always travel together.

/// Append `owner`'s fields as `"key": value` members joined by ", ".
void write_json(std::string& out, std::span<const Field> rows,
                const void* owner);

/// Read JSON object `obj` (named `path` in errors) into `owner`; members
/// other than the rows' keys and `skip` are rejected.
void read_json(std::span<const Field> rows, void* owner, const JsonValue& obj,
               const std::string& path, std::string_view skip = {});

/// Read `--flag[=value]` tokens into `owner`; later tokens win.  A stray
/// positional or a flag outside `rows` is a UsageError.
void read_flags(std::span<const Field> rows, void* owner,
                const std::vector<std::string>& args);

/// The row spelled `--flag` (nested blocks included), or nullptr.
const Field* find_flag(std::span<const Field> rows, std::string_view flag);

/// The flag of a `--flag[=value]` token (empty for a positional).
std::string_view flag_of(std::string_view arg);

/// One `--help` line per flag, with the default read from `defaults`, a
/// default-constructed owner.
std::string flags_help(std::span<const Field> rows, const void* defaults);

}  // namespace llamp::api
