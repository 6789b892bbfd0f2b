#include "api/fields.hpp"

#include <cmath>
#include <limits>
#include <utility>

#include "util/error.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace llamp::api {
namespace {

template <class T>
constexpr bool kIsOptional = requires(T t) { t.has_value(); };
template <class T>
constexpr bool kIsList =
    !std::is_same_v<T, std::string> && requires(T t) { t.push_back({}); };

/// Call `fn` with `std::type_identity<T>` for the member type of row `f`
/// (not kBlock).
template <class Fn, std::size_t... I>
void with_type(const Field& f, Fn&& fn, std::index_sequence<I...>) {
  (void)((static_cast<std::size_t>(f.kind) == I &&
          (fn(std::type_identity<std::tuple_element_t<I, FieldTypes>>{}),
           true)) ||
         ...);
}
template <class Fn>
void with_type(const Field& f, Fn&& fn) {
  with_type(f, fn, std::make_index_sequence<std::tuple_size_v<FieldTypes>>{});
}

/// Call `fn` with the typed member row `f` names inside `owner`.  The
/// writers and the help only read; the rows' one accessor is shared with
/// the readers, so const is dropped at this boundary alone.
template <class Fn>
void visit(const Field& f, const void* owner, Fn&& fn) {
  void* m = f.member(const_cast<void*>(owner));
  with_type(f, [&](auto type) {
    fn(*static_cast<typename decltype(type)::type*>(m));
  });
}

/// An unset optional, or an empty string or list: the values that can
/// mean "absent".
bool is_empty(const Field& f, const void* owner) {
  bool empty = false;
  visit(f, owner, [&](const auto& v) {
    if constexpr (kIsOptional<std::decay_t<decltype(v)>>) {
      empty = !v.has_value();
    } else if constexpr (requires { v.empty(); }) {
      empty = v.empty();
    }
  });
  return empty;
}

const Field& row(std::span<const Field> rows, std::string_view key) {
  for (const Field& f : rows) {
    if (f.key == key) return f;
  }
  throw Error("fields: no row \"" + std::string(key) + "\"");
}

/// Not serialized: unset optionals, empty kOptional values, and rows whose
/// gate is empty.
bool absent(std::span<const Field> rows, const Field& f, const void* owner) {
  const bool optional = f.kind == FieldKind::kOptU64 ||
                        f.kind == FieldKind::kOptDouble ||
                        (f.traits & kOptional) != 0;
  return (optional && is_empty(f, owner)) ||
         (f.gate != nullptr && is_empty(row(rows, f.gate), owner));
}

// -- Serialization ----------------------------------------------------------

void write(std::string& out, bool v) { out += v ? "true" : "false"; }
void write(std::string& out, int v) { out += std::to_string(v); }
void write(std::string& out, std::uint64_t v) { out += std::to_string(v); }
void write(std::string& out, double v) { out += json_double(v); }
void write(std::string& out, const std::string& v) {
  out += '"' + json_escape_string(v) + '"';
}
template <class T>
void write(std::string& out, const std::optional<T>& v) {
  write(out, *v);
}
template <class T>
void write(std::string& out, const std::vector<T>& values) {
  out += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    write(out, values[i]);
  }
  out += ']';
}

// -- Reading: one reader per type serves both surfaces ----------------------

/// How a field is named in errors: its JSON path, or its flag.
struct Surface {
  bool json = true;
  std::string path;  ///< JSON object path, e.g. "request.grid"

  std::string name(const Field& f) const {
    return json ? "json: " + path + "." + f.key : "--" + std::string(f.flag);
  }
};

void read(const JsonValue& v, const std::string& what, unsigned, bool& out) {
  out = v.as_bool(what);
}
void read(const JsonValue& v, const std::string& what, unsigned, int& out) {
  const double d = v.as_number(what);
  if (d != std::floor(d) || d < std::numeric_limits<int>::min() ||
      d > std::numeric_limits<int>::max()) {
    throw UsageError(what + ": expected a 32-bit integer (got " +
                     json_double(d) + ")");
  }
  out = static_cast<int>(d);
}
void read(const JsonValue& v, const std::string& what, unsigned,
          std::uint64_t& out) {
  out = v.as_unsigned(what);
}
void read(const JsonValue& v, const std::string& what, unsigned,
          double& out) {
  out = v.as_number(what);
}
void read(const JsonValue& v, const std::string& what, unsigned traits,
          std::string& out) {
  const bool spelled_number =
      (traits & kSpelled) != 0 && v.kind() == JsonValue::Kind::kNumber;
  out = spelled_number ? json_double(v.as_number(what)) : v.as_string(what);
}
template <class T>
void read(const JsonValue& v, const std::string& what, unsigned traits,
          std::optional<T>& out) {
  read(v, what, traits, out.emplace());
}
template <class T>
void read(const JsonValue& v, const std::string& what, unsigned traits,
          std::vector<T>& out) {
  out.clear();
  for (const JsonValue& e : v.as_array(what)) {
    read(e, what + "[]", traits, out.emplace_back());
  }
}

void read_object(std::span<const Field> rows, void* owner,
                 const JsonValue& obj, const Surface& at,
                 std::string_view skip) {
  for (const auto& [key, value] : obj.members("json: " + at.path)) {
    if (key == skip) continue;
    const Field* f = nullptr;
    for (const Field& r : rows) {
      if (r.key == key) f = &r;
    }
    if (f == nullptr) {
      throw UsageError("json: unknown field \"" + key + "\" in " + at.path);
    }
    if (f->kind == FieldKind::kBlock) {
      read_object(f->block, f->member(owner), value,
                  {at.json, at.path + "." + f->key}, {});
      continue;
    }
    const std::string what = at.name(*f);
    visit(*f, owner, [&](auto& out) { read(value, what, f->traits, out); });
    // A present value that reads as "absent" is a mistake (say, an unset
    // shell variable in a flag), never a silent default.
    if ((f->traits & kOptional) != 0 && is_empty(*f, owner)) {
      throw UsageError(what + " is empty (omit it to leave it unset)");
    }
  }
  // Gated knobs without their gate are a mistake, not a no-op.
  for (const Field& f : rows) {
    if (f.gate != nullptr && obj.find(f.key) != nullptr &&
        is_empty(row(rows, f.gate), owner)) {
      throw UsageError(at.name(f) + " given without " +
                       at.name(row(rows, f.gate)));
    }
  }
}

// -- The flag surface: flag text -> the JSON value its row expects ----------

/// Integer flags take plain decimal digits (no exponent, fraction or hex);
/// the token rides along so u64 reads stay exact.
JsonValue lex_number(const Field& f, std::string_view text, bool integral) {
  const std::string_view token = trim(text);
  const std::string_view digits = token.substr(starts_with(token, "-") ? 1 : 0);
  const auto bad = [&] {
    return UsageError("bad --" + std::string(f.flag) + " value '" +
                      std::string(text) + "'");
  };
  if (integral && (digits.empty() || digits.find_first_not_of("0123456789") !=
                                         digits.npos)) {
    throw bad();
  }
  try {
    return JsonValue::of_number(parse_double(token), std::string(token));
  } catch (const Error&) {
    throw bad();
  }
}

template <class T>
JsonValue lex(const Field& f, std::string_view text) {
  if constexpr (std::is_same_v<T, bool>) {
    return JsonValue::of_bool(text == "true" || text == "1" || text == "yes");
  } else if constexpr (std::is_same_v<T, std::string>) {
    return JsonValue::of_string(std::string(text));
  } else if constexpr (kIsOptional<T>) {
    return lex<typename T::value_type>(f, text);
  } else if constexpr (kIsList<T>) {
    // Blank items are dropped, so an empty list cannot be spelled and is
    // always a mistake.
    std::vector<JsonValue> items;
    for (const std::string& item : split(text, ',')) {
      if (!trim(item).empty()) {
        items.push_back(lex<typename T::value_type>(f, trim(item)));
      }
    }
    if (items.empty()) {
      throw UsageError("empty --" + std::string(f.flag) + " list");
    }
    return JsonValue::of_array(std::move(items));
  } else {
    return lex_number(f, text, std::is_integral_v<T>);
  }
}

using Given = std::vector<std::pair<std::string_view, std::string_view>>;

JsonValue lex_object(std::span<const Field> rows, const Given& given) {
  std::vector<std::pair<std::string, JsonValue>> members;
  for (const Field& f : rows) {
    if (f.kind == FieldKind::kBlock) {
      JsonValue sub = lex_object(f.block, given);
      if (!sub.members("").empty()) members.emplace_back(f.key, std::move(sub));
      continue;
    }
    // The last spelling of a repeated flag wins.
    for (auto it = given.rbegin(); it != given.rend(); ++it) {
      if (it->first != f.flag) continue;
      with_type(f, [&](auto type) {
        members.emplace_back(
            f.key, lex<typename decltype(type)::type>(f, it->second));
      });
      break;
    }
  }
  return JsonValue::of_object(std::move(members));
}

// -- Help -------------------------------------------------------------------

template <class T>
std::string metavar() {
  if constexpr (std::is_same_v<T, bool>) return "";
  else if constexpr (std::is_same_v<T, std::string>) return "=S";
  else if constexpr (kIsOptional<T>) return metavar<typename T::value_type>();
  else if constexpr (kIsList<T>) {
    return metavar<typename T::value_type>() + ",...";
  }
  else return std::is_integral_v<T> ? "=N" : "=X";
}

void append_help(std::string& out, const Field& f, const void* defaults) {
  constexpr std::size_t kColumn = 22;
  constexpr std::size_t kWidth = 79;
  std::string line = "  --" + std::string(f.flag);
  std::string text = f.help;
  visit(f, defaults, [&](const auto& v) {
    line += metavar<std::decay_t<decltype(v)>>();
    if (f.kind == FieldKind::kBool || is_empty(f, defaults)) return;
    // The default in CLI spelling: the JSON form without quotes, brackets
    // and list spaces.
    std::string json;
    write(json, v);
    std::erase_if(json, [](char c) {
      return c == '"' || c == '[' || c == ']' || c == ' ';
    });
    text += " (default " + json + ")";
  });
  if (line.size() + 2 > kColumn) {
    out += line + '\n';
    line.clear();
  }
  line.resize(kColumn, ' ');
  for (const std::string& word : split_ws(text)) {
    if (line.size() > kColumn && line.size() + 1 + word.size() > kWidth) {
      out += line + '\n';
      line.assign(kColumn, ' ');
    }
    line += (line.size() > kColumn ? " " : "") + word;
  }
  out += line + '\n';
}

}  // namespace

void write_json(std::string& out, std::span<const Field> rows,
                const void* owner) {
  bool first = true;
  for (const Field& f : rows) {
    if (absent(rows, f, owner)) continue;
    out += first ? "" : ", ";
    first = false;
    write(out, std::string(f.key));
    out += ": ";
    if (f.kind == FieldKind::kBlock) {
      out += '{';
      write_json(out, f.block, f.member(const_cast<void*>(owner)));
      out += '}';
    } else {
      visit(f, owner, [&](const auto& v) { write(out, v); });
    }
  }
}

void read_json(std::span<const Field> rows, void* owner, const JsonValue& obj,
               const std::string& path, std::string_view skip) {
  read_object(rows, owner, obj, Surface{true, path}, skip);
}

std::string_view flag_of(std::string_view arg) {
  if (!starts_with(arg, "--")) return {};
  return arg.substr(2, arg.find('=') == arg.npos ? arg.npos
                                                  : arg.find('=') - 2);
}

void read_flags(std::span<const Field> rows, void* owner,
                const std::vector<std::string>& args) {
  Given given;
  for (const std::string& arg : args) {
    const std::string_view flag = flag_of(arg);
    if (flag.empty() || find_flag(rows, flag) == nullptr) {
      throw UsageError("unrecognized argument '" + arg +
                       "' (see `llamp help`)");
    }
    const auto eq = arg.find('=');
    given.emplace_back(flag, eq == std::string::npos
                                 ? std::string_view("true")
                                 : std::string_view(arg).substr(eq + 1));
  }
  read_object(rows, owner, lex_object(rows, given), Surface{false, {}}, {});
}

const Field* find_flag(std::span<const Field> rows, std::string_view flag) {
  for (const Field& f : rows) {
    if (f.kind != FieldKind::kBlock && f.flag == flag) return &f;
    if (f.kind == FieldKind::kBlock) {
      if (const Field* sub = find_flag(f.block, flag)) return sub;
    }
  }
  return nullptr;
}

std::string flags_help(std::span<const Field> rows, const void* defaults) {
  std::string out;
  for (const Field& f : rows) {
    if (f.kind == FieldKind::kBlock) {
      out += flags_help(f.block, f.member(const_cast<void*>(defaults)));
    } else {
      append_help(out, f, defaults);
    }
  }
  return out;
}

}  // namespace llamp::api
