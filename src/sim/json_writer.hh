/**
 * @file
 * Minimal JSON document model for machine-readable experiment
 * results (REPRO_JSON=<path>). The bench harnesses emit one record
 * per (scheme, mix) so the paper-figure trajectories can be tracked
 * across PRs without scraping the human-oriented tables; the parser
 * exists so tests (and tools/) can consume what the writer emits
 * without an external dependency.
 *
 * Deliberately small: objects preserve insertion order, numbers are
 * doubles serialized with enough digits to round-trip exactly, and
 * the only supported encoding is UTF-8 passed through verbatim
 * (non-ASCII bytes are never escaped, control characters always are).
 */

#ifndef NUCA_SIM_JSON_WRITER_HH
#define NUCA_SIM_JSON_WRITER_HH

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace nuca {
namespace json {

/** One JSON value: null, bool, number, string, array, or object. */
class Value
{
  public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    Value() : type_(Type::Null) {}
    Value(bool b) : type_(Type::Bool), bool_(b) {}
    Value(double n) : type_(Type::Number), number_(n) {}
    Value(int n) : type_(Type::Number), number_(n) {}
    Value(std::uint64_t n)
        : type_(Type::Number), number_(static_cast<double>(n)) {}
    Value(const char *s) : type_(Type::String), string_(s) {}
    Value(std::string s) : type_(Type::String), string_(std::move(s)) {}

    static Value array() { Value v; v.type_ = Type::Array; return v; }
    static Value object() { Value v; v.type_ = Type::Object; return v; }

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }

    /** Typed accessors; panic on a type mismatch. */
    bool asBool() const;
    double asNumber() const;
    const std::string &asString() const;
    /** A non-negative integral number that fits std::uint64_t;
     *  nullopt for anything else (including other types). */
    std::optional<std::uint64_t> asCount() const;

    /** Array: append an element. @pre type() == Array */
    Value &append(Value element);
    /** Object: add/replace a member, preserving insertion order. */
    Value &set(const std::string &key, Value element);

    /** Array element count / object member count (0 for scalars). */
    std::size_t size() const;

    /** Array indexing. @pre type() == Array, i < size() */
    const Value &at(std::size_t i) const;
    /** Object member lookup; panics when @p key is absent. */
    const Value &at(const std::string &key) const;
    /** True when the object has a member named @p key. */
    bool contains(const std::string &key) const;

    /** Object members in insertion order (for iteration). */
    const std::vector<std::pair<std::string, Value>> &
    members() const { return members_; }

    /**
     * Serialize. @p indent > 0 pretty-prints with that many spaces
     * per level; 0 emits the compact single-line form.
     */
    std::string dump(unsigned indent = 0) const;

    /** Parse a complete document; nullopt on any syntax error. */
    static std::optional<Value> tryParse(const std::string &text);
    /** Parse a complete document; fatal() on any syntax error. */
    static Value parse(const std::string &text);

  private:
    void dumpTo(std::string &out, unsigned indent,
                unsigned depth) const;

    Type type_;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<Value> elements_;
    std::vector<std::pair<std::string, Value>> members_;
};

/** JSON string escaping (quotes not included). */
std::string escape(const std::string &raw);

/** Write @p value to @p path (trailing newline added); fatal on I/O
 *  errors so a misspelled REPRO_JSON directory fails loudly. */
void writeFile(const std::string &path, const Value &value);

/** writeFile via a sibling ".tmp" file renamed into place, so a
 *  crash mid-write never leaves a truncated document at @p path. */
void writeFileAtomic(const std::string &path, const Value &value);

/** Read an entire file; fatal when it cannot be opened. */
std::string readFile(const std::string &path);

} // namespace json
} // namespace nuca

#endif // NUCA_SIM_JSON_WRITER_HH
