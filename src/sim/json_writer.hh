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
 *
 * The tree is built on two streaming pieces, Writer (the text
 * layout) and Cursor (the lexical rules), which hot decoders and
 * encoders use directly to skip the tree with the same bytes and the
 * same accepted documents.
 */

#ifndef NUCA_SIM_JSON_WRITER_HH
#define NUCA_SIM_JSON_WRITER_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
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
    friend class Writer;

    Type type_;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<Value> elements_;
    std::vector<std::pair<std::string, Value>> members_;
};

/**
 * Streaming writer: the one place JSON text is laid out. Value::dump
 * walks its tree through it, and the result codecs (sweep_store.hh)
 * write their payloads through it without building a tree, so the two
 * produce the same bytes. It appends to @p out; @p indent as in
 * Value::dump. Separators are its job: callers only nest and name.
 */
class Writer
{
  public:
    explicit Writer(std::string &out, unsigned indent = 0)
        : out_(out), indent_(indent) {}

    void beginObject() { open('{'); }
    void endObject() { close('}'); }
    void beginArray() { open('['); }
    void endArray() { close(']'); }

    /** The next object member's name; its value follows. */
    void key(std::string_view name);

    void null();
    void boolean(bool b);
    /** @pre finite (panics on NaN/Inf, as dump() does). */
    void number(double n);
    void string(std::string_view s);
    void value(const Value &v);

    /** The text of one complete compact JSON value, copied as the
     *  next value. @pre indent 0 */
    void raw(std::string_view json);
    /** Object members copied from compact text (an object's text
     *  without its braces; empty adds none). @pre indent 0 */
    void rawMembers(std::string_view members);

  private:
    /** Separator, newline and padding before a value or a key. */
    void element();
    void open(char bracket);
    void close(char bracket);

    std::string &out_;
    unsigned indent_;
    unsigned depth_ = 0;
    /** The innermost open container has no element yet. */
    bool empty_ = true;
    /** A key was written; its value needs no separator. */
    bool afterKey_ = false;
};

/**
 * Pull reader over JSON text with Value::tryParse's rules, which is
 * built from it: one-pass decoders use it to accept exactly the
 * documents the tree parser accepts, without building the tree.
 * Every reading method returns false on a syntax error, after which
 * the cursor is spent. Depths count as in tryParse: a document's
 * top value is at depth 0, and no value may nest deeper than
 * maxDepth.
 */
class Cursor
{
  public:
    static constexpr unsigned maxDepth = 64;

    explicit Cursor(std::string_view text)
        : cur_(text.data()), end_(text.data() + text.size()) {}

    void skipWs();
    /** Whitespace, then the end of the text. */
    bool atDocumentEnd();

    /** A value may start here at @p depth: not too deep, not at the
     *  end. skip, value, maybeString, and array and object for each
     *  element check it; string and number leave it to the caller. */
    bool canEnter(unsigned depth) const
    {
        return depth <= maxDepth && cur_ != end_;
    }
    /** The next byte, which must exist. */
    char peek() const { return *cur_; }
    /** The next value is a number (not null, a bool, a string, an
     *  array or an object); the value must exist. */
    bool atNumber() const;

    /** A string value, decoded into @p out (replacing it). */
    bool string(std::string &out);
    /** Any value at @p depth: @p out is its text when it is a
     *  string, nullopt otherwise. */
    bool maybeString(std::optional<std::string> &out, unsigned depth);
    /** A number value. */
    bool number(double &out);
    /** Any value at @p depth, checked but not kept. */
    bool skip(unsigned depth);
    /** Any value at @p depth, as a tree. */
    bool value(Value &out, unsigned depth);

    /**
     * An array at @p depth, '[' next: @p element(depth + 1) must
     * read each element and return false on a syntax error.
     */
    template <typename Element>
    bool array(unsigned depth, Element &&element);
    /**
     * An object at @p depth, '{' next: @p member(name, depth + 1)
     * must read each member's value (the cursor is at it) and
     * return false on a syntax error. A repeated name is handed
     * over again; tryParse keeps the last value.
     */
    template <typename Member>
    bool object(unsigned depth, Member &&member);

  private:
    bool literal(std::string_view word);

    const char *cur_;
    const char *end_;
};

template <typename Element>
bool
Cursor::array(unsigned depth, Element &&element)
{
    ++cur_; // '['
    skipWs();
    if (cur_ != end_ && *cur_ == ']') {
        ++cur_;
        return true;
    }
    for (;;) {
        skipWs();
        if (!canEnter(depth + 1) || !element(depth + 1))
            return false;
        skipWs();
        if (cur_ == end_)
            return false;
        if (*cur_ == ',') {
            ++cur_;
            continue;
        }
        if (*cur_ == ']') {
            ++cur_;
            return true;
        }
        return false;
    }
}

template <typename Member>
bool
Cursor::object(unsigned depth, Member &&member)
{
    ++cur_; // '{'
    skipWs();
    if (cur_ != end_ && *cur_ == '}') {
        ++cur_;
        return true;
    }
    std::string name;
    for (;;) {
        skipWs();
        if (!string(name))
            return false;
        skipWs();
        if (cur_ == end_ || *cur_ != ':')
            return false;
        ++cur_;
        skipWs();
        if (!canEnter(depth + 1) ||
            !member(std::as_const(name), depth + 1))
            return false;
        skipWs();
        if (cur_ == end_)
            return false;
        if (*cur_ == ',') {
            ++cur_;
            continue;
        }
        if (*cur_ == '}') {
            ++cur_;
            return true;
        }
        return false;
    }
}

/** Write @p value, indented and with a trailing newline, to @p path
 *  via a sibling ".tmp" file renamed into place, so a crash
 *  mid-write never leaves a truncated document at @p path. Fatal on
 *  I/O errors so a misspelled REPRO_JSON directory fails loudly. */
void writeFileAtomic(const std::string &path, const Value &value);

/**
 * Write @p text to @p path the way writeFileAtomic does, but report
 * a failure instead of stopping: the reason ("cannot open '<tmp>'
 * for writing", ...), or empty on success. A temporary this call
 * created is removed on failure.
 */
std::string tryWriteTextAtomic(const std::string &path,
                               std::string_view text);

/** Read an entire file; fatal when it cannot be opened. */
std::string readFile(const std::string &path);

} // namespace json
} // namespace nuca

#endif // NUCA_SIM_JSON_WRITER_HH
