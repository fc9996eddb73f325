#include "sim/json_writer.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "base/logging.hh"

namespace nuca {
namespace json {

bool
Value::asBool() const
{
    panic_if(type_ != Type::Bool, "json: not a bool");
    return bool_;
}

double
Value::asNumber() const
{
    panic_if(type_ != Type::Number, "json: not a number");
    return number_;
}

std::optional<std::uint64_t>
Value::asCount() const
{
    if (type_ != Type::Number || !(number_ >= 0) ||
        number_ >= 0x1p64 || std::trunc(number_) != number_)
        return std::nullopt;
    return static_cast<std::uint64_t>(number_);
}

const std::string &
Value::asString() const
{
    panic_if(type_ != Type::String, "json: not a string");
    return string_;
}

Value &
Value::append(Value element)
{
    panic_if(type_ != Type::Array, "json: append on a non-array");
    elements_.push_back(std::move(element));
    return *this;
}

Value &
Value::set(const std::string &key, Value element)
{
    panic_if(type_ != Type::Object, "json: set on a non-object");
    for (auto &[k, v] : members_) {
        if (k == key) {
            v = std::move(element);
            return *this;
        }
    }
    members_.emplace_back(key, std::move(element));
    return *this;
}

std::size_t
Value::size() const
{
    if (type_ == Type::Array)
        return elements_.size();
    if (type_ == Type::Object)
        return members_.size();
    return 0;
}

const Value &
Value::at(std::size_t i) const
{
    panic_if(type_ != Type::Array, "json: index on a non-array");
    panic_if(i >= elements_.size(), "json: index ", i,
             " out of range (size ", elements_.size(), ")");
    return elements_[i];
}

const Value &
Value::at(const std::string &key) const
{
    panic_if(type_ != Type::Object, "json: member on a non-object");
    for (const auto &[k, v] : members_) {
        if (k == key)
            return v;
    }
    panic("json: no member '", key, "'");
}

bool
Value::contains(const std::string &key) const
{
    if (type_ != Type::Object)
        return false;
    for (const auto &[k, v] : members_) {
        (void)v;
        if (k == key)
            return true;
    }
    return false;
}

std::string
escape(const std::string &raw)
{
    std::string out;
    out.reserve(raw.size());
    for (const char c : raw) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

namespace {

void
appendNumber(std::string &out, double n)
{
    panic_if(!std::isfinite(n),
             "json: NaN/Inf cannot be serialized");
    // Integers (the common case: counters, mix sizes) print without
    // an exponent; everything else gets round-trip precision. With
    // an explicit precision, to_chars writes exactly what printf's
    // "%.0f" and "%.17g" would, several times faster.
    char buf[40];
    const bool integral = n == std::floor(n) && std::abs(n) < 1e15;
    const auto written =
        integral ? std::to_chars(buf, buf + sizeof(buf), n,
                                 std::chars_format::fixed, 0)
                 : std::to_chars(buf, buf + sizeof(buf), n,
                                 std::chars_format::general, 17);
    out.append(buf, written.ptr);
}

} // namespace

void
Value::dumpTo(std::string &out, unsigned indent, unsigned depth) const
{
    const std::string pad(indent * (depth + 1), ' ');
    const std::string closePad(indent * depth, ' ');
    const char *nl = indent > 0 ? "\n" : "";
    const char *colon = indent > 0 ? ": " : ":";

    switch (type_) {
      case Type::Null:
        out += "null";
        break;
      case Type::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Type::Number:
        appendNumber(out, number_);
        break;
      case Type::String:
        out += '"';
        out += escape(string_);
        out += '"';
        break;
      case Type::Array:
        if (elements_.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        for (std::size_t i = 0; i < elements_.size(); ++i) {
            if (i > 0)
                out += ',';
            out += nl;
            out += pad;
            elements_[i].dumpTo(out, indent, depth + 1);
        }
        out += nl;
        out += closePad;
        out += ']';
        break;
      case Type::Object:
        if (members_.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        for (std::size_t i = 0; i < members_.size(); ++i) {
            if (i > 0)
                out += ',';
            out += nl;
            out += pad;
            out += '"';
            out += escape(members_[i].first);
            out += '"';
            out += colon;
            members_[i].second.dumpTo(out, indent, depth + 1);
        }
        out += nl;
        out += closePad;
        out += '}';
        break;
    }
}

std::string
Value::dump(unsigned indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

namespace {

/** Recursive-descent parser over a raw character range. */
class Parser
{
  public:
    Parser(const char *begin, const char *end)
        : cur_(begin), end_(end) {}

    bool
    parseDocument(Value &out)
    {
        skipWs();
        if (!parseValue(out, 0))
            return false;
        skipWs();
        return cur_ == end_; // trailing garbage is an error
    }

  private:
    static constexpr unsigned maxDepth = 64;

    void
    skipWs()
    {
        while (cur_ != end_ &&
               (*cur_ == ' ' || *cur_ == '\t' || *cur_ == '\n' ||
                *cur_ == '\r'))
            ++cur_;
    }

    bool
    literal(const char *word)
    {
        const std::size_t len = std::strlen(word);
        if (static_cast<std::size_t>(end_ - cur_) < len ||
            std::strncmp(cur_, word, len) != 0)
            return false;
        cur_ += len;
        return true;
    }

    bool
    parseValue(Value &out, unsigned depth)
    {
        if (depth > maxDepth || cur_ == end_)
            return false;
        switch (*cur_) {
          case 'n': out = Value(); return literal("null");
          case 't': out = Value(true); return literal("true");
          case 'f': out = Value(false); return literal("false");
          case '"': return parseString(out);
          case '[': return parseArray(out, depth);
          case '{': return parseObject(out, depth);
          default: return parseNumber(out);
        }
    }

    bool
    parseString(Value &out)
    {
        std::string s;
        if (!parseRawString(s))
            return false;
        out = Value(std::move(s));
        return true;
    }

    bool
    parseRawString(std::string &out)
    {
        if (cur_ == end_ || *cur_ != '"')
            return false;
        ++cur_;
        while (cur_ != end_ && *cur_ != '"') {
            if (*cur_ != '\\') {
                out += *cur_++;
                continue;
            }
            if (++cur_ == end_)
                return false;
            switch (*cur_) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                if (end_ - cur_ < 5)
                    return false;
                unsigned code = 0;
                for (int i = 1; i <= 4; ++i) {
                    const char c = cur_[i];
                    code <<= 4;
                    if (c >= '0' && c <= '9')
                        code |= static_cast<unsigned>(c - '0');
                    else if (c >= 'a' && c <= 'f')
                        code |= static_cast<unsigned>(c - 'a' + 10);
                    else if (c >= 'A' && c <= 'F')
                        code |= static_cast<unsigned>(c - 'A' + 10);
                    else
                        return false;
                }
                cur_ += 4;
                // Only the escapes our writer emits (< 0x20) need to
                // round-trip; encode the BMP code point as UTF-8.
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xc0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3f));
                } else {
                    out += static_cast<char>(0xe0 | (code >> 12));
                    out += static_cast<char>(0x80 |
                                             ((code >> 6) & 0x3f));
                    out += static_cast<char>(0x80 | (code & 0x3f));
                }
                break;
              }
              default: return false;
            }
            ++cur_;
        }
        if (cur_ == end_)
            return false;
        ++cur_; // closing quote
        return true;
    }

    bool
    parseNumber(Value &out)
    {
        const char *start = cur_;
        if (cur_ != end_ && (*cur_ == '-' || *cur_ == '+'))
            ++cur_;
        bool digits = false;
        while (cur_ != end_ &&
               (std::isdigit(static_cast<unsigned char>(*cur_)) ||
                *cur_ == '.' || *cur_ == 'e' || *cur_ == 'E' ||
                *cur_ == '+' || *cur_ == '-')) {
            digits |= std::isdigit(static_cast<unsigned char>(*cur_));
            ++cur_;
        }
        if (!digits)
            return false;
        // from_chars reads strtod's syntax minus a leading '+',
        // which JSON has no use for either.
        double n = 0.0;
        auto [end, ec] = std::from_chars(start, cur_, n);
        if (ec == std::errc::result_out_of_range) {
            // strtod tells an underflow (a zero, kept) from an
            // overflow ("1e999": an Inf, which dump() cannot write
            // back, so rejected like any bad number).
            n = std::strtod(std::string(start, cur_).c_str(), nullptr);
            if (std::isfinite(n))
                ec = std::errc();
        }
        if (end != cur_ || ec != std::errc())
            return false;
        out = Value(n);
        return true;
    }

    bool
    parseArray(Value &out, unsigned depth)
    {
        ++cur_; // '['
        out = Value::array();
        skipWs();
        if (cur_ != end_ && *cur_ == ']') {
            ++cur_;
            return true;
        }
        for (;;) {
            Value element;
            skipWs();
            if (!parseValue(element, depth + 1))
                return false;
            out.append(std::move(element));
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

    bool
    parseObject(Value &out, unsigned depth)
    {
        ++cur_; // '{'
        out = Value::object();
        skipWs();
        if (cur_ != end_ && *cur_ == '}') {
            ++cur_;
            return true;
        }
        for (;;) {
            skipWs();
            std::string key;
            if (!parseRawString(key))
                return false;
            skipWs();
            if (cur_ == end_ || *cur_ != ':')
                return false;
            ++cur_;
            skipWs();
            Value element;
            if (!parseValue(element, depth + 1))
                return false;
            out.set(key, std::move(element));
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

    const char *cur_;
    const char *end_;
};

} // namespace

std::optional<Value>
Value::tryParse(const std::string &text)
{
    Value out;
    Parser parser(text.data(), text.data() + text.size());
    if (!parser.parseDocument(out))
        return std::nullopt;
    return out;
}

Value
Value::parse(const std::string &text)
{
    auto parsed = tryParse(text);
    fatal_if(!parsed.has_value(), "json: malformed document (",
             text.size(), " bytes)");
    return std::move(*parsed);
}

void
writeFile(const std::string &path, const Value &value)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    fatal_if(f == nullptr, "json: cannot open '", path,
             "' for writing");
    const std::string text = value.dump(2) + "\n";
    const std::size_t written =
        std::fwrite(text.data(), 1, text.size(), f);
    const bool ok = written == text.size() && std::fclose(f) == 0;
    fatal_if(!ok, "json: short write to '", path, "'");
}

void
writeFileAtomic(const std::string &path, const Value &value)
{
    // Write the full document beside the target and rename it into
    // place, so readers (and a resumed sweep) never observe a
    // truncated file even if this process dies mid-write.
    const std::string tmp = path + ".tmp";
    writeFile(tmp, value);
    fatal_if(std::rename(tmp.c_str(), path.c_str()) != 0,
             "json: cannot rename '", tmp, "' to '", path, "'");
}

std::string
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    fatal_if(f == nullptr, "json: cannot open '", path, "'");
    std::string out;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    return out;
}

} // namespace json
} // namespace nuca
