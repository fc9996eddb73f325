#include "sim/json_writer.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

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

namespace {

/** JSON string escaping (quotes not included). */
void
appendEscaped(std::string &out, std::string_view raw)
{
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
}

} // namespace

void
Writer::element()
{
    if (afterKey_) {
        afterKey_ = false;
        return;
    }
    if (depth_ == 0)
        return;
    if (!empty_)
        out_ += ',';
    empty_ = false;
    if (indent_ > 0) {
        out_ += '\n';
        out_.append(std::size_t(indent_) * depth_, ' ');
    }
}

void
Writer::open(char bracket)
{
    element();
    out_ += bracket;
    ++depth_;
    empty_ = true;
}

void
Writer::close(char bracket)
{
    --depth_;
    if (!empty_ && indent_ > 0) {
        out_ += '\n';
        out_.append(std::size_t(indent_) * depth_, ' ');
    }
    out_ += bracket;
    empty_ = false;
}

void
Writer::key(std::string_view name)
{
    element();
    out_ += '"';
    appendEscaped(out_, name);
    out_ += indent_ > 0 ? "\": " : "\":";
    afterKey_ = true;
}

void
Writer::null()
{
    element();
    out_ += "null";
}

void
Writer::boolean(bool b)
{
    element();
    out_ += b ? "true" : "false";
}

void
Writer::number(double n)
{
    panic_if(!std::isfinite(n),
             "json: NaN/Inf cannot be serialized");
    element();
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
    out_.append(buf, written.ptr);
}

void
Writer::string(std::string_view s)
{
    element();
    out_ += '"';
    appendEscaped(out_, s);
    out_ += '"';
}

void
Writer::value(const Value &v)
{
    switch (v.type_) {
      case Value::Type::Null: null(); break;
      case Value::Type::Bool: boolean(v.bool_); break;
      case Value::Type::Number: number(v.number_); break;
      case Value::Type::String: string(v.string_); break;
      case Value::Type::Array:
        beginArray();
        for (const Value &element : v.elements_)
            value(element);
        endArray();
        break;
      case Value::Type::Object:
        beginObject();
        for (const auto &[name, member] : v.members_) {
            key(name);
            value(member);
        }
        endObject();
        break;
    }
}

void
Writer::raw(std::string_view json)
{
    panic_if(indent_ > 0, "json: raw text in indented output");
    element();
    out_ += json;
}

void
Writer::rawMembers(std::string_view members)
{
    panic_if(indent_ > 0, "json: raw text in indented output");
    if (members.empty())
        return;
    element();
    out_ += members;
}

std::string
Value::dump(unsigned indent) const
{
    std::string out;
    Writer(out, indent).value(*this);
    return out;
}

void
Cursor::skipWs()
{
    while (cur_ != end_ &&
           (*cur_ == ' ' || *cur_ == '\t' || *cur_ == '\n' ||
            *cur_ == '\r'))
        ++cur_;
}

bool
Cursor::atDocumentEnd()
{
    skipWs();
    return cur_ == end_; // trailing garbage is an error
}

bool
Cursor::atNumber() const
{
    switch (*cur_) {
      case 'n': case 't': case 'f': case '"': case '[': case '{':
        return false;
      default:
        return true;
    }
}

bool
Cursor::literal(std::string_view word)
{
    if (static_cast<std::size_t>(end_ - cur_) < word.size() ||
        std::string_view(cur_, word.size()) != word)
        return false;
    cur_ += word.size();
    return true;
}

bool
Cursor::string(std::string &out)
{
    out.clear();
    if (cur_ == end_ || *cur_ != '"')
        return false;
    ++cur_;
    while (cur_ != end_ && *cur_ != '"') {
        if (*cur_ != '\\') {
            // Copy the run up to the next quote or escape at once.
            const char *run = cur_;
            while (cur_ != end_ && *cur_ != '"' && *cur_ != '\\')
                ++cur_;
            out.append(run, cur_);
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
Cursor::maybeString(std::optional<std::string> &out, unsigned depth)
{
    if (!canEnter(depth) || *cur_ != '"') {
        out.reset();
        return skip(depth);
    }
    if (!out)
        out.emplace();
    return string(*out);
}

bool
Cursor::number(double &out)
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
    // from_chars reads strtod's syntax minus a leading '+', which
    // JSON has no use for either.
    double n = 0.0;
    auto [end, ec] = std::from_chars(start, cur_, n);
    if (ec == std::errc::result_out_of_range) {
        // strtod tells an underflow (a zero, kept) from an overflow
        // ("1e999": an Inf, which dump() cannot write back, so
        // rejected like any bad number).
        n = std::strtod(std::string(start, cur_).c_str(), nullptr);
        if (std::isfinite(n))
            ec = std::errc();
    }
    if (end != cur_ || ec != std::errc())
        return false;
    out = n;
    return true;
}

bool
Cursor::skip(unsigned depth)
{
    if (!canEnter(depth))
        return false;
    switch (*cur_) {
      case 'n': return literal("null");
      case 't': return literal("true");
      case 'f': return literal("false");
      case '"': {
        std::string ignored;
        return string(ignored);
      }
      case '[':
        return array(depth, [&](unsigned d) { return skip(d); });
      case '{':
        return object(depth, [&](const std::string &, unsigned d) {
            return skip(d);
        });
      default: {
        double ignored;
        return number(ignored);
      }
    }
}

bool
Cursor::value(Value &out, unsigned depth)
{
    if (!canEnter(depth))
        return false;
    switch (*cur_) {
      case 'n': out = Value(); return literal("null");
      case 't': out = Value(true); return literal("true");
      case 'f': out = Value(false); return literal("false");
      case '"': {
        std::string s;
        if (!string(s))
            return false;
        out = Value(std::move(s));
        return true;
      }
      case '[':
        out = Value::array();
        return array(depth, [&](unsigned d) {
            Value element;
            if (!value(element, d))
                return false;
            out.append(std::move(element));
            return true;
        });
      case '{':
        out = Value::object();
        return object(depth, [&](const std::string &name, unsigned d) {
            Value element;
            if (!value(element, d))
                return false;
            out.set(name, std::move(element));
            return true;
        });
      default: {
        double n;
        if (!number(n))
            return false;
        out = Value(n);
        return true;
      }
    }
}

std::optional<Value>
Value::tryParse(const std::string &text)
{
    Value out;
    Cursor in(text);
    in.skipWs();
    if (!in.value(out, 0) || !in.atDocumentEnd())
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

namespace {

/** Write @p text to @p path: the failure's description, or empty.
 *  A short write removes the partial file. */
std::string
writeText(const std::string &path, std::string_view text)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return "cannot open '" + path + "' for writing";
    const std::size_t written =
        std::fwrite(text.data(), 1, text.size(), f);
    if (std::fclose(f) == 0 && written == text.size())
        return {};
    std::remove(path.c_str());
    return "short write to '" + path + "'";
}

} // namespace

void
writeFileAtomic(const std::string &path, const Value &value)
{
    const std::string error =
        tryWriteTextAtomic(path, value.dump(2) + "\n");
    fatal_if(!error.empty(), "json: ", error);
}

std::string
tryWriteTextAtomic(const std::string &path, std::string_view text)
{
    // Write the full document beside the target and rename it into
    // place, so readers (and a resumed sweep) never observe a
    // truncated file even if this process dies mid-write.
    const std::string tmp = path + ".tmp";
    const std::string error = writeText(tmp, text);
    if (!error.empty())
        return error;
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return "cannot rename '" + tmp + "' to '" + path + "'";
    }
    return {};
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
