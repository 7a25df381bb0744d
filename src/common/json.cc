#include "common/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/logging.h"

namespace bw {

Json &
Json::push(Json v)
{
    if (type_ == Type::Null)
        type_ = Type::Array;
    BW_ASSERT(type_ == Type::Array, "push on non-array JSON value");
    items_.emplace_back(std::string(), std::move(v));
    return *this;
}

Json &
Json::set(const std::string &key, Json v)
{
    if (type_ == Type::Null)
        type_ = Type::Object;
    BW_ASSERT(type_ == Type::Object, "set on non-object JSON value");
    for (auto &[k, existing] : items_) {
        if (k == key) {
            existing = std::move(v);
            return *this;
        }
    }
    items_.emplace_back(key, std::move(v));
    return *this;
}

const Json *
Json::find(const std::string &key) const
{
    if (type_ != Type::Object)
        return nullptr;
    for (const auto &[k, v] : items_) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

bool
Json::operator==(const Json &o) const
{
    // Int and Double compare as numbers so a parsed "2.0" matches.
    if (isNumber() && o.isNumber())
        return asDouble() == o.asDouble() && asInt() == o.asInt();
    if (type_ != o.type_)
        return false;
    switch (type_) {
      case Type::Null: return true;
      case Type::Bool: return bool_ == o.bool_;
      case Type::String: return str_ == o.str_;
      default: break;
    }
    if (items_.size() != o.items_.size())
        return false;
    for (size_t i = 0; i < items_.size(); ++i) {
        if (type_ == Type::Object && items_[i].first != o.items_[i].first)
            return false;
        if (!(items_[i].second == o.items_[i].second))
            return false;
    }
    return true;
}

std::string
jsonQuote(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
    for (unsigned char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    out += '"';
    return out;
}

void
appendJsonInt(std::string &out, int64_t v)
{
    char buf[20]; // "-9223372036854775808"
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

void
Json::dumpTo(std::string &out, int indent, int depth) const
{
    auto newline = [&](int d) {
        if (indent < 0)
            return;
        out += '\n';
        out.append(static_cast<size_t>(indent) * d, ' ');
    };

    switch (type_) {
      case Type::Null:
        out += "null";
        return;
      case Type::Bool:
        out += bool_ ? "true" : "false";
        return;
      case Type::Int:
        appendJsonInt(out, int_);
        return;
      case Type::Double: {
        if (!std::isfinite(dbl_)) {
            out += "null";
            return;
        }
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", dbl_);
        // Keep doubles recognizable as such on re-parse.
        if (!std::strpbrk(buf, ".eE"))
            std::strcat(buf, ".0");
        out += buf;
        return;
      }
      case Type::String:
        out += jsonQuote(str_);
        return;
      case Type::Array:
      case Type::Object: {
        const char open = type_ == Type::Array ? '[' : '{';
        const char close = type_ == Type::Array ? ']' : '}';
        out += open;
        for (size_t i = 0; i < items_.size(); ++i) {
            if (i)
                out += ',';
            newline(depth + 1);
            if (type_ == Type::Object) {
                out += jsonQuote(items_[i].first);
                out += indent < 0 ? ":" : ": ";
            }
            items_[i].second.dumpTo(out, indent, depth + 1);
        }
        if (!items_.empty())
            newline(depth);
        out += close;
        return;
      }
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

namespace {

/** Recursive-descent parser over a complete in-memory document. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : s_(text) {}

    Json
    document()
    {
        Json v = value();
        skipWs();
        if (pos_ != s_.size())
            fail("trailing characters after JSON document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const char *what)
    {
        BW_FATAL("JSON parse error at offset %zu: %s", pos_, what);
    }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
                s_[pos_] == '\r')) {
            ++pos_;
        }
    }

    char
    peek()
    {
        skipWs();
        if (pos_ >= s_.size())
            fail("unexpected end of input");
        return s_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail("unexpected character");
        ++pos_;
    }

    bool
    consumeLit(const char *lit)
    {
        size_t n = std::strlen(lit);
        if (s_.compare(pos_, n, lit) != 0)
            return false;
        pos_ += n;
        return true;
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= s_.size())
                fail("unterminated string");
            char c = s_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= s_.size())
                fail("unterminated escape");
            char e = s_[pos_++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                if (pos_ + 4 > s_.size())
                    fail("truncated \\u escape");
                unsigned cp = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = s_[pos_++];
                    cp <<= 4;
                    if (h >= '0' && h <= '9')
                        cp |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        cp |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        cp |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad hex digit in \\u escape");
                }
                // BMP-only UTF-8 encoding (no surrogate pairing).
                if (cp < 0x80) {
                    out += static_cast<char>(cp);
                } else if (cp < 0x800) {
                    out += static_cast<char>(0xC0 | (cp >> 6));
                    out += static_cast<char>(0x80 | (cp & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (cp >> 12));
                    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (cp & 0x3F));
                }
                break;
              }
              default:
                fail("bad escape character");
            }
        }
    }

    Json
    parseNumber()
    {
        size_t start = pos_;
        bool is_double = false;
        if (pos_ < s_.size() && s_[pos_] == '-')
            ++pos_;
        while (pos_ < s_.size()) {
            char c = s_[pos_];
            if (c >= '0' && c <= '9') {
                ++pos_;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                is_double = true;
                ++pos_;
            } else {
                break;
            }
        }
        if (pos_ == start)
            fail("bad number");
        std::string tok = s_.substr(start, pos_ - start);
        if (is_double)
            return Json(std::strtod(tok.c_str(), nullptr));
        return Json(static_cast<int64_t>(
            std::strtoll(tok.c_str(), nullptr, 10)));
    }

    Json
    value()
    {
        char c = peek();
        switch (c) {
          case '{': {
            ++pos_;
            Json obj = Json::object();
            if (peek() == '}') {
                ++pos_;
                return obj;
            }
            while (true) {
                skipWs();
                std::string key = parseString();
                expect(':');
                obj.set(key, value());
                char d = peek();
                ++pos_;
                if (d == '}')
                    return obj;
                if (d != ',')
                    fail("expected ',' or '}' in object");
            }
          }
          case '[': {
            ++pos_;
            Json arr = Json::array();
            if (peek() == ']') {
                ++pos_;
                return arr;
            }
            while (true) {
                arr.push(value());
                char d = peek();
                ++pos_;
                if (d == ']')
                    return arr;
                if (d != ',')
                    fail("expected ',' or ']' in array");
            }
          }
          case '"':
            return Json(parseString());
          case 't':
            if (consumeLit("true"))
                return Json(true);
            fail("bad literal");
          case 'f':
            if (consumeLit("false"))
                return Json(false);
            fail("bad literal");
          case 'n':
            if (consumeLit("null"))
                return Json(nullptr);
            fail("bad literal");
          default:
            return parseNumber();
        }
    }

    const std::string &s_;
    size_t pos_ = 0;
};

} // namespace

Json
Json::parse(const std::string &text)
{
    return Parser(text).document();
}

void
writeJsonFile(const std::string &path, const Json &j)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        BW_FATAL("cannot open %s for writing", path.c_str());
    std::string text = j.dump(2);
    text += '\n';
    size_t n = std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    if (n != text.size())
        BW_FATAL("short write to %s", path.c_str());
}

} // namespace bw
