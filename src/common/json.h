/**
 * @file
 * Minimal ordered JSON document model: enough to serialize simulator
 * statistics and trace artifacts (dump) and to validate/round-trip them
 * in tests (parse). Object keys preserve insertion order so emitted
 * reports are stable and diffable. Not a general-purpose JSON library:
 * numbers are int64 or double, strings are UTF-8 passed through.
 */

#ifndef BW_COMMON_JSON_H
#define BW_COMMON_JSON_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace bw {

/** One JSON value (null / bool / number / string / array / object). */
class Json
{
  public:
    enum class Type : uint8_t
    {
        Null = 0,
        Bool,
        Int,
        Double,
        String,
        Array,
        Object
    };

    Json() = default;
    Json(std::nullptr_t) {}
    Json(bool b) : type_(Type::Bool), bool_(b) {}
    Json(int v) : type_(Type::Int), int_(v) {}
    Json(unsigned v) : type_(Type::Int), int_(v) {}
    Json(int64_t v) : type_(Type::Int), int_(v) {}
    Json(uint64_t v) : type_(Type::Int), int_(static_cast<int64_t>(v)) {}
    Json(double v) : type_(Type::Double), dbl_(v) {}
    Json(const char *s) : type_(Type::String), str_(s) {}
    Json(std::string s) : type_(Type::String), str_(std::move(s)) {}

    static Json
    array()
    {
        Json j;
        j.type_ = Type::Array;
        return j;
    }

    static Json
    object()
    {
        Json j;
        j.type_ = Type::Object;
        return j;
    }

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isNumber() const
    {
        return type_ == Type::Int || type_ == Type::Double;
    }

    bool asBool() const { return bool_; }
    int64_t asInt() const
    {
        return type_ == Type::Double ? static_cast<int64_t>(dbl_) : int_;
    }
    double asDouble() const
    {
        return type_ == Type::Int ? static_cast<double>(int_) : dbl_;
    }
    const std::string &asString() const { return str_; }

    /** Append to an array (first use converts a null value). */
    Json &push(Json v);

    /** Set a key on an object (first use converts a null value). */
    Json &set(const std::string &key, Json v);

    /** Presize an array's elements or an object's members. */
    void reserve(size_t n) { items_.reserve(n); }

    /** Array elements / object values in order. */
    size_t size() const { return items_.size(); }
    const Json &at(size_t i) const { return items_[i].second; }

    /** Object lookup; returns nullptr when absent. */
    const Json *find(const std::string &key) const;
    Json *find(const std::string &key)
    {
        return const_cast<Json *>(std::as_const(*this).find(key));
    }
    bool contains(const std::string &key) const { return find(key); }
    const std::pair<std::string, Json> &member(size_t i) const
    {
        return items_[i];
    }

    bool operator==(const Json &o) const;

    /**
     * Serialize. @p indent < 0 emits compact single-line JSON;
     * otherwise pretty-print with that many spaces per level. Non-finite
     * doubles are emitted as null (JSON has no NaN/Inf).
     */
    std::string dump(int indent = -1) const;

    /** Parse a complete JSON document; throws bw::Error on bad input. */
    static Json parse(const std::string &text);

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    Type type_ = Type::Null;
    bool bool_ = false;
    int64_t int_ = 0;
    double dbl_ = 0.0;
    std::string str_;
    /** Array elements (empty keys) or object members, in order. */
    std::vector<std::pair<std::string, Json>> items_;
};

/** Escape a string for embedding in JSON (adds surrounding quotes). */
std::string jsonQuote(const std::string &s);

/** Append @p v in decimal: how every JSON integer is written. */
void appendJsonInt(std::string &out, int64_t v);

/** Write @p j to @p path (pretty-printed); throws bw::Error on I/O. */
void writeJsonFile(const std::string &path, const Json &j);

} // namespace bw

#endif // BW_COMMON_JSON_H
