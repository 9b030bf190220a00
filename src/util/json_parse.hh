/**
 * @file
 * Minimal recursive-descent JSON reader, the read-side complement of
 * util/json.hh's JsonWriter. It exists so tools can load their own
 * reports back (mesa_prof --baseline, BENCH_history.jsonl, heatmap
 * round-trip tests) without an external dependency. It parses the
 * full JSON grammar the writer emits; \uXXXX escapes outside ASCII
 * are preserved as '?' since no report uses them. Nesting deeper than
 * MaxJsonDepth is rejected, so a hostile file cannot overflow the stack.
 */

#ifndef MESA_UTIL_JSON_PARSE_HH
#define MESA_UTIL_JSON_PARSE_HH

#include <cctype>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace mesa
{

/** A parsed JSON document node. */
struct JsonValue
{
    enum class Type { Null, Bool, Number, String, Array, Object };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> items;
    std::map<std::string, JsonValue> members;

    bool isNull() const { return type == Type::Null; }
    bool isObject() const { return type == Type::Object; }
    bool isArray() const { return type == Type::Array; }
    bool isNumber() const { return type == Type::Number; }
    bool isString() const { return type == Type::String; }

    /** Member lookup; nullptr when absent or not an object. */
    const JsonValue *
    find(const std::string &key) const
    {
        if (type != Type::Object)
            return nullptr;
        auto it = members.find(key);
        return it == members.end() ? nullptr : &it->second;
    }

    double
    asNumber(double fallback = 0.0) const
    {
        return type == Type::Number ? number : fallback;
    }

    std::string
    asString(const std::string &fallback = {}) const
    {
        return type == Type::String ? str : fallback;
    }
};

/** Deepest array/object nesting parseJson accepts; JsonWriter output
 *  nests a few levels. */
constexpr int MaxJsonDepth = 256;

namespace detail
{

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    std::optional<JsonValue>
    parse()
    {
        JsonValue v;
        if (!parseValue(v, 0))
            return std::nullopt;
        skipSpace();
        if (pos_ != text_.size())
            return std::nullopt; // trailing garbage
        return v;
    }

  private:
    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool
    literal(const char *word)
    {
        size_t len = std::string(word).size();
        if (text_.compare(pos_, len, word) != 0)
            return false;
        pos_ += len;
        return true;
    }

    /** @param depth arrays and objects enclosing the value */
    bool
    parseValue(JsonValue &out, int depth)
    {
        skipSpace();
        if (pos_ >= text_.size())
            return false;
        char c = text_[pos_];
        const bool room = depth < MaxJsonDepth;
        switch (c) {
          case '{': return room && parseObject(out, depth + 1);
          case '[': return room && parseArray(out, depth + 1);
          case '"': {
            out.type = JsonValue::Type::String;
            return parseString(out.str);
          }
          case 't':
            out.type = JsonValue::Type::Bool;
            out.boolean = true;
            return literal("true");
          case 'f':
            out.type = JsonValue::Type::Bool;
            out.boolean = false;
            return literal("false");
          case 'n':
            out.type = JsonValue::Type::Null;
            return literal("null");
          default: return parseNumber(out);
        }
    }

    bool
    parseObject(JsonValue &out, int depth)
    {
        out.type = JsonValue::Type::Object;
        ++pos_; // '{'
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipSpace();
            std::string key;
            if (!parseString(key))
                return false;
            skipSpace();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return false;
            ++pos_;
            JsonValue v;
            if (!parseValue(v, depth))
                return false;
            out.members.emplace(std::move(key), std::move(v));
            skipSpace();
            if (pos_ >= text_.size())
                return false;
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    parseArray(JsonValue &out, int depth)
    {
        out.type = JsonValue::Type::Array;
        ++pos_; // '['
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            JsonValue v;
            if (!parseValue(v, depth))
                return false;
            out.items.push_back(std::move(v));
            skipSpace();
            if (pos_ >= text_.size())
                return false;
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    parseString(std::string &out)
    {
        if (pos_ >= text_.size() || text_[pos_] != '"')
            return false;
        ++pos_;
        out.clear();
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                return false;
            char esc = text_[pos_++];
            switch (esc) {
              case '"': out.push_back('"'); break;
              case '\\': out.push_back('\\'); break;
              case '/': out.push_back('/'); break;
              case 'b': out.push_back('\b'); break;
              case 'f': out.push_back('\f'); break;
              case 'n': out.push_back('\n'); break;
              case 'r': out.push_back('\r'); break;
              case 't': out.push_back('\t'); break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    return false;
                unsigned code =
                    unsigned(std::strtoul(text_.substr(pos_, 4).c_str(),
                                          nullptr, 16));
                pos_ += 4;
                out.push_back(code < 0x80 ? char(code) : '?');
                break;
              }
              default: return false;
            }
        }
        return false; // unterminated
    }

    bool
    parseNumber(JsonValue &out)
    {
        size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            return false;
        char *end = nullptr;
        std::string token = text_.substr(start, pos_ - start);
        out.type = JsonValue::Type::Number;
        out.number = std::strtod(token.c_str(), &end);
        return end && *end == '\0';
    }

    const std::string &text_;
    size_t pos_ = 0;
};

} // namespace detail

/** Parse one JSON document; nullopt on any syntax error. */
inline std::optional<JsonValue>
parseJson(const std::string &text)
{
    return detail::JsonParser(text).parse();
}

} // namespace mesa

#endif // MESA_UTIL_JSON_PARSE_HH
