/**
 * @file
 * Minimal JSON reader shared by the analysis tools (report, bench).
 *
 * Covers exactly what this repo's writers emit — stats
 * Group::dumpJson trees, BENCH_<pr>.json protocol files, profiler
 * exports: objects, arrays, strings, numbers, bools and null, with
 * the stats writer's control-byte escapes.  Strict where input could
 * be silently misread: literals must be spelled out, strings may hold
 * no raw control byte and only JSON's escapes, and strtod must take a
 * number token whole.  Parse errors are fatal (exit 2) with the
 * caller-supplied context in the message.
 */

#ifndef GASNUB_TOOLS_JSON_UTIL_HH
#define GASNUB_TOOLS_JSON_UTIL_HH

#include <cctype>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gasnub::tooljson {

struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };
    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0;
    std::string string;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    const JsonValue *find(const std::string &key) const
    {
        for (const auto &kv : object)
            if (kv.first == key)
                return &kv.second;
        return nullptr;
    }
};

class JsonParser
{
  public:
    /** @param context Error prefix, e.g. "report: stats.json". */
    JsonParser(const std::string &text, const std::string &context)
        : _s(text), _ctx(context)
    {
    }

    JsonValue parse()
    {
        const JsonValue v = value();
        skipWs();
        if (_i != _s.size())
            fail("trailing garbage");
        return v;
    }

  private:
    [[noreturn]] void fail(const std::string &what)
    {
        std::cerr << _ctx << ": JSON error at byte " << _i << ": "
                  << what << "\n";
        std::exit(2);
    }

    void skipWs()
    {
        while (_i < _s.size() &&
               (_s[_i] == ' ' || _s[_i] == '\t' || _s[_i] == '\n' ||
                _s[_i] == '\r'))
            ++_i;
    }

    char peek()
    {
        skipWs();
        if (_i >= _s.size())
            fail("unexpected end of input");
        return _s[_i];
    }

    void expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++_i;
    }

    JsonValue value()
    {
        switch (peek()) {
          case '{': {
            // Recursive descent: bound the nesting so adversarial
            // input ("[[[[...") cannot blow the stack.
            if (++_depth > kMaxDepth)
                fail("nesting too deep");
            const JsonValue v = object();
            --_depth;
            return v;
          }
          case '[': {
            if (++_depth > kMaxDepth)
                fail("nesting too deep");
            const JsonValue v = array();
            --_depth;
            return v;
          }
          case '"': {
            JsonValue v;
            v.kind = JsonValue::Kind::String;
            v.string = string();
            return v;
          }
          case 't':
          case 'f': {
            JsonValue v;
            v.kind = JsonValue::Kind::Bool;
            v.boolean = _s[_i] == 't';
            literal(v.boolean ? "true" : "false");
            return v;
          }
          case 'n': {
            literal("null");
            return JsonValue{};
          }
          default:
            return number();
        }
    }

    /** Consume @p word exactly (a literal's first byte is known). */
    void literal(std::string_view word)
    {
        if (_s.compare(_i, word.size(), word) != 0)
            fail("bad literal");
        _i += word.size();
    }

    std::string string()
    {
        expect('"');
        std::string out;
        while (_i < _s.size() && _s[_i] != '"') {
            char c = _s[_i++];
            if (static_cast<unsigned char>(c) < 0x20)
                fail("raw control byte in string");
            if (c == '\\') {
                if (_i >= _s.size())
                    fail("truncated escape");
                const char e = _s[_i++];
                switch (e) {
                  case '"':
                  case '\\':
                  case '/': c = e; break;
                  case 'n': c = '\n'; break;
                  case 't': c = '\t'; break;
                  case 'r': c = '\r'; break;
                  case 'b': c = '\b'; break;
                  case 'f': c = '\f'; break;
                  case 'u': {
                    // The stats writer only escapes control bytes;
                    // decode the low byte and move on.  Checked by
                    // hand: std::stoi would throw (not fail) on
                    // non-hex digits.
                    if (_i + 4 > _s.size())
                        fail("truncated \\u escape");
                    int code = 0;
                    for (int k = 0; k < 4; ++k) {
                        const char h = _s[_i + k];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code |= h - '0';
                        else if (h >= 'a' && h <= 'f')
                            code |= h - 'a' + 10;
                        else if (h >= 'A' && h <= 'F')
                            code |= h - 'A' + 10;
                        else
                            fail("bad \\u escape");
                    }
                    c = static_cast<char>(code);
                    _i += 4;
                    break;
                  }
                  default: fail("bad escape");
                }
            }
            out.push_back(c);
        }
        expect('"');
        return out;
    }

    JsonValue number()
    {
        const std::size_t start = _i;
        while (_i < _s.size() &&
               (std::isdigit(static_cast<unsigned char>(_s[_i])) ||
                _s[_i] == '-' || _s[_i] == '+' || _s[_i] == '.' ||
                _s[_i] == 'e' || _s[_i] == 'E'))
            ++_i;
        if (_i == start)
            fail("expected a value");
        const std::string token = _s.substr(start, _i - start);
        char *end = nullptr;
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        v.number = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size())
            fail("bad number '" + token + "'");
        return v;
    }

    JsonValue array()
    {
        expect('[');
        JsonValue v;
        v.kind = JsonValue::Kind::Array;
        if (peek() == ']') {
            ++_i;
            return v;
        }
        for (;;) {
            v.array.push_back(value());
            if (peek() == ',') {
                ++_i;
                continue;
            }
            expect(']');
            return v;
        }
    }

    JsonValue object()
    {
        expect('{');
        JsonValue v;
        v.kind = JsonValue::Kind::Object;
        if (peek() == '}') {
            ++_i;
            return v;
        }
        for (;;) {
            std::string key = string();
            expect(':');
            v.object.emplace_back(std::move(key), value());
            if (peek() == ',') {
                ++_i;
                continue;
            }
            expect('}');
            return v;
        }
    }

    /** Far deeper than any writer in this repo emits. */
    static constexpr int kMaxDepth = 128;

    const std::string &_s;
    std::string _ctx;
    std::size_t _i = 0;
    int _depth = 0;
};

} // namespace gasnub::tooljson

#endif // GASNUB_TOOLS_JSON_UTIL_HH
