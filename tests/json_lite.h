// json_lite.h — a tiny recursive-descent JSON syntax checker for tests
// that validate the JSON artifacts our tools emit (--metrics-out dumps,
// trace files). Checks well-formedness only — no DOM, no numbers parsed
// beyond shape, though strings must escape every control character as
// RFC 8259 §7 requires — which is all a schema smoke test needs without
// pulling in a JSON dependency.
#pragma once

#include <cctype>
#include <string_view>

namespace v6::testing {

class json_checker {
public:
    /// True iff `text` is one complete, well-formed JSON value.
    static bool valid(std::string_view text) {
        json_checker c{text};
        c.skip_ws();
        if (!c.value()) return false;
        c.skip_ws();
        return c.pos_ == c.text_.size();
    }

private:
    explicit json_checker(std::string_view text) : text_(text) {}

    bool at_end() const { return pos_ >= text_.size(); }
    char peek() const { return text_[pos_]; }
    bool eat(char c) {
        if (at_end() || text_[pos_] != c) return false;
        ++pos_;
        return true;
    }
    void skip_ws() {
        while (!at_end() && std::isspace(static_cast<unsigned char>(peek())))
            ++pos_;
    }

    bool value() {
        if (at_end()) return false;
        switch (peek()) {
            case '{': return object();
            case '[': return array();
            case '"': return string();
            case 't': return literal("true");
            case 'f': return literal("false");
            case 'n': return literal("null");
            default: return number();
        }
    }

    bool literal(std::string_view word) {
        if (text_.substr(pos_, word.size()) != word) return false;
        pos_ += word.size();
        return true;
    }

    bool object() {
        if (!eat('{')) return false;
        skip_ws();
        if (eat('}')) return true;
        do {
            skip_ws();
            if (!string()) return false;
            skip_ws();
            if (!eat(':')) return false;
            skip_ws();
            if (!value()) return false;
            skip_ws();
        } while (eat(','));
        return eat('}');
    }

    bool array() {
        if (!eat('[')) return false;
        skip_ws();
        if (eat(']')) return true;
        do {
            skip_ws();
            if (!value()) return false;
            skip_ws();
        } while (eat(','));
        return eat(']');
    }

    bool string() {
        if (!eat('"')) return false;
        while (!at_end()) {
            const char c = text_[pos_++];
            if (c == '"') return true;
            // RFC 8259 §7: control characters must be escaped.
            if (static_cast<unsigned char>(c) < 0x20) return false;
            if (c == '\\') {
                if (at_end()) return false;
                ++pos_;  // accept any escape; shape check only
            }
        }
        return false;
    }

    bool number() {
        const std::size_t start = pos_;
        if (!at_end() && (peek() == '-' || peek() == '+')) ++pos_;
        bool digits = false;
        const auto eat_digits = [&] {
            while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) {
                ++pos_;
                digits = true;
            }
        };
        eat_digits();
        if (!at_end() && peek() == '.') {
            ++pos_;
            eat_digits();
        }
        if (digits && !at_end() && (peek() == 'e' || peek() == 'E')) {
            ++pos_;
            if (!at_end() && (peek() == '-' || peek() == '+')) ++pos_;
            eat_digits();
        }
        return digits && pos_ > start;
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

}  // namespace v6::testing
