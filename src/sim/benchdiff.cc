#include "sim/benchdiff.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace skybyte {

namespace {

/** One number with its dotted key path. */
struct NumToken
{
    double value = 0;
    std::string path;
};

/**
 * Lex of one JSON document: the structural skeleton (every
 * non-whitespace character with numbers replaced by '#', strings kept
 * verbatim) plus the numbers in order with their paths.
 */
struct BenchLex
{
    std::string skeleton;
    std::vector<NumToken> numbers;
};

/**
 * Single-pass lexer with key-path tracking: '"key":' pushes context,
 * '{'/'}' scope it, and array elements inherit the array's key. This
 * is not a JSON validator — both inputs come from one writer (a
 * bench's, or the sweep report's) — but malformed nesting still ends
 * as a skeleton mismatch.
 */
BenchLex
lexBenchJson(const std::string &text)
{
    BenchLex lex;
    std::vector<std::string> stack;
    std::string current_key;
    std::size_t i = 0;

    auto path_of = [&]() {
        std::string path;
        for (const std::string &k : stack) {
            if (k.empty())
                continue;
            if (!path.empty())
                path += '.';
            path += k;
        }
        if (!current_key.empty()) {
            if (!path.empty())
                path += '.';
            path += current_key;
        }
        return path;
    };

    while (i < text.size()) {
        const char c = text[i];
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
            continue;
        }
        if (c == '"') {
            std::string literal(1, '"');
            for (++i; i < text.size() && text[i] != '"'; ++i) {
                if (text[i] == '\\' && i + 1 < text.size())
                    literal += text[i++];
                literal += text[i];
            }
            if (i < text.size())
                literal += text[i++]; // closing quote
            // A string followed by ':' names the next value; any other
            // string is a value and part of the skeleton.
            std::size_t j = i;
            while (j < text.size()
                   && std::isspace(static_cast<unsigned char>(text[j])))
                ++j;
            if (j < text.size() && text[j] == ':')
                current_key = literal.substr(1, literal.size() - 2);
            lex.skeleton += literal;
            continue;
        }
        const bool starts_number =
            (c >= '0' && c <= '9')
            || (c == '-' && i + 1 < text.size() && text[i + 1] >= '0'
                && text[i + 1] <= '9');
        if (starts_number) {
            std::size_t end = i + 1;
            while (end < text.size()
                   && (std::isdigit(
                           static_cast<unsigned char>(text[end]))
                       || text[end] == '.' || text[end] == 'e'
                       || text[end] == 'E' || text[end] == '+'
                       || text[end] == '-')) {
                ++end;
            }
            NumToken tok;
            tok.value =
                std::strtod(text.substr(i, end - i).c_str(), nullptr);
            tok.path = path_of();
            lex.numbers.push_back(std::move(tok));
            lex.skeleton += '#';
            i = end;
            continue;
        }
        if (c == '{' || c == '[') {
            stack.push_back(current_key);
            current_key.clear();
        } else if (c == '}' || c == ']') {
            if (!stack.empty())
                stack.pop_back();
            current_key.clear();
        }
        lex.skeleton += c;
        ++i;
    }
    return lex;
}

bool
pathSelected(const std::string &path,
             const std::vector<std::string> &keys)
{
    if (keys.empty())
        return true;
    for (const std::string &k : keys) {
        if (path.find(k) != std::string::npos)
            return true;
    }
    return false;
}

} // namespace

std::vector<BenchDrift>
diffBenchJson(const std::string &baseline, const std::string &current,
              const BenchDiffOptions &opt)
{
    const BenchLex a = lexBenchJson(baseline);
    const BenchLex b = lexBenchJson(current);
    if (a.skeleton != b.skeleton) {
        // Locate the first divergence for a usable message.
        std::size_t at = 0;
        while (at < a.skeleton.size() && at < b.skeleton.size()
               && a.skeleton[at] == b.skeleton[at])
            ++at;
        const auto context = [&](const std::string &s) {
            const std::size_t begin = at > 24 ? at - 24 : 0;
            return s.substr(begin, 48);
        };
        throw std::runtime_error(
            "JSON layout differs near \"" + context(a.skeleton)
            + "\" vs \"" + context(b.skeleton)
            + "\" (metric added/removed/renamed? regenerate the "
              "baseline)");
    }

    const double tol = opt.tolPct / 100.0;
    std::vector<BenchDrift> drifts;
    for (std::size_t t = 0; t < a.numbers.size(); ++t) {
        const double va = a.numbers[t].value;
        const double vb = b.numbers[t].value;
        if (!pathSelected(a.numbers[t].path, opt.keys))
            continue;
        if (va == vb)
            continue;
        const double scale = std::max(std::fabs(va), std::fabs(vb));
        const double rel = scale > 0 ? std::fabs(va - vb) / scale : 0.0;
        if (rel <= tol)
            continue;
        const bool regression = vb < va;
        if (opt.regressOnly && !regression)
            continue;
        BenchDrift d;
        d.path = a.numbers[t].path;
        d.baseline = va;
        d.current = vb;
        d.relPct = rel * 100.0;
        d.regression = regression;
        drifts.push_back(std::move(d));
    }
    return drifts;
}

std::string
formatBenchDrift(const BenchDrift &drift, const BenchDiffOptions &opt)
{
    std::ostringstream os;
    os << std::setprecision(12) << drift.path << ": " << drift.baseline
       << " -> " << drift.current << " (" << std::setprecision(3)
       << drift.relPct << "% > " << opt.tolPct << "%"
       << (drift.regression ? ", regression" : ", improvement") << ")";
    return os.str();
}

} // namespace skybyte
