/**
 * @file
 * Minimal JSON object writer for machine-readable bench output.
 *
 * The perf-tracking workflow diffs per-bench throughput records
 * (BENCH_*.json) across commits; this writer covers exactly the flat
 * string/number objects those records need without pulling in a JSON
 * dependency. Numbers are emitted with enough digits to round-trip.
 */
#pragma once

#include <cstdint>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace declust {

/**
 * Ordered JSON object: string, integer, double, number-array or
 * nested-object fields. Each value is rendered to its JSON text when
 * set; a nested object's lines are indented by its parent on output.
 */
class JsonObject
{
  public:
    JsonObject &
    set(std::string key, const std::string &value)
    {
        return add(std::move(key), '"' + escaped(value) + '"');
    }

    JsonObject &
    set(std::string key, const char *value)
    {
        return set(std::move(key), std::string(value));
    }

    JsonObject &
    set(std::string key, std::int64_t value)
    {
        return add(std::move(key), std::to_string(value));
    }

    JsonObject &
    set(std::string key, std::uint64_t value)
    {
        return set(std::move(key), static_cast<std::int64_t>(value));
    }

    JsonObject &
    set(std::string key, int value)
    {
        return set(std::move(key), static_cast<std::int64_t>(value));
    }

    JsonObject &
    set(std::string key, double value)
    {
        return add(std::move(key), number(value));
    }

    /** Nest another object under @p key. */
    JsonObject &
    set(std::string key, const JsonObject &value)
    {
        return add(std::move(key), value.render());
    }

    /** Flat array of numbers under @p key (e.g. per-shard walls). */
    JsonObject &
    set(std::string key, const std::vector<double> &values)
    {
        std::string text = "[";
        for (std::size_t i = 0; i < values.size(); ++i)
            text += (i ? ", " : "") + number(values[i]);
        return add(std::move(key), text + ']');
    }

    /** Serialize as a single pretty-printed object. */
    void
    write(std::ostream &os) const
    {
        os << render() << '\n';
    }

    std::string
    str() const
    {
        return render() + '\n';
    }

  private:
    JsonObject &
    add(std::string key, std::string text)
    {
        fields_.emplace_back(std::move(key), std::move(text));
        return *this;
    }

    /** The object's text, its fields two spaces in, with no trailing
     * newline; a nested value's own lines move in with its field. */
    std::string
    render() const
    {
        std::string out = "{\n";
        for (std::size_t i = 0; i < fields_.size(); ++i) {
            out += "  \"" + escaped(fields_[i].first) + "\": ";
            for (char c : fields_[i].second) {
                out += c;
                if (c == '\n')
                    out += "  ";
            }
            out += i + 1 < fields_.size() ? ",\n" : "\n";
        }
        return out + '}';
    }

    static std::string
    escaped(const std::string &s)
    {
        std::string out;
        out.reserve(s.size());
        for (char c : s) {
            switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default: out += c; break;
            }
        }
        return out;
    }

    static std::string
    number(double value)
    {
        std::ostringstream num;
        num.precision(17);
        num << value;
        return num.str();
    }

    std::vector<std::pair<std::string, std::string>> fields_;
};

} // namespace declust
