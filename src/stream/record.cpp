#include "v6class/stream/record.h"

#include <charconv>
#include <istream>
#include <ostream>

namespace v6 {

namespace {

std::string_view trim(std::string_view s) noexcept {
    while (!s.empty() && (s.front() == ' ' || s.front() == '\t' || s.front() == '\r'))
        s.remove_prefix(1);
    while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r'))
        s.remove_suffix(1);
    return s;
}

std::string_view take_field(std::string_view& rest) noexcept {
    const std::size_t space = rest.find_first_of(" \t");
    std::string_view field = rest.substr(0, space);
    rest = space == std::string_view::npos ? std::string_view{}
                                           : trim(rest.substr(space));
    return field;
}

}  // namespace

bool parse_stream_record(std::string_view text, stream_record& out) noexcept {
    std::string_view rest = text;
    const std::string_view day_text = take_field(rest);
    const std::string_view addr_text = take_field(rest);
    if (day_text.empty() || addr_text.empty()) return false;

    int day = 0;
    auto [dptr, dec] =
        std::from_chars(day_text.data(), day_text.data() + day_text.size(), day);
    if (dec != std::errc{} || dptr != day_text.data() + day_text.size()) return false;

    const auto addr = address::parse(addr_text);
    if (!addr) return false;

    std::uint64_t hits = 1;
    if (!rest.empty()) {
        const std::string_view hits_text = take_field(rest);
        if (!rest.empty()) return false;  // trailing garbage
        auto [hptr, hec] = std::from_chars(
            hits_text.data(), hits_text.data() + hits_text.size(), hits);
        if (hec != std::errc{} || hptr != hits_text.data() + hits_text.size() ||
            hits == 0)
            return false;
    }
    out = stream_record{day, *addr, hits};
    return true;
}

read_report read_stream_records(
    std::istream& in,
    const std::function<bool(const stream_record&, std::uint64_t line)>& sink,
    const std::function<void(const read_error&)>& on_malformed) {
    read_report report;
    std::string line;
    stream_record record;
    while (std::getline(in, line)) {
        ++report.lines;
        const std::string_view text = trim(line);
        if (text.empty()) {
            ++report.blank;
            continue;
        }
        if (text.front() == '#') {
            ++report.comments;
            continue;
        }
        if (!parse_stream_record(text, record)) {
            ++report.malformed;
            const read_error error{report.lines, line};
            if (on_malformed) on_malformed(error);
            if (report.first_errors.size() < 8) report.first_errors.push_back(error);
            continue;
        }
        ++report.parsed;
        if (!sink(record, report.lines)) break;
    }
    return report;
}

void write_stream_record(std::ostream& out, const stream_record& r) {
    out << r.day << ' ' << r.addr.to_string() << ' ' << r.hits << '\n';
}

}  // namespace v6
