// record.h — the unit of a live observation feed.
//
// A streaming deployment (Section 5.1: "we wish to perform stability
// analysis on an ongoing basis") does not hand us finished day files; it
// hands us an unbounded sequence of (day, address[, hits]) observations.
// The line format is the corpus format prefixed with the log-processed
// day — "day address [hits]" — so a corpus can be replayed verbatim and
// a collector can emit records as they happen.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string_view>

#include "v6class/ip/address.h"
#include "v6class/ip/io.h"

namespace v6 {

/// One observation from a live feed.
struct stream_record {
    int day = 0;             ///< log-processed day index (see daily_series)
    address addr;            ///< observed client/interface address
    std::uint64_t hits = 1;  ///< aggregated hit count for this observation

    friend bool operator==(const stream_record&, const stream_record&) = default;
};

/// Parses one "day address [hits]" feed line (already trimmed, non-empty,
/// not a comment). Returns false on any syntax error.
bool parse_stream_record(std::string_view text, stream_record& out) noexcept;

/// Reads feed lines from a stream, handing each parsed record to `sink`
/// with its 1-based line number; a false return stops the read. Blank
/// lines and '#' comments are tolerated; malformed lines are counted
/// with their line numbers, exactly like read_address_lines, and passed
/// to `on_malformed` (when set) as they are read.
read_report read_stream_records(
    std::istream& in,
    const std::function<bool(const stream_record&, std::uint64_t line)>& sink,
    const std::function<void(const read_error&)>& on_malformed = {});

/// Writes one "day address hits" line.
void write_stream_record(std::ostream& out, const stream_record& r);

}  // namespace v6
