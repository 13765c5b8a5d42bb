#include "v6class/obs/event_log.h"

#include <chrono>
#include <cstdio>

#include "v6class/obs/atomic_file.h"

namespace v6::obs {

const char* event_level_name(event_level level) noexcept {
    switch (level) {
        case event_level::info: return "info";
        case event_level::warn: return "warn";
        case event_level::error: return "error";
    }
    return "info";
}

std::string event_field_number(double v) {
    char buf[64];
    // %.17g round-trips but is noisy; %.12g is plenty for event payloads.
    std::snprintf(buf, sizeof buf, "%.12g", v);
    return buf;
}

std::string event_field_string(const std::string& v) {
    return "\"" + json_escape(v) + "\"";
}

std::string event_json(const event& e) {
    char head[96];
    std::snprintf(head, sizeof head, "{\"seq\":%llu,\"time\":%.3f,",
                  static_cast<unsigned long long>(e.seq), e.unix_time);
    std::string out = head;
    out += "\"level\":\"";
    out += event_level_name(e.level);
    out += "\",\"kind\":\"" + json_escape(e.kind) + "\",\"message\":\"" +
           json_escape(e.message) + "\",\"fields\":{";
    for (std::size_t i = 0; i < e.fields.size(); ++i) {
        if (i) out += ',';
        out += "\"" + json_escape(e.fields[i].first) + "\":" + e.fields[i].second;
    }
    out += "}}";
    return out;
}

event_log::~event_log() {
    std::lock_guard lock(mutex_);
    if (file_) std::fclose(file_);
}

void event_log::log(event_level level, std::string kind, std::string message,
                    event_fields fields) {
    event e;
    e.unix_time = std::chrono::duration<double>(
                      std::chrono::system_clock::now().time_since_epoch())
                      .count();
    e.level = level;
    e.kind = std::move(kind);
    e.message = std::move(message);
    e.fields = std::move(fields);
    std::lock_guard lock(mutex_);
    e.seq = ++total_;
    if (file_) {
        const std::string line = event_json(e) + "\n";
        if (file_max_bytes_ > 0 && file_bytes_ + line.size() > file_max_bytes_ &&
            file_bytes_ > 0)
            rotate_file_locked();
        if (file_) {
            if (std::fwrite(line.data(), 1, line.size(), file_) == line.size())
                file_bytes_ += line.size();
            std::fflush(file_);
            file_bytes_gauge_.set(static_cast<std::int64_t>(file_bytes_));
        }
    }
    events_.push_back(std::move(e));
    if (events_.size() > keep_) events_.pop_front();
}

void event_log::rotate_file_locked() {
    std::fclose(file_);
    file_ = nullptr;
    const std::string old = file_path_ + ".1";
    std::remove(old.c_str());
    std::rename(file_path_.c_str(), old.c_str());
    file_ = std::fopen(file_path_.c_str(), "w");
    file_bytes_ = 0;
    ++rotation_count_;
    rotations_.inc();
    file_bytes_gauge_.set(0);
    // When the reopen fails (directory vanished) streaming stops; the
    // in-memory log is unaffected.
}

bool event_log::enable_file(const std::string& path, std::uint64_t max_bytes,
                            registry* reg) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::lock_guard lock(mutex_);
    if (file_) std::fclose(file_);
    file_ = f;
    file_path_ = path;
    file_max_bytes_ = max_bytes;
    file_bytes_ = 0;
    if (reg) {
        rotations_ = reg->get_counter(
            "v6class_event_log_rotations_total", {},
            "Size-capped rotations of the streaming --events-out file.");
        file_bytes_gauge_ = reg->get_gauge(
            "v6class_event_log_file_bytes", {},
            "Current size of the streaming --events-out file.");
    }
    for (const event& e : events_) {
        const std::string line = event_json(e) + "\n";
        if (std::fwrite(line.data(), 1, line.size(), file_) == line.size())
            file_bytes_ += line.size();
    }
    std::fflush(file_);
    file_bytes_gauge_.set(static_cast<std::int64_t>(file_bytes_));
    return true;
}

bool event_log::file_enabled() const {
    std::lock_guard lock(mutex_);
    return file_ != nullptr;
}

std::uint64_t event_log::rotations() const {
    std::lock_guard lock(mutex_);
    return rotation_count_;
}

std::uint64_t event_log::file_bytes() const {
    std::lock_guard lock(mutex_);
    return file_bytes_;
}

std::vector<event> event_log::since(std::uint64_t after_seq) const {
    std::lock_guard lock(mutex_);
    std::vector<event> out;
    for (const event& e : events_)
        if (e.seq > after_seq) out.push_back(e);
    return out;
}

std::uint64_t event_log::total() const {
    std::lock_guard lock(mutex_);
    return total_;
}

std::vector<event> event_log::recent(std::size_t n) const {
    std::lock_guard lock(mutex_);
    const std::size_t count = std::min(n, events_.size());
    return {events_.end() - static_cast<std::ptrdiff_t>(count), events_.end()};
}

std::string event_log::json_lines() const {
    std::lock_guard lock(mutex_);
    std::string out;
    for (const event& e : events_) {
        out += event_json(e);
        out += '\n';
    }
    return out;
}

bool event_log::dump(const std::string& path) const {
    return atomic_write_file(path, json_lines());
}

event_log& event_log::global() {
    static event_log log;
    return log;
}

}  // namespace v6::obs
