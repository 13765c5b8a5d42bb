// pmu.cpp — perf_event_open(2) counter groups: one lazily-opened group
// per counting thread, single-read() snapshots, multiplexing-aware
// scaling, and lock-free per-site delta accumulation. Each group hangs
// off its thread's entry in the obs thread registry (thread_registry.h).
//
// Group layout (PERF_FORMAT_GROUP | ID | TOTAL_TIME_ENABLED |
// TOTAL_TIME_RUNNING): read() returns
//   { nr, time_enabled, time_running, { value, id } * nr }
// and the ids recorded at open time map values back to counter slots,
// so a member the kernel rejected (missing PMU event) just leaves its
// slot absent instead of shifting everything.
#include "v6class/obs/pmu.h"

#include "thread_registry.h"
#include "v6class/obs/dashboard.h"
#include "v6class/obs/metrics.h"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#define V6CLASS_HAVE_PERF 1
#endif

namespace v6::obs {

namespace pmu {

std::atomic<bool> detail::pmu_enabled{false};

namespace {

constexpr unsigned slot_of(counter c) noexcept {
    return static_cast<unsigned>(c);
}

const char* const kCounterNames[counter_slots] = {
    "cycles",        "instructions", "cache_references", "cache_misses",
    "branches",      "branch_misses", "task_clock_ns",    "page_faults",
};

int read_paranoid() {
    std::FILE* f = std::fopen("/proc/sys/kernel/perf_event_paranoid", "r");
    if (!f) return -100;
    int v = -100;
    if (std::fscanf(f, "%d", &v) != 1) v = -100;
    std::fclose(f);
    return v;
}

#if defined(V6CLASS_HAVE_PERF)

struct event_spec {
    counter slot;
    std::uint32_t type;
    std::uint64_t config;
};

// Hardware tier: cycles leads; software members always schedule, so
// they ride in the same group without consuming PMU slots.
const event_spec kHardwareGroup[] = {
    {counter::cycles, PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES},
    {counter::instructions, PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS},
    {counter::cache_references, PERF_TYPE_HARDWARE,
     PERF_COUNT_HW_CACHE_REFERENCES},
    {counter::cache_misses, PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES},
    {counter::branches, PERF_TYPE_HARDWARE,
     PERF_COUNT_HW_BRANCH_INSTRUCTIONS},
    {counter::branch_misses, PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES},
    {counter::task_clock_ns, PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK},
    {counter::page_faults, PERF_TYPE_SOFTWARE, PERF_COUNT_SW_PAGE_FAULTS},
};

// Software tier (VMs without a PMU, restrictive paranoid levels that
// still admit software clocks): task-clock leads.
const event_spec kSoftwareGroup[] = {
    {counter::task_clock_ns, PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK},
    {counter::page_faults, PERF_TYPE_SOFTWARE, PERF_COUNT_SW_PAGE_FAULTS},
};

int open_event(std::uint32_t type, std::uint64_t config, int group_fd,
               bool lead) noexcept {
    perf_event_attr attr{};
    attr.size = sizeof(attr);
    attr.type = type;
    attr.config = config;
    attr.disabled = lead ? 1 : 0;  // the whole group starts via ioctl
    attr.exclude_kernel = 1;       // required at perf_event_paranoid >= 2
    attr.exclude_hv = 1;
    attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_ID |
                       PERF_FORMAT_TOTAL_TIME_ENABLED |
                       PERF_FORMAT_TOTAL_TIME_RUNNING;
    return static_cast<int>(::syscall(SYS_perf_event_open, &attr, 0, -1,
                                      group_fd, PERF_FLAG_FD_CLOEXEC));
}

#endif  // V6CLASS_HAVE_PERF

}  // namespace

/// One thread's open counter group. Hangs off the thread's registry
/// entry, so /pmu can read every thread's fds from the snapshotting
/// thread (perf fds read cross-thread).
struct thread_group {
    int lead = -1;
    std::array<int, counter_slots> fd;
    std::array<std::uint64_t, counter_slots> id{};
    std::array<bool, counter_slots> present{};

    thread_group() { fd.fill(-1); }

#if defined(V6CLASS_HAVE_PERF)
    bool open(mode tier) noexcept {
        const event_spec* specs = kHardwareGroup;
        std::size_t n = std::size(kHardwareGroup);
        if (tier != mode::hardware) {
            specs = kSoftwareGroup;
            n = std::size(kSoftwareGroup);
        }
        for (std::size_t i = 0; i < n; ++i) {
            const bool is_lead = (lead == -1);
            int f = open_event(specs[i].type, specs[i].config, lead, is_lead);
            if (f < 0) {
                if (is_lead) return false;  // lead must open
                continue;  // optional member the CPU lacks: slot absent
            }
            const unsigned slot = slot_of(specs[i].slot);
            fd[slot] = f;
            if (is_lead) lead = f;
            if (::ioctl(f, PERF_EVENT_IOC_ID, &id[slot]) != 0) {
                ::close(f);
                fd[slot] = -1;
                if (is_lead) {
                    lead = -1;
                    return false;
                }
                continue;
            }
            present[slot] = true;
        }
        ::ioctl(lead, PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
        ::ioctl(lead, PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
        return true;
    }

    bool read_sample(sample& out) const noexcept {
        // nr + time_enabled + time_running + {value,id} per member.
        std::uint64_t buf[3 + 2 * counter_slots];
        ssize_t n;
        do {
            n = ::read(lead, buf, sizeof(buf));
        } while (n < 0 && errno == EINTR);
        if (n < static_cast<ssize_t>(3 * sizeof(std::uint64_t))) return false;
        const std::uint64_t nr = buf[0];
        out.time_enabled = buf[1];
        out.time_running = buf[2];
        for (std::uint64_t i = 0;
             i < nr && 3 + 2 * i + 1 < std::size(buf); ++i) {
            const std::uint64_t value = buf[3 + 2 * i];
            const std::uint64_t ev_id = buf[3 + 2 * i + 1];
            for (unsigned slot = 0; slot < counter_slots; ++slot) {
                if (present[slot] && id[slot] == ev_id) {
                    out.raw[slot] = value;
                    out.present[slot] = true;
                    break;
                }
            }
        }
        out.ok = true;
        return true;
    }
#else
    bool open(mode) noexcept { return false; }
    bool read_sample(sample&) const noexcept { return false; }
#endif

    void close_all() noexcept {
#if defined(V6CLASS_HAVE_PERF)
        for (int& f : fd) {
            if (f >= 0) ::close(f);
            f = -1;
        }
#endif
        lead = -1;
        present.fill(false);
    }
};

namespace {

std::mutex& probe_mutex() {
    static std::mutex m;
    return m;
}
availability& probe_cache() {
    static auto* a = new availability;
    return *a;
}
bool g_probed = false;

availability run_probe() {
    availability out;
    const char* env = std::getenv("V6CLASS_DISABLE_PMU");
    if (env && *env && std::strcmp(env, "0") != 0) {
        out.tier = mode::unavailable;
        out.reason = "disabled by V6CLASS_DISABLE_PMU";
        return out;
    }
#if defined(V6CLASS_HAVE_PERF)
    int f = open_event(PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES, -1, true);
    if (f >= 0) {
        ::close(f);
        out.tier = mode::hardware;
        out.reason = "ok";
        return out;
    }
    const int hw_errno = errno;
    f = open_event(PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK, -1, true);
    char msg[160];
    if (f >= 0) {
        ::close(f);
        out.tier = mode::software;
        std::snprintf(msg, sizeof(msg),
                      "no hardware PMU (%s); perf_event_paranoid=%d",
                      std::strerror(hw_errno), read_paranoid());
        out.reason = msg;
        return out;
    }
    std::snprintf(msg, sizeof(msg),
                  "perf_event_open denied (%s); perf_event_paranoid=%d",
                  std::strerror(errno), read_paranoid());
    out.tier = mode::unavailable;
    out.reason = msg;
    return out;
#else
    out.tier = mode::unavailable;
    out.reason = "perf_event_open unsupported on this platform";
    return out;
#endif
}

thread_group* current_group() noexcept {
    obs::detail::thread_entry* e = obs::detail::this_thread();
    if (!e) return nullptr;
    if (e->group_tried) return e->group;
    e->group_tried = true;
    const availability& a = available();
    if (!a.counting()) return nullptr;
    auto g = std::make_unique<thread_group>();
    if (!g->open(a.tier)) return nullptr;  // per-thread failure (fd limit)
    std::lock_guard<std::mutex> lk(obs::detail::threads().mutex);
    e->group = g.release();
    return e->group;
}

// ---- site accumulation: fixed static slots, lock-free lookup.

constexpr std::size_t kMaxSites = 64;

}  // namespace

namespace detail {

struct site_rec {
    const char* name = nullptr;
    std::atomic<std::uint64_t> spans{0};
    std::array<std::atomic<std::uint64_t>, counter_slots> total{};
    std::atomic<unsigned> present_mask{0};
};

namespace {
site_rec g_sites[kMaxSites];
std::atomic<std::size_t> g_site_count{0};
std::mutex g_site_mutex;
}  // namespace

site_rec* intern_site(const char* name) noexcept {
    std::size_t n = g_site_count.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n; ++i)  // fast path: literal identity
        if (g_sites[i].name == name) return &g_sites[i];
    for (std::size_t i = 0; i < n; ++i)  // same literal, other TU
        if (std::strcmp(g_sites[i].name, name) == 0) return &g_sites[i];
    std::lock_guard<std::mutex> lk(g_site_mutex);
    n = g_site_count.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < n; ++i)
        if (std::strcmp(g_sites[i].name, name) == 0) return &g_sites[i];
    if (n == kMaxSites) return nullptr;  // full: further sites uncounted
    g_sites[n].name = name;
    g_site_count.store(n + 1, std::memory_order_release);
    return &g_sites[n];
}

void scope_end(site_rec* site, const sample& begin) noexcept {
    sample end_s = read_current();
    if (!end_s.ok || !begin.ok) return;
    const std::uint64_t d_en = end_s.time_enabled - begin.time_enabled;
    const std::uint64_t d_run = end_s.time_running - begin.time_running;
    unsigned mask = 0;
    for (unsigned i = 0; i < counter_slots; ++i) {
        if (!end_s.present[i] || !begin.present[i]) continue;
        const std::uint64_t d =
            end_s.raw[i] >= begin.raw[i] ? end_s.raw[i] - begin.raw[i] : 0;
        site->total[i].fetch_add(scale_value(d, d_en, d_run),
                                 std::memory_order_relaxed);
        mask |= 1u << i;
    }
    site->present_mask.fetch_or(mask, std::memory_order_relaxed);
    site->spans.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace detail

const char* counter_name(counter c) noexcept {
    return kCounterNames[slot_of(c)];
}

const char* mode_name(mode m) noexcept {
    switch (m) {
        case mode::hardware: return "hardware";
        case mode::software: return "software";
        case mode::unavailable: return "unavailable";
    }
    return "unavailable";
}

const availability& available() {
    std::lock_guard<std::mutex> lk(probe_mutex());
    if (!g_probed) {
        probe_cache() = run_probe();
        g_probed = true;
    }
    return probe_cache();
}

void enable() noexcept {
    if (available().counting())
        detail::pmu_enabled.store(true, std::memory_order_relaxed);
}

void disable() noexcept {
    detail::pmu_enabled.store(false, std::memory_order_relaxed);
}

bool enabled() noexcept {
    return detail::pmu_enabled.load(std::memory_order_relaxed);
}

std::uint64_t scale_value(std::uint64_t raw, std::uint64_t enabled,
                          std::uint64_t running) noexcept {
    if (running == 0) return enabled == 0 ? raw : 0;
    if (enabled == running) return raw;
    const double scaled = static_cast<double>(raw) *
                          (static_cast<double>(enabled) /
                           static_cast<double>(running));
    return static_cast<std::uint64_t>(scaled + 0.5);
}

sample read_current() noexcept {
    sample s{};
    thread_group* g = current_group();
    if (g) g->read_sample(s);
    return s;
}

double site_stats::ipc() const noexcept {
    const std::uint64_t cyc = (*this)[counter::cycles];
    if (!has(counter::cycles) || !has(counter::instructions) || cyc == 0)
        return 0.0;
    return static_cast<double>((*this)[counter::instructions]) /
           static_cast<double>(cyc);
}

double site_stats::cache_miss_rate() const noexcept {
    const std::uint64_t refs = (*this)[counter::cache_references];
    if (!has(counter::cache_references) || !has(counter::cache_misses) ||
        refs == 0)
        return 0.0;
    return static_cast<double>((*this)[counter::cache_misses]) /
           static_cast<double>(refs);
}

double site_stats::branch_miss_rate() const noexcept {
    const std::uint64_t br = (*this)[counter::branches];
    if (!has(counter::branches) || !has(counter::branch_misses) || br == 0)
        return 0.0;
    return static_cast<double>((*this)[counter::branch_misses]) /
           static_cast<double>(br);
}

namespace {

site_stats load_site(const detail::site_rec& rec) {
    site_stats st;
    st.name = rec.name;
    st.spans = rec.spans.load(std::memory_order_relaxed);
    const unsigned mask = rec.present_mask.load(std::memory_order_relaxed);
    for (unsigned i = 0; i < counter_slots; ++i) {
        st.total[i] = rec.total[i].load(std::memory_order_relaxed);
        st.present[i] = (mask >> i) & 1u;
    }
    return st;
}

}  // namespace

std::vector<site_stats> site_snapshot() {
    std::vector<site_stats> out;
    const std::size_t n =
        detail::g_site_count.load(std::memory_order_acquire);
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(load_site(detail::g_sites[i]));
    return out;
}

site_stats site_totals(const char* name) {
    const std::size_t n =
        detail::g_site_count.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n; ++i)
        if (std::strcmp(detail::g_sites[i].name, name) == 0)
            return load_site(detail::g_sites[i]);
    site_stats st;
    st.name = name;
    return st;
}

std::vector<thread_sample> thread_snapshot() {
    std::vector<thread_sample> out;
    obs::detail::thread_registry& r = obs::detail::threads();
    std::lock_guard<std::mutex> lk(r.mutex);
    for (const obs::detail::thread_entry* e : r.entries) {
        if (!e->group) continue;
        thread_sample ts;
        ts.tid = e->tid;
        ts.name = e->name;
        if (ts.name.empty()) ts.name = "tid-" + std::to_string(e->tid);
        e->group->read_sample(ts.s);
        out.push_back(std::move(ts));
    }
    return out;
}

void reset_for_test() {
    disable();
    if (obs::detail::thread_entry* e = obs::detail::this_thread()) {
        thread_group* g = nullptr;
        {
            std::lock_guard<std::mutex> lk(obs::detail::threads().mutex);
            std::swap(g, e->group);
        }
        e->group_tried = false;
        if (g) obs::detail::close_group(g);
    }
    {
        std::lock_guard<std::mutex> lk(detail::g_site_mutex);
        const std::size_t n =
            detail::g_site_count.load(std::memory_order_relaxed);
        for (std::size_t i = 0; i < n; ++i) {
            detail::g_sites[i].spans.store(0, std::memory_order_relaxed);
            detail::g_sites[i].present_mask.store(0,
                                                  std::memory_order_relaxed);
            for (auto& t : detail::g_sites[i].total)
                t.store(0, std::memory_order_relaxed);
        }
        detail::g_site_count.store(0, std::memory_order_release);
    }
    std::lock_guard<std::mutex> lk(probe_mutex());
    g_probed = false;
}

// ---- rendering -----------------------------------------------------

namespace {

void append_num(std::string& out, double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    out += buf;
}

void append_counters_json(std::string& out,
                          const std::array<std::uint64_t, counter_slots>& v,
                          const std::array<bool, counter_slots>& present) {
    out += "{";
    bool first = true;
    for (unsigned i = 0; i < counter_slots; ++i) {
        if (!present[i]) continue;
        if (!first) out += ",";
        first = false;
        out += "\"";
        out += kCounterNames[i];
        out += "\":";
        append_u64(out, v[i]);
    }
    out += "}";
}

double sample_ipc(const sample& s) {
    if (!s.has(counter::cycles) || !s.has(counter::instructions)) return 0.0;
    const std::uint64_t cyc = s.scaled(counter::cycles);
    if (cyc == 0) return 0.0;
    return static_cast<double>(s.scaled(counter::instructions)) /
           static_cast<double>(cyc);
}

}  // namespace

std::string snapshot_json() {
    const availability& a = available();
    std::string out;
    out.reserve(2048);
    out += "{\"mode\":\"";
    out += mode_name(a.tier);
    out += "\",\"reason\":\"";
    out += json_escape(a.reason);
    out += "\",\"enabled\":";
    out += enabled() ? "true" : "false";
    out += ",\"threads\":[";
    bool first = true;
    for (const thread_sample& ts : thread_snapshot()) {
        if (!ts.s.ok) continue;
        if (!first) out += ",";
        first = false;
        out += "{\"tid\":";
        append_u64(out, ts.tid);
        out += ",\"name\":\"";
        out += json_escape(ts.name);
        out += "\",\"time_enabled\":";
        append_u64(out, ts.s.time_enabled);
        out += ",\"time_running\":";
        append_u64(out, ts.s.time_running);
        std::array<std::uint64_t, counter_slots> scaled{};
        for (unsigned i = 0; i < counter_slots; ++i)
            scaled[i] = ts.s.scaled(static_cast<counter>(i));
        out += ",\"counters\":";
        append_counters_json(out, scaled, ts.s.present);
        out += ",\"ipc\":";
        append_num(out, sample_ipc(ts.s));
        out += "}";
    }
    out += "],\"sites\":[";
    first = true;
    for (const site_stats& st : site_snapshot()) {
        if (st.spans == 0) continue;
        if (!first) out += ",";
        first = false;
        out += "{\"site\":\"";
        out += json_escape(st.name);
        out += "\",\"spans\":";
        append_u64(out, st.spans);
        out += ",\"counters\":";
        append_counters_json(out, st.total, st.present);
        out += ",\"ipc\":";
        append_num(out, st.ipc());
        out += ",\"cache_miss_rate\":";
        append_num(out, st.cache_miss_rate());
        out += ",\"branch_miss_rate\":";
        append_num(out, st.branch_miss_rate());
        out += "}";
    }
    out += "]}";
    return out;
}

std::string topdown_html() {
    const availability& a = available();
    std::string out;
    out.reserve(4096);
    out +=
        "<!doctype html><html><head><meta charset=\"utf-8\">"
        "<title>v6class pmu</title><style>"
        "body{font-family:system-ui,sans-serif;background:#11161d;"
        "color:#d5dde6;margin:24px}"
        "h1{font-size:20px}h2{font-size:15px;color:#8fa3b8;margin-top:28px}"
        "table{border-collapse:collapse;font-size:13px;font-variant-numeric:"
        "tabular-nums}"
        "th,td{padding:4px 12px;text-align:right;border-bottom:1px solid "
        "#273243}"
        "th{color:#8fa3b8;font-weight:600}"
        "td:first-child,th:first-child{text-align:left}"
        ".muted{color:#64748b}</style></head><body>"
        "<h1>hardware counters</h1><p class=\"muted\">mode: ";
    out += html_escape(mode_name(a.tier));
    out += " &middot; ";
    out += html_escape(a.reason);
    out += " &middot; scopes ";
    out += enabled() ? "enabled" : "disabled";
    out += "</p>";

    auto fmt_cell = [](std::string& o, std::uint64_t v, bool present) {
        o += "<td>";
        if (present)
            append_u64(o, v);
        else
            o += "&mdash;";
        o += "</td>";
    };
    auto pct = [](std::string& o, double v) {
        o += "<td>";
        append_num(o, v * 100.0);
        o += "%</td>";
    };

    out += "<h2>threads</h2><table><tr><th>thread</th><th>tid</th>"
           "<th>task-clock ms</th><th>cycles</th><th>instr</th><th>IPC</th>"
           "<th>cache refs</th><th>cache miss%</th><th>branches</th>"
           "<th>branch miss%</th><th>faults</th><th>mux%</th></tr>";
    for (const thread_sample& ts : thread_snapshot()) {
        if (!ts.s.ok) continue;
        out += "<tr><td>";
        out += html_escape(ts.name);
        out += "</td><td>";
        append_u64(out, ts.tid);
        out += "</td><td>";
        append_num(out, static_cast<double>(
                            ts.s.scaled(counter::task_clock_ns)) /
                            1e6);
        out += "</td>";
        fmt_cell(out, ts.s.scaled(counter::cycles), ts.s.has(counter::cycles));
        fmt_cell(out, ts.s.scaled(counter::instructions),
                 ts.s.has(counter::instructions));
        out += "<td>";
        append_num(out, sample_ipc(ts.s));
        out += "</td>";
        fmt_cell(out, ts.s.scaled(counter::cache_references),
                 ts.s.has(counter::cache_references));
        const std::uint64_t refs = ts.s.scaled(counter::cache_references);
        pct(out, refs ? static_cast<double>(
                            ts.s.scaled(counter::cache_misses)) /
                            static_cast<double>(refs)
                      : 0.0);
        fmt_cell(out, ts.s.scaled(counter::branches),
                 ts.s.has(counter::branches));
        const std::uint64_t br = ts.s.scaled(counter::branches);
        pct(out, br ? static_cast<double>(
                          ts.s.scaled(counter::branch_misses)) /
                          static_cast<double>(br)
                    : 0.0);
        fmt_cell(out, ts.s.scaled(counter::page_faults),
                 ts.s.has(counter::page_faults));
        pct(out, ts.s.time_enabled
                     ? static_cast<double>(ts.s.time_running) /
                           static_cast<double>(ts.s.time_enabled)
                     : 1.0);
        out += "</tr>";
    }
    out += "</table>";

    out += "<h2>sites</h2><table><tr><th>site</th><th>spans</th>"
           "<th>task-clock ms</th><th>cycles</th><th>instr</th><th>IPC</th>"
           "<th>cache miss%</th><th>branch miss%</th><th>faults</th></tr>";
    for (const site_stats& st : site_snapshot()) {
        if (st.spans == 0) continue;
        out += "<tr><td>";
        out += html_escape(st.name);
        out += "</td><td>";
        append_u64(out, st.spans);
        out += "</td><td>";
        append_num(out,
                   static_cast<double>(st[counter::task_clock_ns]) / 1e6);
        out += "</td>";
        fmt_cell(out, st[counter::cycles], st.has(counter::cycles));
        fmt_cell(out, st[counter::instructions],
                 st.has(counter::instructions));
        out += "<td>";
        append_num(out, st.ipc());
        out += "</td>";
        pct(out, st.cache_miss_rate());
        pct(out, st.branch_miss_rate());
        fmt_cell(out, st[counter::page_faults], st.has(counter::page_faults));
        out += "</tr>";
    }
    out += "</table></body></html>";
    return out;
}

void export_gauges(registry& reg) {
    const availability& a = available();
    reg.get_gauge("v6class_pmu_available",
                  {{"mode", mode_name(a.tier)}, {"reason", a.reason}},
                  "PMU availability tier (0 unavailable, 1 software-only, "
                  "2 hardware)")
        .set(static_cast<int>(a.tier));
    for (const site_stats& st : site_snapshot()) {
        if (st.spans == 0) continue;
        const label_list labels{{"site", st.name}};
        reg.get_gauge("v6class_pmu_site_spans", labels,
                      "span activations counted per site")
            .set(static_cast<std::int64_t>(st.spans));
        if (st.has(counter::task_clock_ns))
            reg.get_dgauge("v6class_pmu_task_clock_seconds", labels,
                           "CPU seconds attributed to the site")
                .set(static_cast<double>(st[counter::task_clock_ns]) / 1e9);
        if (st.has(counter::cycles) && st.has(counter::instructions))
            reg.get_dgauge("v6class_pmu_ipc", labels,
                           "instructions per cycle inside the site")
                .set(st.ipc());
        if (st.has(counter::cache_references) &&
            st.has(counter::cache_misses))
            reg.get_dgauge("v6class_pmu_cache_miss_rate", labels,
                           "cache misses / cache references inside the site")
                .set(st.cache_miss_rate());
        if (st.has(counter::branches) && st.has(counter::branch_misses))
            reg.get_dgauge("v6class_pmu_branch_miss_rate", labels,
                           "branch misses / branches inside the site")
                .set(st.branch_miss_rate());
    }
}

}  // namespace pmu

void detail::close_group(pmu::thread_group* g) noexcept {
    g->close_all();
    delete g;
}

}  // namespace v6::obs
