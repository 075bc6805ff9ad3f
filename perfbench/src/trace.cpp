#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench
{

namespace
{

const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();

struct ThreadBuf
{
    uint32_t thread = 0;
    std::vector<SpanRecord> open;
    std::vector<SpanRecord> done;
};

std::atomic<bool> gEnabled{false};
std::atomic<uint64_t> gNextId{1};
uint64_t gRunId = 0;
std::mutex gMutex;
std::vector<std::unique_ptr<ThreadBuf>> gBuffers;
std::map<std::string, double> gCounts;
thread_local ThreadBuf *tlBuf = nullptr;

ThreadBuf &
threadBuf()
{
    if (!tlBuf) {
        std::lock_guard<std::mutex> lock(gMutex);
        gBuffers.push_back(std::make_unique<ThreadBuf>());
        tlBuf = gBuffers.back().get();
        tlBuf->thread = (uint32_t)(gBuffers.size() - 1);
        tlBuf->done.reserve(4096);
    }
    return *tlBuf;
}

void
writeEscaped(FILE *f, const std::string &s)
{
    std::fputc('"', f);
    for (char c : s) {
        if (c == '"' || c == '\\')
            std::fputc('\\', f);
        std::fputc(c, f);
    }
    std::fputc('"', f);
}

} // namespace

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - kEpoch)
        .count();
}

double
nowSeconds()
{
    return (double)nowNs() * 1e-9;
}

void
Tracer::enable(uint64_t run_id)
{
    gRunId = run_id;
    gEnabled.store(true);
}

bool
Tracer::enabled()
{
    return gEnabled.load(std::memory_order_relaxed);
}

uint64_t
Tracer::begin(const char *name, uint64_t parent)
{
    ThreadBuf &buf = threadBuf();
    SpanRecord rec;
    rec.id = gNextId.fetch_add(1, std::memory_order_relaxed);
    rec.parent = parent ? parent
                        : (buf.open.empty() ? 0 : buf.open.back().id);
    rec.name = name;
    rec.thread = buf.thread;
    rec.startNs = nowNs();
    buf.open.push_back(rec);
    return rec.id;
}

void
Tracer::end()
{
    ThreadBuf &buf = threadBuf();
    SpanRecord rec = buf.open.back();
    buf.open.pop_back();
    rec.endNs = nowNs();
    buf.done.push_back(rec);
}

void
Tracer::count(const std::string &name, double value)
{
    std::lock_guard<std::mutex> lock(gMutex);
    gCounts[name] += value;
}

std::vector<SpanRecord>
Tracer::spans()
{
    std::lock_guard<std::mutex> lock(gMutex);
    std::vector<SpanRecord> all;
    for (const auto &buf : gBuffers)
        all.insert(all.end(), buf->done.begin(), buf->done.end());
    std::sort(all.begin(), all.end(),
              [](const SpanRecord &a, const SpanRecord &b) {
                  return a.id < b.id;
              });
    return all;
}

std::map<std::string, double>
Tracer::counts()
{
    std::lock_guard<std::mutex> lock(gMutex);
    return gCounts;
}

bool
Tracer::write(const std::string &path, const std::string &host_json)
{
    const std::vector<SpanRecord> all = spans();
    const std::map<std::string, double> cnt = counts();
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"run_id\": %llu, \"host\": %s, \"spans\": [",
                 (unsigned long long)gRunId, host_json.c_str());
    for (size_t i = 0; i < all.size(); ++i) {
        const SpanRecord &s = all[i];
        std::fprintf(f,
                     "%s\n{\"id\": %llu, \"parent\": %llu, \"name\": "
                     "\"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                     "\"thread\": %u, \"run_id\": %llu}",
                     i ? "," : "", (unsigned long long)s.id,
                     (unsigned long long)s.parent, s.name,
                     (long long)s.startNs, (long long)s.endNs, s.thread,
                     (unsigned long long)gRunId);
    }
    std::fprintf(f, "],\n\"counts\": {");
    bool first = true;
    for (const auto &kv : cnt) {
        std::fprintf(f, "%s\n", first ? "" : ",");
        writeEscaped(f, kv.first);
        std::fprintf(f, ": %.17g", kv.second);
        first = false;
    }
    std::fprintf(f, "}}\n");
    return std::fclose(f) == 0;
}

SpanIndex::SpanIndex(std::vector<SpanRecord> spans)
    : spans_(std::move(spans))
{
    for (size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].parent)
            children_[spans_[i].parent].push_back(i);
}

std::vector<double>
SpanIndex::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const SpanRecord &s : spans_)
        if (name == s.name)
            out.push_back(s.seconds());
    return out;
}

const SpanRecord *
SpanIndex::byId(uint64_t id) const
{
    auto it = std::lower_bound(
        spans_.begin(), spans_.end(), id,
        [](const SpanRecord &s, uint64_t v) { return s.id < v; });
    return it != spans_.end() && it->id == id ? &*it : nullptr;
}

const std::vector<size_t> &
SpanIndex::children(uint64_t id) const
{
    static const std::vector<size_t> kNone;
    auto it = children_.find(id);
    return it == children_.end() ? kNone : it->second;
}

double
SpanIndex::selfSeconds(const SpanRecord &span) const
{
    // Union of the children's intervals, clipped to the parent: child
    // spans on worker threads may overlap one another.
    std::vector<std::pair<int64_t, int64_t>> iv;
    for (size_t c : children(span.id))
        iv.push_back({std::max(spans_[c].startNs, span.startNs),
                      std::min(spans_[c].endNs, span.endNs)});
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, cur_lo = 0, cur_hi = -1;
    for (const auto &[lo, hi] : iv) {
        if (hi <= lo)
            continue;
        if (cur_hi < lo) {
            if (cur_hi > cur_lo)
                covered += cur_hi - cur_lo;
            cur_lo = lo;
            cur_hi = hi;
        } else {
            cur_hi = std::max(cur_hi, hi);
        }
    }
    if (cur_hi > cur_lo)
        covered += cur_hi - cur_lo;
    return (double)(span.endNs - span.startNs - covered) * 1e-9;
}

double
SpanIndex::selfSeconds(const std::string &name) const
{
    double total = 0.0;
    for (const SpanRecord &s : spans_)
        if (name == s.name)
            total += selfSeconds(s);
    return total;
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    size_t rank = (size_t)std::ceil(q * (double)values.size());
    rank = std::min(std::max<size_t>(rank, 1), values.size());
    return values[rank - 1];
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

} // namespace perfbench
