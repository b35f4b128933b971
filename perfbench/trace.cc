#include "perfbench/trace.h"

#include <cstdio>
#include <memory>
#include <mutex>

#include "perfbench/common.h"

namespace perfbench {

namespace {

// One recorded span: 24 bytes, so a traced run keeps millions in memory.
struct Span {
  int64_t start_ns = 0;
  uint32_t duration_ns = 0;
  uint32_t parent = 0;   // 1 + index of the enclosing span; 0 for a root.
  uint32_t request = 0;  // Request id (low 32 bits); 0 outside requests.
  uint16_t kind = 0;
  uint16_t weight = 1;
};

constexpr size_t kMaxSpansPerThread = size_t{1} << 21;

struct ThreadBuffer {
  std::vector<Span> spans;
  uint32_t open = 0;  // 1 + index of the innermost open span; 0 if none.
  bool recording = false;
  uint16_t weight = 1;
  uint64_t dropped = 0;
};

std::mutex g_buffers_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // Guarded by g_buffers_mu.

ThreadBuffer* LocalBuffer() {
  thread_local ThreadBuffer* buffer = [] {
    auto owned = std::make_unique<ThreadBuffer>();
    ThreadBuffer* raw = owned.get();
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::move(owned));
    return raw;
  }();
  return buffer;
}

thread_local bool t_recording = false;  // Mirrors LocalBuffer()->recording.

constexpr const char* kSpanNames[] = {
    "app.request",      "app.work",        "core.invoke",      "baggage.serialize",
    "baggage.deserialize", "baggage.fork_join", "agent.interval", "agent.flush",
    "frontend.results", "query.lint",      "query.install",    "query.uninstall",
    "simsys.step",
};
static_assert(sizeof(kSpanNames) / sizeof(kSpanNames[0]) ==
              static_cast<size_t>(SpanKind::kCount));

}  // namespace

const char* SpanName(SpanKind kind) { return kSpanNames[static_cast<size_t>(kind)]; }

std::string SpanLayer(SpanKind kind) {
  std::string name = SpanName(kind);
  return name.substr(0, name.find('.'));
}

void SetThreadRecording(bool on, uint16_t weight) {
  ThreadBuffer* buffer = LocalBuffer();
  if (on && buffer->spans.capacity() < kMaxSpansPerThread) {
    // Reserve once so recording never pauses to reallocate; untouched pages
    // cost no resident memory.
    buffer->spans.reserve(kMaxSpansPerThread);
  }
  buffer->recording = on;
  buffer->weight = weight;
  t_recording = on;
}

bool ThreadRecording() { return t_recording; }

ScopedSpan::ScopedSpan(SpanKind kind, uint64_t request) {
  if (!t_recording) {
    return;
  }
  ThreadBuffer* buffer = LocalBuffer();
  if (buffer->spans.size() >= kMaxSpansPerThread) {
    ++buffer->dropped;
    return;
  }
  Span span;
  span.kind = static_cast<uint16_t>(kind);
  span.parent = buffer->open;
  // Children inherit the request of the span they nest in.
  span.request = request == 0 && span.parent != 0 ? buffer->spans[span.parent - 1].request
                                                   : static_cast<uint32_t>(request);
  span.weight = buffer->weight;
  buffer->spans.push_back(span);
  index_ = static_cast<int64_t>(buffer->spans.size() - 1);
  buffer->open = static_cast<uint32_t>(index_ + 1);
  buffer->spans.back().start_ns = NowNanos();
}

ScopedSpan::~ScopedSpan() {
  if (index_ < 0) {
    return;
  }
  int64_t end = NowNanos();
  ThreadBuffer* buffer = LocalBuffer();
  Span& span = buffer->spans[static_cast<size_t>(index_)];
  span.duration_ns = static_cast<uint32_t>(end - span.start_ns);
  buffer->open = span.parent;
}

TraceReduction ReduceSpans() {
  TraceReduction out;
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& buffer : g_buffers) {
    const std::vector<Span>& spans = buffer->spans;
    std::vector<double> child_ns(spans.size(), 0.0);
    for (const Span& span : spans) {
      if (span.parent != 0) {
        child_ns[span.parent - 1] += span.duration_ns;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      auto kind = static_cast<SpanKind>(spans[i].kind);
      double self = spans[i].duration_ns - child_ns[i];
      out.self_ns[SpanName(kind)].push_back(self);
      out.layer_self_ns[SpanLayer(kind)] += self * spans[i].weight;
    }
    out.spans += spans.size();
    out.dropped += buffer->dropped;
  }
  return out;
}

bool WriteSpans(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "thread\tindex\tparent\tname\trequest\tstart_ns\tduration_ns\tweight\n");
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (size_t t = 0; t < g_buffers.size(); ++t) {
    const std::vector<Span>& spans = g_buffers[t]->spans;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%zu\t%zu\t%ld\t%s\t%u\t%lld\t%u\t%u\n", t, i,
                   static_cast<long>(s.parent) - 1, SpanName(static_cast<SpanKind>(s.kind)),
                   s.request, static_cast<long long>(s.start_ns), s.duration_ns, s.weight);
    }
  }
  return std::fclose(f) == 0;
}

void ClearSpans() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& buffer : g_buffers) {
    buffer->spans.clear();
    buffer->open = 0;
    buffer->dropped = 0;
  }
}

}  // namespace perfbench
