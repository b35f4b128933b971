// Span recording for the traced run, and the reducer that turns the span
// buffers into per-layer self time.
//
// Every span wraps one call the benchmark makes into a layer's public API
// (Tracepoint::Invoke, Baggage::Serialize, PTAgent::Flush, ...). Each thread
// appends to its own in-memory buffer; nothing is shared on the recording
// path. Buffers outlive their threads and are reduced, and written out, when
// the run ends. Recording is off unless a thread turns it on, so the untraced
// run pays one thread-local flag test per span site.

#ifndef PIVOT_PERFBENCH_TRACE_H_
#define PIVOT_PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanKind : uint16_t {
  kRequest,        // app.request: one application request, the root.
  kAppWork,        // app.work: the fixed application work of one hop.
  kInvoke,         // core.invoke: Tracepoint::Invoke.
  kSerialize,      // baggage.serialize: Baggage::Serialize.
  kDeserialize,    // baggage.deserialize: Baggage::Deserialize.
  kForkJoin,       // baggage.fork_join: ExecutionContext::Fork + Join of a fan-out.
  kFlushInterval,  // agent.interval: one reporting interval's flush of every agent.
  kAgentFlush,     // agent.flush: PTAgent::Flush (includes bus delivery).
  kResults,        // frontend.results: one dashboard poll of Frontend::Results.
  kLint,           // query.lint: Frontend::Lint.
  kInstall,        // query.install: Frontend::Install.
  kUninstall,      // query.uninstall: Frontend::Uninstall.
  kStep,           // simsys.step: SimEnvironment::Step.
  kCount
};

const char* SpanName(SpanKind kind);
// The layer a span's self time is charged to: the text before the first '.'.
std::string SpanLayer(SpanKind kind);

// Turns recording on or off for the calling thread. `weight` is how many
// requests one recorded span stands for (the inverse sampling rate).
void SetThreadRecording(bool on, uint16_t weight = 1);
bool ThreadRecording();

// Records one span on the calling thread if recording is on. Spans nest:
// a span opened while another is open on the same thread is its child.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind, uint64_t request = 0);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int64_t index_ = -1;  // Slot in the thread's buffer; -1 when not recording.
};

struct TraceReduction {
  // Self time (ns) of every span, per span name.
  std::map<std::string, std::vector<double>> self_ns;
  // Weighted self time (ns) per layer: a span's duration minus the part its
  // child spans cover.
  std::map<std::string, double> layer_self_ns;
  uint64_t spans = 0;
  uint64_t dropped = 0;  // Spans lost to full buffers.
};

// Reduces every thread's buffer recorded so far.
TraceReduction ReduceSpans();

// Writes every span as one TSV line (thread, index, parent, name, request,
// start_ns, duration_ns, weight). Returns false if the file cannot be written.
bool WriteSpans(const std::string& path);

// Drops every recorded span (used to exclude warm-up).
void ClearSpans();

}  // namespace perfbench

#endif  // PIVOT_PERFBENCH_TRACE_H_
