// Shared helpers for the test suite: manual clocks, fake process runtimes,
// collecting emit sinks, and canonical tuple comparison.

#ifndef PIVOT_TESTS_TEST_UTIL_H_
#define PIVOT_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/context.h"
#include "src/core/tuple.h"

namespace pivot {

// EmitSink that records everything advice emits, per query.
class CollectingSink : public EmitSink {
 public:
  void EmitTuple(uint64_t query_id, const Tuple& t) override {
    emitted_[query_id].push_back(t);
  }

  const std::vector<Tuple>& emitted(uint64_t query_id) const {
    static const std::vector<Tuple> kEmpty;
    auto it = emitted_.find(query_id);
    return it == emitted_.end() ? kEmpty : it->second;
  }

  size_t total() const {
    size_t n = 0;
    for (const auto& [id, v] : emitted_) {
      n += v.size();
    }
    return n;
  }

  void Clear() { emitted_.clear(); }

 private:
  std::map<uint64_t, std::vector<Tuple>> emitted_;
};

// A manually-advanced clock shared by fake processes.
struct ManualClock {
  int64_t now = 0;
  int64_t Tick(int64_t delta = 1) { return now += delta; }
};

// A fake process: runtime + optional sink, with a shared manual clock.
struct FakeProcess {
  ProcessRuntime runtime;
  CollectingSink sink;

  FakeProcess(std::string host, std::string name, ManualClock* clock) {
    runtime.info.host = std::move(host);
    runtime.info.process_name = std::move(name);
    runtime.info.process_id = 1;
    runtime.now_micros = [clock] { return clock->now; };
    runtime.sink = &sink;
  }
};

// A bag schema of `spec` over the named columns (ignored for an aggregate
// spec), as a woven Pack or Unpack step binds it.
inline BagSchemaPtr Schema(const BagSpec& spec, const std::vector<std::string>& columns = {}) {
  return std::make_shared<const BagSchema>(spec, InternSymbols(columns));
}

// Bag `key`'s tuples as a copy the test owns (Baggage::Unpack reads them in
// place). A bag that arrived encoded needs its schema.
inline std::vector<Tuple> UnpackCopy(const Baggage& baggage, BagKey key,
                                     const BagSchemaPtr& schema = nullptr) {
  std::vector<Tuple> buffer;
  return baggage.Unpack(key, schema.get(), &buffer);
}

// Canonical (sorted string) form for order-insensitive tuple comparison.
inline std::vector<std::string> CanonicalTuples(const std::vector<Tuple>& tuples) {
  std::vector<std::string> out;
  out.reserve(tuples.size());
  for (const auto& t : tuples) {
    out.push_back(t.ToString());
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace pivot

#endif  // PIVOT_TESTS_TEST_UTIL_H_
