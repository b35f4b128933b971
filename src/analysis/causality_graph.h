// The system propagation graph: a static model of causal boundaries.
//
// Pivot Tracing's happened-before join (`->`) only produces tuples if baggage
// actually flows from the packing tracepoint to the unpacking one. The paper
// hit this the hard way: §6 "manually extended the protocol definitions" is
// precisely the moment a boundary silently dropped baggage. This header
// models the deployment so the analysis layer can reason about it *before*
// anything weaves: nodes are components (NN, DN, RS, client, NM, MRTask, …),
// edges are declared causal boundaries (RPC, queue hand-off, continuation
// spawn), each flagged with whether it forwards baggage.
//
// Two kinds of facts live here:
//   - Declarations: the static model. Deployment constructors and protocol
//     clients declare every boundary they implement, once.
//   - Observations: the ground truth. The simulator's two crossing
//     primitives record the edges they actually cross at runtime: each leg
//     of SimRpcCall, and SimWorld::Cross for in-memory hand-offs (queue
//     pops, continuation spawns, joins). The audit pass then flags
//     boundaries the model missed (PT304 "unknown boundary").
//
// Ownership: one registry per SimWorld (not a process-global singleton —
// unrelated tests in one binary must not pollute each other's audit). The
// linter receives it through LintOptions::propagation; a null registry
// disables every reachability check, conservatively.

#ifndef PIVOT_SRC_ANALYSIS_CAUSALITY_GRAPH_H_
#define PIVOT_SRC_ANALYSIS_CAUSALITY_GRAPH_H_

#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace pivot {
namespace analysis {

// A declared causal boundary between two components. `kind` is one of
// "rpc", "rpc-response", "queue", "continuation", "join" — informational
// except that the audit groups by it. `forwards_baggage` is the load-bearing
// bit: reachability for `->` joins only follows forwarding edges.
struct PropagationEdge {
  std::string from;
  std::string to;
  std::string kind;
  std::string label;  // Human-readable boundary name, e.g. "ClientProtocol".
  bool forwards_baggage = true;

  bool operator<(const PropagationEdge& o) const {
    if (from != o.from) return from < o.from;
    if (to != o.to) return to < o.to;
    if (kind != o.kind) return kind < o.kind;
    return label < o.label;
  }
};

// An edge actually crossed at runtime: (from, to, kind).
struct ObservedEdge {
  std::string from;
  std::string to;
  std::string kind;

  bool operator<(const ObservedEdge& o) const {
    if (from != o.from) return from < o.from;
    if (to != o.to) return to < o.to;
    return kind < o.kind;
  }
};

struct ComponentInfo {
  std::string name;
  bool client_entry = false;  // Requests originate here (workload clients).
};

class PropagationRegistry;

// Declares a request/response RPC boundary pair: `from -> to` (kind "rpc")
// and `to -> from` (kind "rpc-response"), both forwarding baggage — the
// simulated RPC layer serializes baggage in both directions (sim_rpc.h), so
// a bag packed at the callee rides the response back to the caller.
void DeclareRpcBoundary(PropagationRegistry* registry, const std::string& from,
                        const std::string& to, const std::string& label);

class PropagationRegistry {
 public:
  PropagationRegistry() = default;
  PropagationRegistry(const PropagationRegistry&) = delete;
  PropagationRegistry& operator=(const PropagationRegistry&) = delete;

  // Declares a component node. Idempotent; `client_entry` is sticky (once a
  // component is an entry point, it stays one).
  void DeclareComponent(const std::string& name, bool client_entry = false);

  // Declares a causal boundary. Idempotent (deduplicated by value); both
  // endpoint components are auto-declared.
  void DeclareEdge(PropagationEdge edge);

  // Records a boundary crossing actually observed at runtime. Cheap after
  // the first call per distinct (from, to, kind).
  void ObserveEdge(const std::string& from, const std::string& to, const std::string& kind);

  // Anchors a tracepoint name to the component whose code it fires in.
  // Empty component is ignored (multi-component tracepoints stay unanchored
  // and are skipped by every reachability check).
  void AnchorTracepoint(const std::string& tracepoint, const std::string& component);

  // Component a tracepoint is anchored to, or "" if unanchored/unknown.
  std::string ComponentOf(const std::string& tracepoint) const;

  // ---- Snapshots (copies; safe to use without holding anything) ----

  std::vector<ComponentInfo> Components() const;
  std::vector<PropagationEdge> Edges() const;
  std::vector<ObservedEdge> Observed() const;
  std::map<std::string, std::string> Anchors() const;

  // True when no boundary has been declared (the model is absent; the
  // reachability passes disable themselves).
  bool empty() const;

  // Human-readable topology report: components, edges (with baggage
  // disposition), tracepoint anchors, and observed-but-undeclared boundaries.
  std::string RenderText() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, ComponentInfo> components_;
  std::set<PropagationEdge> edges_;
  std::set<ObservedEdge> observed_;
  std::map<std::string, std::string> anchors_;  // tracepoint -> component.
};

}  // namespace analysis
}  // namespace pivot

#endif  // PIVOT_SRC_ANALYSIS_CAUSALITY_GRAPH_H_
