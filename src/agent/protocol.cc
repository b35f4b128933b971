#include "src/agent/protocol.h"

#include <algorithm>

#include "src/common/varint.h"
#include "src/core/advice_io.h"
#include "src/core/baggage.h"
#include "src/core/wire.h"

namespace pivot {

std::vector<uint8_t> EncodeWeave(const WeaveCommand& cmd) {
  std::vector<uint8_t> out;
  out.push_back(static_cast<uint8_t>(ControlMessageType::kWeave));
  PutVarint64(&out, cmd.query_id);
  PutVarint64(&out, cmd.advice.size());
  for (const auto& [tp, adv] : cmd.advice) {
    PutString(&out, tp);
    EncodeAdvice(&out, *adv);
  }
  PutPlan(&out, cmd.plan);
  return out;
}

std::vector<uint8_t> EncodeUnweave(uint64_t query_id) {
  std::vector<uint8_t> out;
  out.push_back(static_cast<uint8_t>(ControlMessageType::kUnweave));
  PutVarint64(&out, query_id);
  return out;
}

std::vector<uint8_t> EncodeHello() {
  return {static_cast<uint8_t>(ControlMessageType::kHello)};
}

std::vector<uint8_t> EncodeWeaveAck(const WeaveAck& ack) {
  std::vector<uint8_t> out;
  out.push_back(static_cast<uint8_t>(ControlMessageType::kWeaveAck));
  PutVarint64(&out, ack.query_id);
  PutString(&out, ack.host);
  PutString(&out, ack.process_name);
  PutVarintSigned64(&out, ack.timestamp_micros);
  return out;
}

std::vector<uint8_t> EncodeReportBatch(const ReportBatch& batch, std::vector<size_t>* report_bytes) {
  std::vector<uint8_t> out;
  out.push_back(static_cast<uint8_t>(ControlMessageType::kBatch));
  PutString(&out, batch.host);
  PutString(&out, batch.process_name);
  PutVarintSigned64(&out, batch.timestamp_micros);
  PutVarint64(&out, batch.reports.size());
  if (report_bytes != nullptr) {
    report_bytes->clear();
    report_bytes->reserve(batch.reports.size());
  }
  for (const auto& r : batch.reports) {
    size_t start = out.size();
    PutVarint64(&out, r.query_id);
    PutStringList(&out, r.results.ColumnNames());
    r.results.Encode(&out);
    if (report_bytes != nullptr) {
      report_bytes->push_back(out.size() - start);
    }
  }
  PutVarint64(&out, batch.heartbeats.size());
  for (const auto& hb : batch.heartbeats) {
    PutVarint64(&out, hb.query_id);
    PutVarint64(&out, hb.reports_suppressed);
  }
  return out;
}

Result<ControlMessage> DecodeControlMessage(const std::vector<uint8_t>& payload,
                                            const ReportSetLookup& report_sets) {
  const uint8_t* data = payload.data();
  size_t size = payload.size();
  size_t pos = 0;
  if (size == 0) {
    return DataLossError("empty control message");
  }
  ControlMessage msg;
  uint8_t type = data[pos++];
  switch (static_cast<ControlMessageType>(type)) {
    case ControlMessageType::kWeave: {
      msg.type = ControlMessageType::kWeave;
      uint64_t nadvice = 0;
      if (!GetVarint64(data, size, &pos, &msg.weave.query_id) ||
          !GetVarint64(data, size, &pos, &nadvice) || nadvice > size) {
        return DataLossError("bad weave command");
      }
      for (uint64_t i = 0; i < nadvice; ++i) {
        std::string tp;
        Advice::Ptr adv;
        if (!GetString(data, size, &pos, &tp) || !DecodeAdvice(data, size, &pos, &adv)) {
          return DataLossError("bad weave advice");
        }
        msg.weave.advice.emplace_back(std::move(tp), std::move(adv));
      }
      if (!GetPlan(data, size, &pos, &msg.weave.plan)) {
        return DataLossError("bad weave plan");
      }
      return msg;
    }
    case ControlMessageType::kUnweave: {
      msg.type = ControlMessageType::kUnweave;
      if (!GetVarint64(data, size, &pos, &msg.unweave_query_id)) {
        return DataLossError("bad unweave command");
      }
      return msg;
    }
    case ControlMessageType::kHello:
      msg.type = ControlMessageType::kHello;
      return msg;
    case ControlMessageType::kWeaveAck: {
      msg.type = ControlMessageType::kWeaveAck;
      WeaveAck& a = msg.weave_ack;
      if (!GetVarint64(data, size, &pos, &a.query_id) || !GetString(data, size, &pos, &a.host) ||
          !GetString(data, size, &pos, &a.process_name) ||
          !GetVarintSigned64(data, size, &pos, &a.timestamp_micros)) {
        return DataLossError("bad weave ack");
      }
      return msg;
    }
    case ControlMessageType::kBatch: {
      msg.type = ControlMessageType::kBatch;
      ReceivedBatch& b = msg.batch;
      uint64_t nreports = 0;
      if (!GetString(data, size, &pos, &b.host) || !GetString(data, size, &pos, &b.process_name) ||
          !GetVarintSigned64(data, size, &pos, &b.timestamp_micros) ||
          !GetVarint64(data, size, &pos, &nreports) || nreports > size) {
        return DataLossError("bad batch header");
      }
      std::vector<std::string> names;
      // A row of values takes a byte or more, but a row of no columns takes
      // none. So that the rows a frame carries stay bounded by its size, like
      // every other count, the frame keeps at most `size` rows of no columns
      // in all and counts the rest as dropped, as the bag valve does.
      uint64_t empty_rows = size;
      for (uint64_t i = 0; i < nreports; ++i) {
        uint64_t query_id = 0;
        SetFrame frame;
        if (!GetVarint64(data, size, &pos, &query_id)) {
          return DataLossError("bad batch report");
        }
        const size_t slice = pos;
        if (!GetStringList(data, size, &pos, &names) || !SetFrame::Get(data, size, &pos, &frame)) {
          return DataLossError("bad batch report");
        }
        bool capped = false;
        if (names.empty()) {
          const uint64_t kept = std::min(frame.rows, empty_rows);
          empty_rows -= kept;
          frame.dropped += frame.rows - kept;
          capped = kept != frame.rows;
          frame.rows = kept;
        }
        const ResultSet* like = report_sets ? report_sets(query_id) : nullptr;
        if (like == nullptr) {
          if (!frame.Fits(names.size())) {
            return DataLossError("bad batch report");
          }
          continue;
        }
        // Reports come from outside the process, and the symbol table is
        // never freed. So only a query's first rows may name columns not yet
        // interned.
        if (!like->aggregated() && frame.rows != 0 &&
            (!like->empty() ||
             std::any_of(b.reports.begin(), b.reports.end(),
                         [&](const ReceivedReport& o) { return o.query_id == query_id; })) &&
            !std::all_of(names.begin(), names.end(), [](const std::string& name) {
              return SymbolTable::Global().Find(name) != kInvalidSymbol;
            })) {
          return DataLossError("bad batch report: it names unknown columns");
        }
        if (!like->Accepts(names, frame)) {
          return DataLossError("bad batch report, or its names do not match the query's plan");
        }
        ReceivedReport& r = b.reports.emplace_back();
        r.query_id = query_id;
        r.rows = frame.rows;
        if (capped) {
          PutStringList(&r.wire, names);
          frame.Put(&r.wire);
        } else {
          r.wire.assign(data + slice, data + pos);
        }
      }
      uint64_t nstats = 0;
      if (!GetVarint64(data, size, &pos, &nstats) || nstats > size) {
        return DataLossError("bad batch heartbeat count");
      }
      for (uint64_t i = 0; i < nstats; ++i) {
        AgentStats s;
        if (!GetVarint64(data, size, &pos, &s.query_id) ||
            !GetVarint64(data, size, &pos, &s.reports_suppressed)) {
          return DataLossError("bad batch heartbeat");
        }
        b.heartbeats.push_back(std::move(s));
      }
      return msg;
    }
    default:
      return DataLossError("unknown control message type");
  }
}

}  // namespace pivot
