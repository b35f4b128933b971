#include "src/common/varint.h"

namespace pivot {

void PutVarint64(std::vector<uint8_t>* out, uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out->push_back(static_cast<uint8_t>(value));
}

void PutVarintSigned64(std::vector<uint8_t>* out, int64_t value) {
  PutVarint64(out, ZigZagEncode(value));
}

bool GetVarint64(const uint8_t* data, size_t size, size_t* pos, uint64_t* value) {
  uint64_t result = 0;
  int shift = 0;
  size_t p = *pos;
  while (p < size && shift <= 63) {
    uint8_t byte = data[p++];
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *value = result;
      *pos = p;
      return true;
    }
    shift += 7;
  }
  return false;
}

bool GetCanonicalVarint64(const uint8_t* data, size_t size, size_t* pos, uint64_t* value) {
  const size_t start = *pos;
  if (!GetVarint64(data, size, pos, value)) {
    return false;
  }
  // The last byte carries the top bits: zero only when it is the only byte,
  // and a tenth byte holds bit 63 alone.
  const size_t n = *pos - start;
  const uint8_t last = data[*pos - 1];
  return (n == 1 || last != 0) && (n < 10 || last == 1);
}

bool GetVarintSigned64(const uint8_t* data, size_t size, size_t* pos, int64_t* value) {
  uint64_t raw = 0;
  if (!GetVarint64(data, size, pos, &raw)) {
    return false;
  }
  *value = ZigZagDecode(raw);
  return true;
}

}  // namespace pivot
