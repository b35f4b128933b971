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

bool GetLongVarint64(const uint8_t* data, size_t size, size_t* pos, uint64_t* value) {
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

}  // namespace pivot
