// LEB128-style variable-length integer codec.
//
// This is the primitive underneath the baggage wire format (src/core/wire.h).
// It is the same base-128 encoding protocol buffers use, which the paper's
// prototype relied on for baggage serialization; see DESIGN.md §1 for the
// substitution note.

#ifndef PIVOT_SRC_COMMON_VARINT_H_
#define PIVOT_SRC_COMMON_VARINT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pivot {

// Appends `value` to `out` as a base-128 varint (1..10 bytes).
void PutVarint64(std::vector<uint8_t>* out, uint64_t value);

// Zig-zag encodes `value` then varint-encodes it; small negative numbers stay
// small on the wire.
void PutVarintSigned64(std::vector<uint8_t>* out, int64_t value);

// The general case of GetVarint64: a varint of any length.
bool GetLongVarint64(const uint8_t* data, size_t size, size_t* pos, uint64_t* value);

// Reads a varint from data[*pos..size). On success advances *pos and returns
// true; returns false on truncated or overlong (>10 byte) input, leaving *pos
// unspecified. Most varints on the wire take one byte, read inline.
inline bool GetVarint64(const uint8_t* data, size_t size, size_t* pos, uint64_t* value) {
  if (*pos < size && data[*pos] < 0x80) {
    *value = data[(*pos)++];
    return true;
  }
  return GetLongVarint64(data, size, pos, value);
}

// GetVarint64 that accepts only the bytes PutVarint64 writes: no overlong
// form (a trailing zero byte) and no bits past the 64th. Where values are
// compared as their bytes, this keeps one value to one spelling.
inline bool GetCanonicalVarint64(const uint8_t* data, size_t size, size_t* pos,
                                 uint64_t* value) {
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

inline uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

inline int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

// Zig-zag decoding counterpart of PutVarintSigned64.
inline bool GetVarintSigned64(const uint8_t* data, size_t size, size_t* pos, int64_t* value) {
  uint64_t raw = 0;
  if (!GetVarint64(data, size, pos, &raw)) {
    return false;
  }
  *value = ZigZagDecode(raw);
  return true;
}

}  // namespace pivot

#endif  // PIVOT_SRC_COMMON_VARINT_H_
