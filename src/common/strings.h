// Small string helpers shared across modules (no dependency on absl).

#ifndef PIVOT_SRC_COMMON_STRINGS_H_
#define PIVOT_SRC_COMMON_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace pivot {

// Splits `text` on `sep`, keeping empty pieces.
std::vector<std::string> StrSplit(std::string_view text, char sep);

// Joins `pieces` with `sep`.
std::string StrJoin(const std::vector<std::string>& pieces, std::string_view sep);

// ASCII case-insensitive equality (used by the query language keywords).
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace pivot

#endif  // PIVOT_SRC_COMMON_STRINGS_H_
