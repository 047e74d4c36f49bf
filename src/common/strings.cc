#include "common/strings.h"

#include <charconv>

namespace chainsplit {

std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::vector<std::string> StrSplit(std::string_view text, char sep) {
  std::vector<std::string> pieces;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      pieces.emplace_back(text.substr(start));
      return pieces;
    }
    pieces.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

StatusOr<int64_t> ParseInt64(std::string_view text, int64_t min,
                             int64_t max) {
  int64_t value = 0;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end || value < min ||
      value > max) {
    return InvalidArgumentError(StrCat("expected an integer in [", min, ", ",
                                       max, "], got \"", text, "\""));
  }
  return value;
}

}  // namespace chainsplit
