// Minimal structural check for the JSON the engine writes (chrome traces,
// observability dumps): balanced braces/brackets outside strings and no
// unterminated string.
#ifndef BDM_TESTS_SUPPORT_JSON_BALANCED_H_
#define BDM_TESTS_SUPPORT_JSON_BALANCED_H_

#include <string>

namespace bdm::test {

inline bool JsonBalanced(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : text) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (c == '\\') {
      escaped = in_string;
      continue;
    }
    if (c == '"') {
      in_string = !in_string;
      continue;
    }
    if (in_string) {
      continue;
    }
    if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth < 0) {
        return false;
      }
    }
  }
  return depth == 0 && !in_string;
}

}  // namespace bdm::test

#endif  // BDM_TESTS_SUPPORT_JSON_BALANCED_H_
