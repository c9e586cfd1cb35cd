// Seeds for the seeded property and differential tests: WPOS_PROPS_SEED
// selects a single seed for CI soaks, and without it a fixed batch runs.
#ifndef TESTS_PROPS_SEEDS_H_
#define TESTS_PROPS_SEEDS_H_

#include <cstdint>
#include <cstdlib>
#include <vector>

namespace props {

inline std::vector<uint64_t> SeedsUnderTest() {
  const char* env = std::getenv("WPOS_PROPS_SEED");
  if (env != nullptr && *env != '\0') {
    return {std::strtoull(env, nullptr, 10)};
  }
  return {1, 7, 1337};
}

}  // namespace props

#endif  // TESTS_PROPS_SEEDS_H_
