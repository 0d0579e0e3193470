// gtest printer for the stats structs: a failed EXPECT_EQ on two structs
// prints each as its --stats-json block instead of raw bytes.

#ifndef FLASHTIER_TESTS_STATS_PRINTER_H_
#define FLASHTIER_TESTS_STATS_PRINTER_H_

#include <ostream>

#include "src/util/json.h"

namespace flashtier {

template <class T>
  requires requires { T::Fields([](const char*, auto, MergeRule) {}); }
void PrintTo(const T& stats, std::ostream* os) {
  *os << JsonLine().Fields(stats).str();
}

}  // namespace flashtier

#endif  // FLASHTIER_TESTS_STATS_PRINTER_H_
