// One field list per stats struct (DESIGN.md "Stats").
//
// Every counter struct lists its members once more in a static
// `Fields(f)`, which calls `f(name, &T::member, rule)` for each member in
// declaration order. Merge, == and the `--stats-json` blocks (json.h) are
// derived from that list, so adding a counter is a one-line edit there. All
// members are uint64_t counters; a static_assert on FieldCount() next to
// each struct fails the build when a member is missing from its list.

#ifndef FLASHTIER_UTIL_STAT_FIELDS_H_
#define FLASHTIER_UTIL_STAT_FIELDS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace flashtier {

// How a field combines when per-shard structs are aggregated.
enum class MergeRule {
  kSum,  // counters: the system total is the sum over shards
  kMax,  // durations of work shards do in parallel: the slowest shard's value
};

template <class T>
constexpr size_t FieldCount() {
  size_t n = 0;
  T::Fields([&n](const char*, auto, MergeRule) { ++n; });
  return n;
}

// Folds `from` into `into` field by field under each field's MergeRule.
template <class T>
void MergeFields(T& into, const T& from) {
  T::Fields([&](const char*, uint64_t T::*field, MergeRule rule) {
    into.*field =
        rule == MergeRule::kSum ? into.*field + from.*field : std::max(into.*field, from.*field);
  });
}

template <class T>
bool FieldsEqual(const T& a, const T& b) {
  bool equal = true;
  T::Fields([&](const char*, uint64_t T::*field, MergeRule) { equal &= a.*field == b.*field; });
  return equal;
}

// Merges the stats `get(*item)` points at over `items` in order (per-shard
// aggregation, so the result is independent of replay threads); a null
// pointer skips the item, e.g. a shard without that component.
template <class T, class Items, class Get>
T MergeEach(const Items& items, Get get) {
  T out;
  for (const auto& item : items) {
    if (const T* stats = get(*item)) {
      out.Merge(*stats);
    }
  }
  return out;
}

}  // namespace flashtier

#endif  // FLASHTIER_UTIL_STAT_FIELDS_H_
