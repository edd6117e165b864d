// Integer attribute columns: the flat read form of a graph's int-valued
// attributes, for candidate seeding.
//
// Seeding tests each label candidate against its pattern node's search
// conditions ("experience >= 5"). Through Graph::GetAttr that is a walk of
// the node's attribute list, one heap vector per node on its page. For every
// attribute key whose present values are all ints, an IntColumns holds an
// int64 per node plus a presence bit, so an int comparison on that key costs
// one bit test and one compare per candidate. Keys with any non-int value
// (a double, bool or string somewhere) get no column; their conditions keep
// Condition::Eval.
//
// The columns are built on first seeding use and kept on the graph's
// TopicIndexSlot (topic_index.h): copies share the slot across pure edge
// churn, and any content mutation replaces it, so columns always describe
// the graph that asks.

#ifndef EXPFINDER_INDEX_ATTR_COLUMNS_H_
#define EXPFINDER_INDEX_ATTR_COLUMNS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/graph/types.h"
#include "src/util/dense_bitset.h"

namespace expfinder {

class Graph;

/// \brief The int64 values of one attribute key, one per node.
struct IntColumn {
  std::vector<int64_t> values;  // 0 where absent
  DenseBitset present;          // 1 x n: node v has the attribute

  bool Present(NodeId v) const { return present.Test(0, v); }
};

/// \brief Immutable int columns of one graph content version. Read
/// concurrently without synchronization.
class IntColumns {
 public:
  /// Builds a column for every attribute key of `g` whose present values
  /// are all ints (one pass over the attribute lists).
  static std::unique_ptr<IntColumns> Build(const Graph& g);

  /// The column of `key`, or nullptr when the key has a non-int value or
  /// was interned after the build.
  const IntColumn* Find(AttrKeyId key) const {
    return key < columns_.size() ? columns_[key].get() : nullptr;
  }
  size_t NumNodes() const { return num_nodes_; }

 private:
  IntColumns() = default;

  std::vector<std::unique_ptr<IntColumn>> columns_;  // by key id
  size_t num_nodes_ = 0;
};

}  // namespace expfinder

#endif  // EXPFINDER_INDEX_ATTR_COLUMNS_H_
