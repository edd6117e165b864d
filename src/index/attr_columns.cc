#include "src/index/attr_columns.h"

#include "src/graph/graph.h"

namespace expfinder {

std::unique_ptr<IntColumns> IntColumns::Build(const Graph& g) {
  std::unique_ptr<IntColumns> out(new IntColumns());
  const size_t n = g.NumNodes();
  out->num_nodes_ = n;
  out->columns_.resize(g.NumAttrKeys());
  // One pass: a key gets a column at its first int value and loses it for
  // good at its first non-int one, so string keys never allocate.
  std::vector<char> refused(g.NumAttrKeys(), 0);
  for (NodeId v = 0; v < n; ++v) {
    for (const auto& [key, value] : g.Attrs(v)) {
      if (refused[key]) continue;
      std::unique_ptr<IntColumn>& column = out->columns_[key];
      if (!value.is_int()) {
        refused[key] = 1;
        column.reset();
        continue;
      }
      if (column == nullptr) {
        column = std::make_unique<IntColumn>();
        column->values.assign(n, 0);
        column->present = DenseBitset(1, n);
      }
      column->values[v] = value.AsInt();
      column->present.Set(0, v);
    }
  }
  return out;
}

}  // namespace expfinder
