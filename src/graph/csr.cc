#include "src/graph/csr.h"

#include "src/util/logging.h"

namespace expfinder {

Csr::Csr(const Graph& frozen)
    : num_nodes_(frozen.NumNodes()), num_edges_(frozen.NumEdges()) {
  const size_t pages = frozen.NumPages();
  out_.resize(pages);
  in_.resize(pages);
  for (size_t p = 0; p < pages; ++p) {
    out_[p] = frozen.OutChunk(p);
    in_[p] = frozen.InChunk(p);
    EF_DCHECK(out_[p] != nullptr && in_[p] != nullptr) << "page " << p << " not sealed";
  }
}

}  // namespace expfinder
