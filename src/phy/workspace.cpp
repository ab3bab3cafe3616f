#include "phy/workspace.h"

#include "phy/chanest.h"

namespace jmb {

const CMatrix& Workspace::denoise_projection(std::size_t support) {
  auto it = projections_.find(support);
  if (it == projections_.end()) {
    it = projections_.emplace(support, phy::make_denoise_projection(support))
             .first;
  }
  return it->second;
}

}  // namespace jmb
