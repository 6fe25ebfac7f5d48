#include "trace/pair_backend.hpp"

#include <unistd.h>

#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace dtncache::trace {

namespace {

/// Installed physical memory in bytes, 0 when the host does not say.
double physicalMemoryBytes() {
  const long pages = sysconf(_SC_PHYS_PAGES);
  const long pageSize = sysconf(_SC_PAGE_SIZE);
  if (pages <= 0 || pageSize <= 0) return 0.0;
  return static_cast<double>(pages) * static_cast<double>(pageSize);
}

}  // namespace

void checkDenseTriangleFits(std::size_t nodeCount, double bytesPerPair, const char* what) {
  // In double: n(n-1)/2 overflows std::size_t long before it stops fitting.
  const double n = static_cast<double>(nodeCount);
  const double bytes = n * (n - 1.0) / 2.0 * bytesPerPair;
  const double physical = physicalMemoryBytes();
  if (physical <= 0.0 || bytes <= physical) return;
  constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;
  std::ostringstream os;
  os << std::fixed << std::setprecision(1) << what << ": the dense pair triangle for "
     << nodeCount << " nodes needs " << bytes / kGiB << " GiB, more than this host's "
     << physical / kGiB
     << " GiB of physical memory; use the sparse pair backend "
        "(PairBackend::kSparse, or PairBackend::kAuto, which chooses it above "
     << kDensePairNodeThreshold << " nodes)";
  throw std::length_error(os.str());
}

}  // namespace dtncache::trace
