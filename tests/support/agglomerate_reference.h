// Test-support oracle for the hierarchical fit: the original serial
// nearest-neighbor-chain agglomeration (full nearest scans, no cache, no
// pool). AgglomerativeAverageLinkage must reproduce its dendrogram bit
// for bit; tests assert that and micro_core's BM_AgglomerateReference
// times it. Linked only into tests and benches, never into liblogr.
#ifndef LOGR_TESTS_SUPPORT_AGGLOMERATE_REFERENCE_H_
#define LOGR_TESTS_SUPPORT_AGGLOMERATE_REFERENCE_H_

#include <vector>

#include "cluster/hierarchical.h"
#include "linalg/matrix.h"

namespace logr {

/// Average-linkage agglomeration of `distances` with optional leaf
/// masses `weights` (non-positive masses count as 1e-12, empty means 1
/// each), exactly as AgglomerativeAverageLinkage defines it.
Dendrogram AgglomerativeAverageLinkageReference(
    const Matrix& distances, const std::vector<double>& weights);

}  // namespace logr

#endif  // LOGR_TESTS_SUPPORT_AGGLOMERATE_REFERENCE_H_
