#ifndef TMAN_INDEX_TSHAPE_INDEX_H_
#define TMAN_INDEX_TSHAPE_INDEX_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "geo/geometry.h"
#include "index/quadkey.h"
#include "index/value_range.h"

namespace tman::index {

// TShape index (paper §IV-A2): the spatial shape of a trajectory is
// represented inside an "enlarged element" of alpha x beta same-resolution
// quad cells anchored at the cell containing the MBR's lower-left corner.
// A bitset over those cells (the *shape code*) records which cells the
// polyline actually visits, so the index space is non-rectangular and far
// tighter than the XZ family's enlarged rectangles.
//
// Index value (Eq. 3): TShape(code(E), s) = (code(E) << alpha*beta) | s.
// With the index-cache optimisation, s is the *final code* assigned by the
// shape-order optimisation of §IV-A2(3) instead of the raw bitmap.
struct TShapeConfig {
  int alpha = 3;
  int beta = 3;
  int max_resolution = 15;  // g; requires 2g+1+alpha*beta <= 64

  int shape_bits() const { return alpha * beta; }
};

struct TShapeEncoding {
  QuadCell anchor;       // lower-left cell of the enlarged element
  uint64_t quad_code;    // code(E)
  uint32_t shape;        // raw shape bitmap (bit dy*alpha+dx)
  uint64_t index_value;  // Eq. 3 with the raw bitmap as shape code
};

// Shapes actually used in an enlarged element, as pairs of (raw bitmap,
// final code).
using ShapeList = std::vector<std::pair<uint32_t, uint32_t>>;

// Supplies an element's ShapeList by quad code, shared rather than copied;
// never returns null. Backed by TMan's index cache; nullptr-like absence
// switches queries to no-cache mode (whole-element ranges).
using ShapeLookup = std::function<std::shared_ptr<const ShapeList>(uint64_t)>;

// Returns the smallest occupied element quad code >= `lo` (UINT64_MAX if
// none). An element is occupied when it may hold rows; the subtree of a
// resolution-r cell is the code interval [code, code + QuadSubtreeCount),
// so one probe answers both "is this element occupied" and "is anything
// below it occupied".
using OccupancyProbe = std::function<uint64_t(uint64_t lo)>;

class TShapeIndex {
 public:
  explicit TShapeIndex(const TShapeConfig& config);

  const TShapeConfig& config() const { return cfg_; }

  // Resolution of the enlarged element for a normalized MBR (Lemmas 3-4).
  int Resolution(const geo::MBR& mbr) const;

  // Encodes a normalized polyline. Shape bit b = dy*alpha+dx is set iff
  // the polyline intersects cell (anchor.x+dx, anchor.y+dy).
  TShapeEncoding Encode(const std::vector<geo::TimedPoint>& points) const;

  // Index value for an element code and a (possibly re-encoded) shape code.
  uint64_t IndexValue(uint64_t quad_code, uint32_t shape_code) const {
    return (quad_code << cfg_.shape_bits()) | shape_code;
  }

  uint64_t QuadCodeOf(uint64_t index_value) const {
    return index_value >> cfg_.shape_bits();
  }
  uint32_t ShapeCodeOf(uint64_t index_value) const {
    return static_cast<uint32_t>(index_value) &
           ((1u << cfg_.shape_bits()) - 1);
  }

  // True if the shape bitmap anchored at `anchor` touches `query`.
  bool ShapeIntersects(const QuadCell& anchor, uint32_t shape,
                       const geo::MBR& query) const;

  struct QueryStats {
    uint64_t elements_visited = 0;
    uint64_t shapes_checked = 0;
    uint64_t subtrees_pruned = 0;  // cells skipped by the occupancy probe
  };

  // Algorithm 2. With `lookup`, intersecting elements contribute only the
  // used shapes that touch the query; without it (no index cache) they
  // contribute their entire shape-code range and the storage-layer filter
  // does the pruning. With `occupied`, a cell whose subtree holds no
  // occupied element emits no range and is not descended, and `lookup` is
  // consulted only for occupied elements.
  std::vector<ValueRange> QueryRanges(const geo::MBR& query,
                                      const ShapeLookup* lookup,
                                      const OccupancyProbe* occupied = nullptr,
                                      QueryStats* stats = nullptr) const;

  // The rectangle of the full enlarged element of `anchor`.
  geo::MBR EnlargedRect(const QuadCell& anchor) const;

 private:
  TShapeConfig cfg_;
};

}  // namespace tman::index

#endif  // TMAN_INDEX_TSHAPE_INDEX_H_
