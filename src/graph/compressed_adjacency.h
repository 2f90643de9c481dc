// Delta-varint-compressed sorted adjacency lists with per-block skip
// pointers — the memory-compact layout for million-user serving planes.
//
// Each list of strictly ascending 32-bit ids is encoded as LEB128 varints:
// the first value raw, every later one as (delta - 1), since deltas of a
// strict set are >= 1. Every kBlockEntries-th value starts a block whose
// (first value, byte offset) lands in a skip table, so point lookups gallop:
// binary-search the skip table, then decode at most one block. Power-law
// adjacency (mostly small deltas) lands well under 2 bytes/entry vs the flat
// layout's fixed 4.
//
// Selected by GraphLayout on the serving plane (see PrototypeOptions);
// planners keep the flat CSR Graph — compression pays where lists are cold
// (per-user interest sets), not where kernels stream them.
//
// Thread safety: all accessors are const and safe to call concurrently;
// ReplaceList is a writer and must not overlap them.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace piggy {

/// \brief Adjacency storage layout of a serving plane.
enum class GraphLayout {
  kFlatCsr = 0,     ///< one flat sorted uint32 array per list (4 bytes/entry)
  kCompressed = 1,  ///< delta-varint blocks + skip pointers (this header)
};

/// "flat" | "compressed".
const char* GraphLayoutName(GraphLayout layout);

/// Parses a layout name ("flat" | "compressed"). Returns false on unknown
/// names, leaving *out untouched.
bool ParseGraphLayout(const std::string& name, GraphLayout* out);

/// \brief A set of compressed sorted id lists.
class CompressedLists {
 public:
  /// Values per skip block. 64 balances skip-table overhead (8 bytes per
  /// block) against worst-case point-lookup decode work.
  static constexpr size_t kBlockEntries = 64;

  CompressedLists() = default;

  /// Encodes `lists`; every list must be strictly ascending (checked).
  static CompressedLists FromLists(const std::vector<std::vector<NodeId>>& lists);

  /// Re-encodes list i as `list` (strictly ascending, checked) in place. The
  /// result is byte-identical to FromLists over the edited lists. Costs one
  /// list's encode plus a splice of the payload and an offset fix-up over the
  /// lists after i: O(total bytes + num_lists) per call, not O(list). Under
  /// kCompressed every Follow/Unfollow pays this once; on 4 cores it measured
  /// ~0.43 ms per churn op at 200k users and ~2.9 ms at 1M (flat: ~0.04 and
  /// ~0.07 ms), still far below rebuilding the serving plane.
  void ReplaceList(size_t i, const std::vector<NodeId>& list);

  size_t num_lists() const { return meta_.empty() ? 0 : meta_.size() - 1; }

  /// Entry count of list i.
  size_t ListSize(size_t i) const { return meta_[i].size; }

  /// Decodes list i into *out (cleared first), ascending.
  void DecodeInto(size_t i, std::vector<NodeId>* out) const;

  /// Point lookup in list i: skip-table gallop + one block decode,
  /// O(log(blocks) + kBlockEntries).
  bool Contains(size_t i, NodeId v) const;

  /// Total compressed footprint: payload bytes + skip tables + offsets.
  size_t TotalBytes() const;

  /// Total entries across lists.
  size_t TotalEntries() const { return total_entries_; }

  /// TotalBytes() / TotalEntries() (0 when empty).
  double BytesPerEntry() const;

 private:
  struct SkipEntry {
    NodeId first_value;    ///< first value of the block
    uint32_t byte_offset;  ///< offset of the block within the list's bytes
  };

  /// Appends the encoding of one list to *bytes and its skip entries to
  /// *skips (block offsets relative to the list's first byte).
  static void EncodeList(const std::vector<NodeId>& list,
                         std::vector<uint8_t>* bytes,
                         std::vector<SkipEntry>* skips);

  // Per-list metadata lives in ONE struct so a point access touches one
  // cache line, not three parallel arrays — at millions of cold lists the
  // metadata misses would otherwise rival the decode itself. One sentinel
  // entry past the end carries the terminating offsets.
  struct ListMeta {
    uint64_t byte_offset;  ///< into bytes_
    uint32_t skip_offset;  ///< into skips_
    uint32_t size;         ///< entries in the list (sentinel: 0)
  };

  std::vector<ListMeta> meta_;    ///< per list, +1 sentinel
  std::vector<uint8_t> bytes_;    ///< varint payload
  std::vector<SkipEntry> skips_;  ///< per-block skip pointers
  size_t total_entries_ = 0;
};

}  // namespace piggy
