#include "graph/compressed_adjacency.h"

#include <algorithm>

#include "util/logging.h"

namespace piggy {

namespace {

// LEB128: 7 value bits per byte, high bit = continuation.
void AppendVarint(uint32_t v, std::vector<uint8_t>* bytes) {
  while (v >= 0x80) {
    bytes->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  bytes->push_back(static_cast<uint8_t>(v));
}

uint32_t ReadVarint(const uint8_t* bytes, size_t* pos) {
  uint32_t v = 0;
  int shift = 0;
  while (true) {
    const uint8_t byte = bytes[*pos];
    ++*pos;
    v |= static_cast<uint32_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
  }
}

}  // namespace

const char* GraphLayoutName(GraphLayout layout) {
  switch (layout) {
    case GraphLayout::kFlatCsr:
      return "flat";
    case GraphLayout::kCompressed:
      return "compressed";
  }
  return "unknown";
}

bool ParseGraphLayout(const std::string& name, GraphLayout* out) {
  if (name == "flat" || name == "flat-csr" || name == "csr") {
    *out = GraphLayout::kFlatCsr;
  } else if (name == "compressed" || name == "varint") {
    *out = GraphLayout::kCompressed;
  } else {
    return false;
  }
  return true;
}

void CompressedLists::EncodeList(const std::vector<NodeId>& list,
                                 std::vector<uint8_t>* bytes,
                                 std::vector<SkipEntry>* skips) {
  const uint64_t list_base = bytes->size();
  for (size_t k = 0; k < list.size(); ++k) {
    if (k > 0) {
      PIGGY_CHECK_LT(list[k - 1], list[k]) << "lists must be strictly ascending";
    }
    if (k % kBlockEntries == 0) {
      const uint64_t block_offset = bytes->size() - list_base;
      PIGGY_CHECK_LE(block_offset, UINT32_MAX);
      skips->push_back({list[k], static_cast<uint32_t>(block_offset)});
      AppendVarint(list[k], bytes);
    } else {
      AppendVarint(list[k] - list[k - 1] - 1, bytes);
    }
  }
}

CompressedLists CompressedLists::FromLists(
    const std::vector<std::vector<NodeId>>& lists) {
  CompressedLists out;
  out.meta_.reserve(lists.size() + 1);
  for (const std::vector<NodeId>& list : lists) {
    out.meta_.push_back({out.bytes_.size(),
                         static_cast<uint32_t>(out.skips_.size()),
                         static_cast<uint32_t>(list.size())});
    EncodeList(list, &out.bytes_, &out.skips_);
    out.total_entries_ += list.size();
  }
  out.meta_.push_back(
      {out.bytes_.size(), static_cast<uint32_t>(out.skips_.size()), 0});
  return out;
}

void CompressedLists::ReplaceList(size_t i, const std::vector<NodeId>& list) {
  PIGGY_CHECK_LT(i, num_lists());
  std::vector<uint8_t> bytes;
  std::vector<SkipEntry> skips;
  EncodeList(list, &bytes, &skips);
  ListMeta& m = meta_[i];
  const ListMeta& next = meta_[i + 1];
  const size_t old_bytes = next.byte_offset - m.byte_offset;
  const size_t old_skips = next.skip_offset - m.skip_offset;
  // Splice the payload and skip table; the block offsets are list-relative,
  // so only the later lists' base offsets move.
  bytes_.erase(bytes_.begin() + static_cast<ptrdiff_t>(m.byte_offset),
               bytes_.begin() + static_cast<ptrdiff_t>(m.byte_offset + old_bytes));
  bytes_.insert(bytes_.begin() + static_cast<ptrdiff_t>(m.byte_offset),
                bytes.begin(), bytes.end());
  skips_.erase(skips_.begin() + m.skip_offset,
               skips_.begin() + m.skip_offset + static_cast<ptrdiff_t>(old_skips));
  skips_.insert(skips_.begin() + m.skip_offset, skips.begin(), skips.end());
  total_entries_ = total_entries_ - m.size + list.size();
  m.size = static_cast<uint32_t>(list.size());
  for (size_t j = i + 1; j < meta_.size(); ++j) {
    meta_[j].byte_offset = meta_[j].byte_offset - old_bytes + bytes.size();
    meta_[j].skip_offset = static_cast<uint32_t>(meta_[j].skip_offset - old_skips +
                                                 skips.size());
  }
}

void CompressedLists::DecodeInto(size_t i, std::vector<NodeId>* out) const {
  out->clear();
  const ListMeta& m = meta_[i];
  const size_t n = m.size;
  out->reserve(n);
  const uint8_t* base = bytes_.data() + m.byte_offset;
  size_t pos = 0;
  NodeId prev = 0;
  for (size_t k = 0; k < n; ++k) {
    const uint32_t raw = ReadVarint(base, &pos);
    // Block leaders are absolute; later entries are (delta - 1).
    prev = (k % kBlockEntries == 0) ? raw : prev + raw + 1;
    out->push_back(prev);
  }
}

bool CompressedLists::Contains(size_t i, NodeId v) const {
  const ListMeta& m = meta_[i];
  const size_t n = m.size;
  if (n == 0) return false;
  const SkipEntry* skip_begin = skips_.data() + m.skip_offset;
  const SkipEntry* skip_end = skips_.data() + meta_[i + 1].skip_offset;
  // Last block whose first value <= v.
  const SkipEntry* block = std::upper_bound(
      skip_begin, skip_end, v,
      [](NodeId value, const SkipEntry& s) { return value < s.first_value; });
  if (block == skip_begin) return false;  // v precedes the first value
  --block;
  const size_t block_idx = static_cast<size_t>(block - skip_begin);
  const size_t entries =
      std::min(kBlockEntries, n - block_idx * kBlockEntries);
  const uint8_t* base = bytes_.data() + m.byte_offset;
  size_t pos = block->byte_offset;
  NodeId value = ReadVarint(base, &pos);
  if (value == v) return true;
  for (size_t k = 1; k < entries; ++k) {
    value += ReadVarint(base, &pos) + 1;
    if (value >= v) return value == v;
  }
  return false;
}

size_t CompressedLists::TotalBytes() const {
  return bytes_.size() + skips_.size() * sizeof(SkipEntry) +
         meta_.size() * sizeof(ListMeta);
}

double CompressedLists::BytesPerEntry() const {
  return total_entries_ == 0
             ? 0.0
             : static_cast<double>(TotalBytes()) / static_cast<double>(total_entries_);
}

}  // namespace piggy
