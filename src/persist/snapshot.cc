#include "persist/snapshot.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cassert>
#include <cstdio>
#include <cstring>

namespace tpc {
namespace {

constexpr char kMagic[8] = {'T', 'P', 'C', 'S', 'N', 'A', 'P', '\0'};
constexpr uint32_t kEndianTag = 0x01020304;
constexpr uint64_t kHeaderBytes = 64;

// Header field offsets (see the layout comment in snapshot.h).
constexpr size_t kOffVersion = 8;
constexpr size_t kOffEndian = 12;
constexpr size_t kOffFileBytes = 16;
constexpr size_t kOffChecksum = 24;
constexpr size_t kOffLabelCount = 32;
constexpr size_t kOffTreeCount = 36;
constexpr size_t kOffPatternCount = 40;
constexpr size_t kOffVerdictCount = 44;
constexpr size_t kOffHotCount = 48;

void AppendU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void AppendU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void AppendI32(std::string* out, int32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// Pads `out` with zero bytes to the next multiple of 8, so every entry —
/// and therefore every column inside it — lands on an aligned offset in the
/// mapped file.
void PadTo8(std::string* out) {
  while (out->size() % 8 != 0) out->push_back('\0');
}

/// FNV-1a 64-bit, streamed across the section buffers.
uint64_t Fnv1a(uint64_t h, const void* data, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

constexpr uint64_t kFnvSeed = 0xcbf29ce484222325ULL;

void PutU32(std::string* buf, size_t off, uint32_t v) {
  std::memcpy(buf->data() + off, &v, sizeof(v));
}

void PutU64(std::string* buf, size_t off, uint64_t v) {
  std::memcpy(buf->data() + off, &v, sizeof(v));
}

/// Bounds-checked forward scanner over the mapped payload.  Every accessor
/// fails (returns false) instead of reading past `size`, so a truncated or
/// lying section table can never form an out-of-range pointer.
struct Cursor {
  const uint8_t* base;
  uint64_t size;
  uint64_t off = 0;

  bool U32(uint32_t* v) {
    if (size - off < 4) return false;
    std::memcpy(v, base + off, 4);
    off += 4;
    return true;
  }
  bool U64(uint64_t* v) {
    if (size - off < 8) return false;
    std::memcpy(v, base + off, 8);
    off += 8;
    return true;
  }
  /// Claims `count` elements of `elem_bytes` each; `*p` points into the
  /// mapping.  The caller guarantees 4-byte element types only start at
  /// 4-aligned offsets (the writer's padding discipline ensures it; the
  /// assert documents it).
  bool Array(uint64_t count, uint64_t elem_bytes, const uint8_t** p) {
    if (elem_bytes != 0 && count > (size - off) / elem_bytes) return false;
    assert(elem_bytes == 1 || off % 4 == 0);
    *p = base + off;
    off += count * elem_bytes;
    return true;
  }
  bool Align8() {
    const uint64_t target = (off + 7) & ~uint64_t{7};
    if (target > size) return false;
    off = target;
    return true;
  }
  /// Whether `count` records of at least `min_record` bytes each can still
  /// fit.  Header counts lie outside the payload checksum, so each is bounded
  /// this way before anything is reserved for it.
  bool Fits(uint64_t count, uint64_t min_record) const {
    return count <= (size - off) / min_record;
  }
};

// Smallest encoding of one record per section, padding included.
constexpr uint64_t kMinLabelBytes = 8;     // u32 length, padded
constexpr uint64_t kMinTreeBytes = 32;     // u32 n, u32 pad, 6 x n >= 1 u32
constexpr uint64_t kMinPatternBytes = 40;  // 24-byte header, n >= 1 x 9 bytes
constexpr uint64_t kMinVerdictBytes = 24;  // 5 x u32, padded
constexpr uint64_t kMinHotBytes = 8;       // 2 x u32

bool Fail(std::string* error, const std::string& reason) {
  if (error != nullptr) *error = "snapshot: " + reason;
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// SnapshotWriter

SnapshotWriter::SnapshotWriter(Budget* budget) : tracked_(budget) {}

bool SnapshotWriter::AppendEntry(std::string* section, const std::string& entry,
                                 uint32_t* count) {
  // Charge-then-append: a refused charge leaves the section byte-for-byte as
  // it was, so no partial entry can ever reach the file.
  if (!tracked_.TryCharge(static_cast<int64_t>(entry.size()))) return false;
  section->append(entry);
  ++*count;
  return true;
}

bool SnapshotWriter::SetLabels(const LabelPool& pool) {
  if (have_labels_) return false;
  std::string entry;
  const size_t n = pool.size();
  for (size_t id = 0; id < n; ++id) {
    const std::string& name = pool.Name(static_cast<LabelId>(id));
    AppendU32(&entry, static_cast<uint32_t>(name.size()));
    entry.append(name);
    PadTo8(&entry);
  }
  uint32_t ignored = 0;
  if (!AppendEntry(&labels_, entry, &ignored)) return false;
  label_count_ = static_cast<uint32_t>(n);
  have_labels_ = true;
  return true;
}

std::optional<uint32_t> SnapshotWriter::AddTree(const Tree& t) {
  if (t.empty()) return std::nullopt;
  const TreeView view = t.View();
  const int32_t n = view.size();
  std::string entry;
  entry.reserve(8 + static_cast<size_t>(n) * 24 + 8);
  AppendU32(&entry, static_cast<uint32_t>(n));
  AppendU32(&entry, 0);  // pad: keep the columns 8-aligned
  auto col = [&entry, n](const void* data, size_t elem) {
    entry.append(static_cast<const char*>(data), static_cast<size_t>(n) * elem);
  };
  col(view.labels(), sizeof(LabelId));
  col(view.parent(), sizeof(NodeId));
  col(view.post_of(), sizeof(int32_t));
  col(view.node_at_post(), sizeof(NodeId));
  col(view.size_at_post(), sizeof(int32_t));
  col(view.label_at_post(), sizeof(LabelId));
  PadTo8(&entry);
  if (!AppendEntry(&trees_, entry, &tree_count_)) return std::nullopt;
  return tree_count_ - 1;
}

std::optional<uint32_t> SnapshotWriter::AddPattern(const Tpq& p,
                                                   const TpqDigest& digest) {
  if (p.empty()) return std::nullopt;
  const int32_t n = p.size();
  std::string entry;
  AppendU32(&entry, static_cast<uint32_t>(n));
  AppendU32(&entry, 0);
  AppendU64(&entry, digest.lo);
  AppendU64(&entry, digest.hi);
  for (NodeId v = 0; v < n; ++v) AppendU32(&entry, p.Label(v));
  for (NodeId v = 0; v < n; ++v) AppendI32(&entry, p.Parent(v));
  entry.push_back('\0');  // edges[0] is unused (the root has no parent edge)
  for (NodeId v = 1; v < n; ++v) {
    entry.push_back(static_cast<char>(p.Edge(v)));
  }
  PadTo8(&entry);
  if (!AppendEntry(&patterns_, entry, &pattern_count_)) return std::nullopt;
  return pattern_count_ - 1;
}

bool SnapshotWriter::AddVerdict(const SnapshotVerdict& verdict) {
  assert(verdict.p_index < pattern_count_ && verdict.q_index < pattern_count_);
  assert(verdict.tree_index < static_cast<int32_t>(tree_count_));
  std::string entry;
  AppendU32(&entry, verdict.p_index);
  AppendU32(&entry, verdict.q_index);
  entry.push_back(static_cast<char>(verdict.mode_tag));
  entry.push_back(static_cast<char>(verdict.bound_tag));
  entry.push_back(verdict.contained ? 1 : 0);
  entry.push_back(static_cast<char>(verdict.algorithm_tag));
  AppendI32(&entry, verdict.tree_index);
  AppendU32(&entry, static_cast<uint32_t>(verdict.witness.size()));
  for (int32_t len : verdict.witness) AppendI32(&entry, len);
  PadTo8(&entry);
  return AppendEntry(&verdicts_, entry, &verdict_count_);
}

bool SnapshotWriter::AddHotProgram(const SnapshotHotProgram& hot) {
  assert(hot.pattern_index < pattern_count_);
  std::string entry;
  AppendU32(&entry, hot.pattern_index);
  AppendU32(&entry, hot.mode_tag);
  return AppendEntry(&hot_programs_, entry, &hot_program_count_);
}

bool SnapshotWriter::WriteTo(const std::string& path, std::string* error) {
  if (!have_labels_) {
    return Fail(error, "writer has no label section (SetLabels failed/missing)");
  }
  const std::string* sections[] = {&labels_, &trees_, &patterns_, &verdicts_,
                                   &hot_programs_};
  uint64_t payload_bytes = 0;
  uint64_t checksum = kFnvSeed;
  for (const std::string* s : sections) {
    payload_bytes += s->size();
    checksum = Fnv1a(checksum, s->data(), s->size());
  }

  std::string header(kHeaderBytes, '\0');
  std::memcpy(header.data(), kMagic, sizeof(kMagic));
  PutU32(&header, kOffVersion, kSnapshotFormatVersion);
  PutU32(&header, kOffEndian, kEndianTag);
  PutU64(&header, kOffFileBytes, kHeaderBytes + payload_bytes);
  PutU64(&header, kOffChecksum, checksum);
  PutU32(&header, kOffLabelCount, label_count_);
  PutU32(&header, kOffTreeCount, tree_count_);
  PutU32(&header, kOffPatternCount, pattern_count_);
  PutU32(&header, kOffVerdictCount, verdict_count_);
  PutU32(&header, kOffHotCount, hot_program_count_);

  // Temp file + rename: a reader either sees the previous snapshot or the
  // complete new one, never a prefix.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return Fail(error, "cannot open temp file " + tmp);
  bool ok = std::fwrite(header.data(), 1, header.size(), f) == header.size();
  for (const std::string* s : sections) {
    ok = ok && std::fwrite(s->data(), 1, s->size(), f) == s->size();
  }
  ok = std::fclose(f) == 0 && ok;
  if (ok) ok = std::rename(tmp.c_str(), path.c_str()) == 0;
  if (!ok) {
    std::remove(tmp.c_str());
    return Fail(error, "write failed for " + path);
  }
  return true;
}

// ---------------------------------------------------------------------------
// SnapshotReader

SnapshotReader::~SnapshotReader() { Close(); }

void SnapshotReader::Close() {
  if (base_ != nullptr && is_mmap_) {
    ::munmap(const_cast<uint8_t*>(base_), static_cast<size_t>(mapped_bytes_));
  }
  base_ = nullptr;
  is_mmap_ = false;
  mapped_bytes_ = 0;
  heap_.clear();
  heap_.shrink_to_fit();
  tracked_.ReleaseAll();
  label_count_ = 0;
  labels_.clear();
  trees_.clear();
  patterns_.clear();
  verdicts_.clear();
  hot_programs_.clear();
}

bool SnapshotReader::Open(const std::string& path, Budget* budget,
                          std::string* error) {
  Close();
  tracked_.Attach(budget);

  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Fail(error, "cannot open " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return Fail(error, "cannot stat " + path);
  }
  const int64_t file_bytes = static_cast<int64_t>(st.st_size);
  if (file_bytes < static_cast<int64_t>(kHeaderBytes)) {
    ::close(fd);
    return Fail(error, "truncated: file smaller than the 64-byte header");
  }
  if (!tracked_.TryCharge(file_bytes)) {
    ::close(fd);
    return Fail(error, "byte budget refused the mapping");
  }

  void* mapped = ::mmap(nullptr, static_cast<size_t>(file_bytes), PROT_READ,
                        MAP_PRIVATE, fd, 0);
  if (mapped != MAP_FAILED) {
    base_ = static_cast<const uint8_t*>(mapped);
    is_mmap_ = true;
    ::close(fd);
  } else {
    // Filesystems without mmap support: fall back to a heap image.  Same
    // validation, same accessors; only the zero-copy property is lost.
    heap_.resize(static_cast<size_t>(file_bytes));
    int64_t done = 0;
    while (done < file_bytes) {
      const ssize_t got = ::pread(fd, heap_.data() + done,
                                  static_cast<size_t>(file_bytes - done), done);
      if (got <= 0) {
        ::close(fd);
        Close();
        return Fail(error, "short read from " + path);
      }
      done += got;
    }
    ::close(fd);
    base_ = heap_.data();
    is_mmap_ = false;
  }
  mapped_bytes_ = file_bytes;

  if (!Validate(error)) {
    Close();
    return false;
  }
  return true;
}

bool SnapshotReader::Validate(std::string* error) {
  if (std::memcmp(base_, kMagic, sizeof(kMagic)) != 0) {
    return Fail(error, "bad magic (not a TPC snapshot)");
  }
  uint32_t version, endian, verdict_count, hot_count, tree_count, pat_count;
  uint64_t file_bytes, checksum;
  std::memcpy(&version, base_ + kOffVersion, 4);
  std::memcpy(&endian, base_ + kOffEndian, 4);
  std::memcpy(&file_bytes, base_ + kOffFileBytes, 8);
  std::memcpy(&checksum, base_ + kOffChecksum, 8);
  std::memcpy(&label_count_, base_ + kOffLabelCount, 4);
  std::memcpy(&tree_count, base_ + kOffTreeCount, 4);
  std::memcpy(&pat_count, base_ + kOffPatternCount, 4);
  std::memcpy(&verdict_count, base_ + kOffVerdictCount, 4);
  std::memcpy(&hot_count, base_ + kOffHotCount, 4);

  if (version != kSnapshotFormatVersion) {
    return Fail(error, "format version skew: file has v" +
                           std::to_string(version) + ", reader expects v" +
                           std::to_string(kSnapshotFormatVersion));
  }
  if (endian != kEndianTag) {
    return Fail(error, "endianness mismatch (foreign byte order)");
  }
  if (file_bytes != static_cast<uint64_t>(mapped_bytes_)) {
    return Fail(error, "truncated: header declares " +
                           std::to_string(file_bytes) + " bytes, file has " +
                           std::to_string(mapped_bytes_));
  }
  const uint64_t actual =
      Fnv1a(kFnvSeed, base_ + kHeaderBytes,
            static_cast<size_t>(mapped_bytes_) - kHeaderBytes);
  if (actual != checksum) {
    return Fail(error, "payload checksum mismatch (corrupt file)");
  }
  // Reserved header tail must be zero — it is the only region the payload
  // checksum does not cover, and a future version may assign it meaning.
  for (uint64_t i = kOffHotCount + 4; i < kHeaderBytes; ++i) {
    if (base_[i] != 0) {
      return Fail(error, "nonzero reserved header bytes (corrupt file)");
    }
  }
  if (label_count_ == 0) return Fail(error, "empty label section");

  Cursor cur{base_ + kHeaderBytes,
             static_cast<uint64_t>(mapped_bytes_) - kHeaderBytes};

  // Labels: spellings in id order; id 0 must be the wildcard.
  if (!cur.Fits(label_count_, kMinLabelBytes)) {
    return Fail(error, "label count exceeds the file");
  }
  labels_.reserve(label_count_);
  for (uint32_t i = 0; i < label_count_; ++i) {
    uint32_t len;
    const uint8_t* bytes;
    if (!cur.U32(&len) || !cur.Array(len, 1, &bytes) || !cur.Align8()) {
      return Fail(error, "label section overruns the file");
    }
    labels_.emplace_back(reinterpret_cast<const char*>(bytes), len);
  }
  if (labels_[0] != "*") return Fail(error, "label id 0 is not the wildcard");

  // Trees: six columns each, then the full invariant check.
  if (!cur.Fits(tree_count, kMinTreeBytes)) {
    return Fail(error, "tree count exceeds the file");
  }
  trees_.reserve(tree_count);
  for (uint32_t i = 0; i < tree_count; ++i) {
    uint32_t n, pad;
    if (!cur.U32(&n) || !cur.U32(&pad) || n == 0 ||
        n > static_cast<uint32_t>(INT32_MAX)) {
      return Fail(error, "tree " + std::to_string(i) + ": bad node count");
    }
    TreeColumns t;
    t.n = static_cast<int32_t>(n);
    const uint8_t* p;
    auto take = [&cur, &p, n](const void** out) {
      if (!cur.Array(n, 4, &p)) return false;
      *out = p;
      return true;
    };
    const void* cols[6];
    for (auto& c : cols) {
      if (!take(&c)) {
        return Fail(error, "tree " + std::to_string(i) + " overruns the file");
      }
    }
    if (!cur.Align8()) return Fail(error, "tree section overruns the file");
    t.labels = static_cast<const LabelId*>(cols[0]);
    t.parent = static_cast<const NodeId*>(cols[1]);
    t.post_of = static_cast<const int32_t*>(cols[2]);
    t.node_at_post = static_cast<const NodeId*>(cols[3]);
    t.size_at_post = static_cast<const int32_t*>(cols[4]);
    t.label_at_post = static_cast<const LabelId*>(cols[5]);
    std::string why;
    if (!ValidateTree(t, &why)) {
      return Fail(error, "tree " + std::to_string(i) + ": " + why);
    }
    trees_.push_back(t);
  }

  // Patterns.
  if (!cur.Fits(pat_count, kMinPatternBytes)) {
    return Fail(error, "pattern count exceeds the file");
  }
  patterns_.reserve(pat_count);
  for (uint32_t i = 0; i < pat_count; ++i) {
    uint32_t n, pad;
    PatternRecord rec;
    if (!cur.U32(&n) || !cur.U32(&pad) || !cur.U64(&rec.digest.lo) ||
        !cur.U64(&rec.digest.hi) || n == 0 ||
        n > static_cast<uint32_t>(INT32_MAX)) {
      return Fail(error, "pattern " + std::to_string(i) + ": bad header");
    }
    rec.n = static_cast<int32_t>(n);
    const uint8_t* p;
    if (!cur.Array(n, sizeof(LabelId), &p)) {
      return Fail(error, "pattern " + std::to_string(i) + " overruns the file");
    }
    rec.labels = reinterpret_cast<const LabelId*>(p);
    if (!cur.Array(n, sizeof(NodeId), &p)) {
      return Fail(error, "pattern " + std::to_string(i) + " overruns the file");
    }
    rec.parents = reinterpret_cast<const NodeId*>(p);
    if (!cur.Array(n, 1, &p) || !cur.Align8()) {
      return Fail(error, "pattern " + std::to_string(i) + " overruns the file");
    }
    rec.edges = p;
    if (rec.parents[0] != kNoNode) {
      return Fail(error, "pattern " + std::to_string(i) + ": root has parent");
    }
    for (int32_t v = 1; v < rec.n; ++v) {
      if (rec.parents[v] < 0 || rec.parents[v] >= v) {
        return Fail(error,
                    "pattern " + std::to_string(i) + ": parent out of order");
      }
      if (rec.edges[v] > 1) {
        return Fail(error, "pattern " + std::to_string(i) + ": bad edge kind");
      }
    }
    for (int32_t v = 0; v < rec.n; ++v) {
      if (rec.labels[v] >= label_count_) {
        return Fail(error,
                    "pattern " + std::to_string(i) + ": label out of range");
      }
    }
    patterns_.push_back(rec);
  }

  // Verdicts.
  if (!cur.Fits(verdict_count, kMinVerdictBytes)) {
    return Fail(error, "verdict count exceeds the file");
  }
  verdicts_.reserve(verdict_count);
  for (uint32_t i = 0; i < verdict_count; ++i) {
    VerdictRecord rec;
    uint32_t witness_len;
    uint8_t raw[4];
    const uint8_t* p;
    if (!cur.U32(&rec.p_index) || !cur.U32(&rec.q_index) ||
        !cur.Array(4, 1, &p)) {
      return Fail(error, "verdict " + std::to_string(i) + " overruns the file");
    }
    std::memcpy(raw, p, 4);
    rec.mode_tag = raw[0];
    rec.bound_tag = raw[1];
    rec.contained = raw[2] != 0;
    rec.algorithm_tag = raw[3];
    uint32_t tree_index_raw;
    if (!cur.U32(&tree_index_raw) || !cur.U32(&witness_len)) {
      return Fail(error, "verdict " + std::to_string(i) + " overruns the file");
    }
    rec.tree_index = static_cast<int32_t>(tree_index_raw);
    if (!cur.Array(witness_len, sizeof(int32_t), &p) || !cur.Align8()) {
      return Fail(error, "verdict " + std::to_string(i) + " overruns the file");
    }
    rec.witness = reinterpret_cast<const int32_t*>(p);
    rec.witness_len = witness_len;
    if (rec.p_index >= pat_count || rec.q_index >= pat_count) {
      return Fail(error,
                  "verdict " + std::to_string(i) + ": pattern index oob");
    }
    if (rec.tree_index < -1 ||
        rec.tree_index >= static_cast<int32_t>(tree_count)) {
      return Fail(error, "verdict " + std::to_string(i) + ": tree index oob");
    }
    verdicts_.push_back(rec);
  }

  // Hot programs.
  if (!cur.Fits(hot_count, kMinHotBytes)) {
    return Fail(error, "hot-program count exceeds the file");
  }
  hot_programs_.reserve(hot_count);
  for (uint32_t i = 0; i < hot_count; ++i) {
    SnapshotHotProgram rec;
    if (!cur.U32(&rec.pattern_index) || !cur.U32(&rec.mode_tag)) {
      return Fail(error, "hot-program section overruns the file");
    }
    if (rec.pattern_index >= pat_count) {
      return Fail(error, "hot program " + std::to_string(i) + ": index oob");
    }
    hot_programs_.push_back(rec);
  }

  if (cur.off != cur.size) {
    return Fail(error, "trailing bytes after the last section");
  }
  return true;
}

bool SnapshotReader::ValidateTree(const TreeColumns& t,
                                  std::string* error) const {
  const int32_t n = t.n;
  // 1. Parents precede children; node 0 is the root.
  if (t.parent[0] != kNoNode) return Fail(error, "root has a parent");
  for (int32_t v = 1; v < n; ++v) {
    if (t.parent[v] < 0 || t.parent[v] >= v) {
      return Fail(error, "parent does not precede child");
    }
  }
  // 2. Labels resolvable, postorder maps mutually inverse.
  for (int32_t v = 0; v < n; ++v) {
    if (t.labels[v] >= label_count_) return Fail(error, "label out of range");
    const int32_t pv = t.post_of[v];
    if (pv < 0 || pv >= n) return Fail(error, "postorder position oob");
    if (t.node_at_post[pv] != v) {
      return Fail(error, "post_of/node_at_post not inverse");
    }
    if (t.label_at_post[pv] != t.labels[v]) {
      return Fail(error, "label mirror mismatch");
    }
  }
  // 3. Subtree sizes recomputed from the parent column must match, and every
  //    span must stay inside [0, n).
  std::vector<int32_t> sz(n, 1);
  for (int32_t v = n - 1; v >= 1; --v) sz[t.parent[v]] += sz[v];
  for (int32_t v = 0; v < n; ++v) {
    const int32_t pv = t.post_of[v];
    if (t.size_at_post[pv] != sz[v]) return Fail(error, "subtree size wrong");
    if (pv - sz[v] + 1 < 0) return Fail(error, "subtree span underflows");
  }
  // 4. Child spans nest strictly inside the parent's span.
  for (int32_t v = 1; v < n; ++v) {
    const int32_t pv = t.post_of[v];
    const int32_t pp = t.post_of[t.parent[v]];
    if (pv >= pp || pv - sz[v] < pp - sz[t.parent[v]]) {
      return Fail(error, "subtree spans not nested");
    }
  }
  // 5. The sibling span-jump walk (TreeView::LastChild/PrevSibling) must
  //    visit exactly the children the parent column declares — this is what
  //    makes the postorder *real* and every matcher traversal in-bounds.
  std::vector<int32_t> nchild(n, 0);
  for (int32_t v = 1; v < n; ++v) ++nchild[t.parent[v]];
  for (int32_t i = 0; i < n; ++i) {
    const NodeId v = t.node_at_post[i];
    const int32_t begin = i - t.size_at_post[i] + 1;
    int32_t walked = 0;
    for (int32_t c = i - 1; c >= begin; c -= t.size_at_post[c]) {
      if (t.parent[t.node_at_post[c]] != v) {
        return Fail(error, "span walk crosses a foreign subtree");
      }
      ++walked;
    }
    if (walked != nchild[v]) return Fail(error, "span walk misses children");
  }
  return true;
}

// ---------------------------------------------------------------------------
// Helpers

std::optional<Tpq> BuildSnapshotTpq(const SnapshotReader::PatternRecord& rec,
                                    const std::vector<LabelId>& remap) {
  Tpq q;
  for (int32_t v = 0; v < rec.n; ++v) {
    if (rec.labels[v] >= remap.size()) return std::nullopt;
    const LabelId label = remap[rec.labels[v]];
    if (v == 0) {
      q.AddRoot(label);
    } else {
      q.AddChild(rec.parents[v], label, static_cast<EdgeKind>(rec.edges[v]));
    }
  }
  return q;
}

bool VerifySnapshotPatternDigest(const SnapshotReader::PatternRecord& rec) {
  Tpq q;
  for (int32_t v = 0; v < rec.n; ++v) {
    if (v == 0) {
      q.AddRoot(rec.labels[v]);
    } else {
      q.AddChild(rec.parents[v], rec.labels[v],
                 static_cast<EdgeKind>(rec.edges[v]));
    }
  }
  return CanonicalTpqDigest(q) == rec.digest;
}

}  // namespace tpc
