#include "nn/serialize.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <string_view>

#include "common/file_publish.h"

namespace scis {
namespace {

constexpr char kBinMagic[8] = {'s', 'c', 'i', 's', 'c', 'k', 'p', '3'};
constexpr uint32_t kEndianTag = 0x01020304;
constexpr size_t kBlobAlign = 64;  // bytes; params start cache-line aligned

void PutBytes(const void* p, size_t n, std::string* out) {
  out->append(static_cast<const char*>(p), n);
}
void PutU32(uint32_t v, std::string* out) { PutBytes(&v, sizeof(v), out); }
void PutU64(uint64_t v, std::string* out) { PutBytes(&v, sizeof(v), out); }
void PutStr(const std::string& s, std::string* out) {
  PutU32(static_cast<uint32_t>(s.size()), out);
  PutBytes(s.data(), s.size(), out);
}

// Bounds-checked reader over the mapped bytes; every Get fails cleanly on a
// truncated or hostile file instead of walking off the mapping.
class BinReader {
 public:
  BinReader(const uint8_t* data, size_t len) : data_(data), len_(len) {}

  bool GetBytes(void* out, size_t n) {
    if (len_ - at_ < n) return false;
    std::memcpy(out, data_ + at_, n);
    at_ += n;
    return true;
  }
  bool GetU32(uint32_t* v) { return GetBytes(v, sizeof(*v)); }
  bool GetU64(uint64_t* v) { return GetBytes(v, sizeof(*v)); }
  bool GetStr(std::string* s, size_t max_len = 1u << 20) {
    uint32_t n = 0;
    if (!GetU32(&n) || n > max_len || len_ - at_ < n) return false;
    s->assign(reinterpret_cast<const char*>(data_ + at_), n);
    at_ += n;
    return true;
  }
  bool GetF64Array(double* out, size_t count) {
    return GetBytes(out, count * sizeof(double));
  }
  size_t at() const { return at_; }

 private:
  const uint8_t* data_;
  size_t len_;
  size_t at_ = 0;
};

// Appended to every load error that means "not a v3 file", so an operator
// holding a retired v1/v2 text checkpoint learns how to replace it.
constexpr char kResaveHint[] =
    " (v1/v2 text checkpoints are retired; re-save with scis_impute "
    "--save_params)";

}  // namespace

Status SaveCheckpoint(const ParamStore& store, const CheckpointMeta& meta,
                      const std::string& path) {
  if (meta.model.empty()) {
    return Status::InvalidArgument("checkpoint meta needs a model tag");
  }
  if (meta.columns.empty() || meta.norm_lo.size() != meta.columns.size() ||
      meta.norm_hi.size() != meta.columns.size()) {
    return Status::InvalidArgument(
        "checkpoint meta columns/normalizer sizes disagree");
  }
  std::string head;
  head.append(kBinMagic, sizeof(kBinMagic));
  PutU32(kEndianTag, &head);
  PutStr(meta.model, &head);
  PutU32(static_cast<uint32_t>(meta.columns.size()), &head);
  for (const CheckpointColumn& c : meta.columns) {
    PutU32(static_cast<uint32_t>(c.kind), &head);
    PutU32(static_cast<uint32_t>(c.num_categories), &head);
    PutStr(c.name, &head);
  }
  PutBytes(meta.norm_lo.data(), meta.norm_lo.size() * sizeof(double), &head);
  PutBytes(meta.norm_hi.data(), meta.norm_hi.size() * sizeof(double), &head);
  PutU32(static_cast<uint32_t>(store.size()), &head);
  // Element offsets into the blob, each param 64-byte aligned.
  constexpr size_t kAlignDoubles = kBlobAlign / sizeof(double);
  uint64_t blob_doubles = 0;
  for (size_t id = 0; id < store.size(); ++id) {
    const Matrix& m = store.value(id);
    PutStr(store.name(id), &head);
    PutU64(m.rows(), &head);
    PutU64(m.cols(), &head);
    PutU64(blob_doubles, &head);
    blob_doubles += (m.size() + kAlignDoubles - 1) / kAlignDoubles *
                    kAlignDoubles;
  }
  // Pad the header to a 64-byte boundary so blob offsets are file offsets
  // modulo alignment (mmap bases are page-aligned, so this suffices).
  head.append((kBlobAlign - head.size() % kBlobAlign) % kBlobAlign, '\0');

  // Atomic publish (temp file, fsync, rename, directory fsync): live
  // MAP_PRIVATE mappings of the old file keep the old inode, so engines
  // serving from it never see a truncated file (no SIGBUS).
  static constexpr double kPad[kAlignDoubles] = {};
  std::vector<std::string_view> pieces = {head};
  for (size_t id = 0; id < store.size(); ++id) {
    const Matrix& m = store.value(id);
    pieces.emplace_back(reinterpret_cast<const char*>(m.data()),
                        m.size() * sizeof(double));
    const size_t tail = m.size() % kAlignDoubles;
    if (tail != 0) {
      pieces.emplace_back(reinterpret_cast<const char*>(kPad),
                          (kAlignDoubles - tail) * sizeof(double));
    }
  }
  return PublishFile(path, pieces);
}

MappedCheckpoint::~MappedCheckpoint() {
  if (map_base_ != nullptr) ::munmap(map_base_, map_len_);
}

Result<std::shared_ptr<const MappedCheckpoint>> MappedCheckpoint::Map(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IoError("cannot open " + path);
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return Status::IoError("stat " + path + " failed");
  }
  const size_t len = static_cast<size_t>(st.st_size);
  if (len < sizeof(kBinMagic) + sizeof(uint32_t)) {
    ::close(fd);
    return Status::InvalidArgument(path + " is too short to be a checkpoint" +
                                   kResaveHint);
  }
  void* base = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (base == MAP_FAILED) return Status::IoError("mmap " + path + " failed");

  auto ckpt = std::shared_ptr<MappedCheckpoint>(new MappedCheckpoint());
  ckpt->map_base_ = base;
  ckpt->map_len_ = len;
  const uint8_t* bytes = static_cast<const uint8_t*>(base);

  BinReader r(bytes, len);
  char magic[sizeof(kBinMagic)];
  uint32_t endian = 0;
  if (!r.GetBytes(magic, sizeof(magic)) ||
      std::memcmp(magic, kBinMagic, sizeof(magic)) != 0) {
    return Status::InvalidArgument("not a v3 checkpoint: " + path +
                                   kResaveHint);
  }
  if (!r.GetU32(&endian) || endian != kEndianTag) {
    return Status::InvalidArgument("checkpoint endianness mismatch: " + path);
  }
  CheckpointMeta& meta = ckpt->meta_;
  uint32_t d = 0;
  if (!r.GetStr(&meta.model) || !r.GetU32(&d) || d == 0) {
    return Status::InvalidArgument("truncated v3 header in " + path);
  }
  meta.columns.resize(d);
  for (CheckpointColumn& c : meta.columns) {
    uint32_t kind = 0, cats = 0;
    if (!r.GetU32(&kind) || !r.GetU32(&cats) || !r.GetStr(&c.name)) {
      return Status::InvalidArgument("truncated column schema in " + path);
    }
    c.kind = static_cast<int>(kind);
    c.num_categories = static_cast<int>(cats);
  }
  meta.norm_lo.resize(d);
  meta.norm_hi.resize(d);
  if (!r.GetF64Array(meta.norm_lo.data(), d) ||
      !r.GetF64Array(meta.norm_hi.data(), d)) {
    return Status::InvalidArgument("truncated normalizer stats in " + path);
  }
  uint32_t count = 0;
  if (!r.GetU32(&count) || count > (1u << 20)) {
    return Status::InvalidArgument("bad param count in " + path);
  }
  struct PendingParam {
    std::string name;
    uint64_t rows, cols, offset;
  };
  std::vector<PendingParam> pending(count);
  for (PendingParam& p : pending) {
    if (!r.GetStr(&p.name) || !r.GetU64(&p.rows) || !r.GetU64(&p.cols) ||
        !r.GetU64(&p.offset)) {
      return Status::InvalidArgument("truncated param table in " + path);
    }
  }
  const size_t blob_start =
      (r.at() + kBlobAlign - 1) / kBlobAlign * kBlobAlign;
  if (blob_start > len) {
    return Status::InvalidArgument("truncated value blob in " + path);
  }
  const size_t blob_doubles = (len - blob_start) / sizeof(double);
  const double* blob = reinterpret_cast<const double*>(bytes + blob_start);
  ckpt->params_.reserve(count);
  for (PendingParam& p : pending) {
    // Overflow-safe bounds check against the mapped blob.
    if (p.rows == 0 || p.cols == 0 ||
        p.cols > blob_doubles || p.rows > blob_doubles / p.cols ||
        p.offset > blob_doubles - p.rows * p.cols) {
      return Status::InvalidArgument("param '" + p.name +
                                     "' overruns the value blob in " + path);
    }
    ParamView view;
    view.name = std::move(p.name);
    view.rows = static_cast<size_t>(p.rows);
    view.cols = static_cast<size_t>(p.cols);
    view.data = blob + p.offset;
    ckpt->params_.push_back(std::move(view));
  }
  return std::shared_ptr<const MappedCheckpoint>(std::move(ckpt));
}

Checkpoint MappedCheckpoint::ToCheckpoint() const {
  Checkpoint ckpt;
  ckpt.version = 3;
  ckpt.meta = meta_;
  ckpt.params.reserve(params_.size());
  for (const ParamView& p : params_) {
    Matrix m(p.rows, p.cols);
    std::memcpy(m.data(), p.data, p.rows * p.cols * sizeof(double));
    ckpt.params.push_back({p.name, std::move(m)});
  }
  return ckpt;
}

Result<Checkpoint> LoadCheckpoint(const std::string& path) {
  SCIS_ASSIGN_OR_RETURN(std::shared_ptr<const MappedCheckpoint> mapped,
                        MappedCheckpoint::Map(path));
  return mapped->ToCheckpoint();
}

}  // namespace scis
