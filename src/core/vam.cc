#include "src/core/vam.h"

#include "src/util/check.h"
#include "src/util/crc32.h"
#include "src/util/serial.h"

namespace cedar::core {
namespace {

constexpr std::uint32_t kVamMagic = 0x46534456;  // "FSDV"
constexpr std::size_t kDeltaBytes = 9;           // op u8 + start u32 + count u32
constexpr std::size_t kDeltasPerPage = (512 - 2 - 4) / kDeltaBytes;
static_assert(kDeltasPerPage == kVamDeltasPerPage);

}  // namespace

std::vector<std::vector<std::uint8_t>> SerializeDeltas(
    std::span<const VamDelta> deltas) {
  std::vector<std::vector<std::uint8_t>> pages;
  for (std::size_t off = 0; off < deltas.size(); off += kDeltasPerPage) {
    const std::size_t n = std::min(kDeltasPerPage, deltas.size() - off);
    ByteWriter w;
    w.U16(static_cast<std::uint16_t>(n));
    for (std::size_t i = 0; i < n; ++i) {
      const VamDelta& delta = deltas[off + i];
      w.U8(static_cast<std::uint8_t>(delta.op));
      w.U32(delta.start);
      w.U32(delta.count);
    }
    std::vector<std::uint8_t> page = w.Take();
    const std::uint32_t crc = Crc32(page);
    ByteWriter tail(&page);
    tail.U32(crc);
    page.resize(512, 0);
    pages.push_back(std::move(page));
  }
  return pages;
}

Status ParseDeltas(std::span<const std::uint8_t> page,
                   std::vector<VamDelta>* out) {
  ByteReader r(page);
  const std::uint16_t n = r.U16();
  if (n > kDeltasPerPage) {
    return MakeError(ErrorCode::kCorruptMetadata, "delta page count");
  }
  std::vector<VamDelta> deltas;
  for (std::uint16_t i = 0; i < n && r.ok(); ++i) {
    VamDelta delta;
    const std::uint8_t op = r.U8();
    if (op > static_cast<std::uint8_t>(VamDelta::Op::kNtFree)) {
      return MakeError(ErrorCode::kCorruptMetadata, "delta op");
    }
    delta.op = static_cast<VamDelta::Op>(op);
    delta.start = r.U32();
    delta.count = r.U32();
    deltas.push_back(delta);
  }
  if (!r.ok()) {
    return MakeError(ErrorCode::kCorruptMetadata, "truncated delta page");
  }
  const std::size_t body = r.position();
  ByteReader cr(page.subspan(body, 4));
  if (cr.U32() != Crc32(page.subspan(0, body))) {
    return MakeError(ErrorCode::kCorruptMetadata, "delta page crc");
  }
  out->insert(out->end(), deltas.begin(), deltas.end());
  return OkStatus();
}

void Vam::Apply(const VamDelta& delta) {
  std::lock_guard<std::mutex> lock(mu_);
  switch (delta.op) {
    case VamDelta::Op::kAlloc:
      free_.SetRange(delta.start, delta.count, false);
      break;
    case VamDelta::Op::kFree:
      free_.SetRange(delta.start, delta.count, true);
      break;
    case VamDelta::Op::kNtAlloc:
      nt_free_.SetRange(delta.start, delta.count, false);
      break;
    case VamDelta::Op::kNtFree:
      nt_free_.SetRange(delta.start, delta.count, true);
      break;
  }
}

Status Vam::Save(sim::BlockDevice* disk, sim::Lba base, std::uint32_t sectors,
                 std::uint32_t boot_count, std::uint64_t lsn) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::uint8_t> payload;
  ByteWriter pw(&payload);
  for (std::uint64_t word : free_.words()) {
    pw.U64(word);
  }
  for (std::uint64_t word : nt_free_.words()) {
    pw.U64(word);
  }

  ByteWriter hw;
  hw.U32(kVamMagic);
  hw.U32(boot_count);
  hw.U64(lsn);
  hw.U32(free_.size());
  hw.U32(nt_free_.size());
  hw.U32(Crc32(payload));

  std::vector<std::uint8_t> buf(static_cast<std::size_t>(sectors) * 512, 0);
  CEDAR_CHECK(hw.size() <= 512);
  CEDAR_CHECK(512 + payload.size() <= buf.size());
  std::copy(hw.buffer().begin(), hw.buffer().end(), buf.begin());
  std::copy(payload.begin(), payload.end(), buf.begin() + 512);
  return disk->Write(base, buf);
}

Status Vam::Load(sim::BlockDevice* disk, sim::Lba base, std::uint32_t sectors,
                 std::uint32_t expected_boot, std::uint64_t* lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(sectors) * 512);
  CEDAR_RETURN_IF_ERROR(disk->Read(base, buf));
  ByteReader r(buf);
  if (r.U32() != kVamMagic) {
    return MakeError(ErrorCode::kCorruptMetadata, "bad VAM magic");
  }
  const std::uint32_t stamp = r.U32();
  const std::uint64_t saved_lsn = r.U64();
  const std::uint32_t free_bits = r.U32();
  const std::uint32_t nt_bits = r.U32();
  const std::uint32_t crc = r.U32();
  if (!r.ok() || free_bits != free_.size() || nt_bits != nt_free_.size()) {
    return MakeError(ErrorCode::kCorruptMetadata, "VAM size mismatch");
  }
  if (expected_boot != kAnyBoot && stamp != expected_boot) {
    return MakeError(ErrorCode::kFailedPrecondition,
                     "stale VAM save (unclean shutdown)");
  }
  const std::size_t payload_len =
      (free_.words().size() + nt_free_.words().size()) * 8;
  std::span<const std::uint8_t> payload(buf.data() + 512, payload_len);
  if (Crc32(payload) != crc) {
    return MakeError(ErrorCode::kCorruptMetadata, "VAM crc mismatch");
  }
  ByteReader pr(payload);
  for (std::uint64_t& word : free_.mutable_words()) {
    word = pr.U64();
  }
  for (std::uint64_t& word : nt_free_.mutable_words()) {
    word = pr.U64();
  }
  shadow_.clear();
  if (lsn != nullptr) {
    *lsn = saved_lsn;
  }
  return OkStatus();
}

}  // namespace cedar::core
