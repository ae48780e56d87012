#include "formats/bamx.h"

#include <algorithm>
#include <cstring>

#include "formats/bam.h"
#include "formats/seqcodec.h"

namespace ngsx::bamx {

using sam::AlignmentRecord;
using sam::SamHeader;

// Fixed-width scalar prefix of every BAMX record (36 bytes):
//   off  0  i32  ref_id
//   off  4  i32  pos
//   off  8  u16  flag
//   off 10  u8   mapq
//   off 11  u8   (reserved, zero)
//   off 12  i32  mate_ref_id
//   off 16  i32  mate_pos
//   off 20  i32  tlen
//   off 24  u16  qname_len   (excluding NUL)
//   off 26  u16  n_cigar
//   off 28  u32  seq_len
//   off 32  u32  aux_len
// Variable (padded) sections follow at layout-derived offsets:
//   qname[max_qname], cigar u32[max_cigar], seq 4-bit[(max_seq+1)/2],
//   qual u8[max_seq], aux u8[max_aux], zero pad to stride.

namespace {

constexpr std::string_view kBamxMagic{"BAMX\1", 5};
constexpr std::string_view kBaixMagic{"BAIX\1", 5};
constexpr std::string_view kManifestMagic{"BAMXM\1", 6};
constexpr uint16_t kVersion = 1;
constexpr uint16_t kManifestVersion = 2;

/// True if a record with these section lengths fits `layout`.
bool fits_lengths(const BamxLayout& layout, size_t qname, size_t cigar,
                  size_t seq, size_t aux) {
  return qname <= layout.max_qname && cigar <= layout.max_cigar &&
         seq <= layout.max_seq && aux <= layout.max_aux;
}

/// Parses the BAM-style header blob a BAMX file or a BAMXM manifest
/// embeds (magic, text, reference dictionary).
SamHeader decode_header_blob(std::string_view blob, const std::string& path) {
  ByteReader hr(blob);
  if (hr.read_bytes(4) != std::string_view("BAM\1", 4)) {
    throw FormatError("bad embedded header magic in '" + path + "'");
  }
  int32_t l_text = hr.read<int32_t>();
  std::string text(hr.read_bytes(static_cast<size_t>(l_text)));
  int32_t n_ref = hr.read<int32_t>();
  std::vector<sam::Reference> refs;
  for (int32_t i = 0; i < n_ref; ++i) {
    int32_t l_name = hr.read<int32_t>();
    std::string_view name = hr.read_bytes(static_cast<size_t>(l_name));
    int32_t l_ref = hr.read<int32_t>();
    refs.push_back(
        sam::Reference{std::string(name.substr(0, name.size() - 1)), l_ref});
  }
  SamHeader from_text = SamHeader::from_text(text);
  return from_text.references().size() == refs.size()
             ? std::move(from_text)
             : SamHeader::from_references(std::move(refs));
}

}  // namespace

// -------------------------------------------------------------------- layout

void BamxLayout::accommodate(const AlignmentRecord& rec) {
  max_qname = std::max(max_qname, static_cast<uint32_t>(rec.qname.size()));
  max_cigar = std::max(max_cigar, static_cast<uint32_t>(rec.cigar.size()));
  max_seq = std::max(max_seq, static_cast<uint32_t>(rec.seq.size()));
  max_aux = std::max(max_aux,
                     static_cast<uint32_t>(bam::aux_encoded_size(rec.tags)));
}

void BamxLayout::accommodate(const bam::RecordShape& shape) {
  max_qname = std::max(max_qname, shape.qname_len);
  max_cigar = std::max(max_cigar, shape.n_cigar);
  max_seq = std::max(max_seq, shape.seq_len);
  max_aux = std::max(max_aux, shape.aux_len);
}

bool BamxLayout::fits(const AlignmentRecord& rec) const {
  return fits_lengths(*this, rec.qname.size(), rec.cigar.size(),
                      rec.seq.size(), bam::aux_encoded_size(rec.tags));
}

// -------------------------------------------------------------------- encode

void encode_record(const AlignmentRecord& rec, const BamxLayout& layout,
                   std::string& out) {
  const size_t aux_len = bam::aux_encoded_size(rec.tags);
  if (!fits_lengths(layout, rec.qname.size(), rec.cigar.size(),
                    rec.seq.size(), aux_len)) {
    throw UsageError("record '" + rec.qname + "' exceeds BAMX layout");
  }
  size_t base = out.size();
  out.resize(base + layout.stride(), '\0');
  char* p = out.data() + base;

  auto put = [&](size_t off, auto v) { std::memcpy(p + off, &v, sizeof(v)); };

  put(0, rec.ref_id);
  put(4, rec.pos);
  put(8, rec.flag);
  p[10] = static_cast<char>(rec.mapq);
  put(12, rec.mate_ref_id);
  put(16, rec.mate_pos);
  put(20, rec.tlen);
  put(24, static_cast<uint16_t>(rec.qname.size()));
  put(26, static_cast<uint16_t>(rec.cigar.size()));
  put(28, static_cast<uint32_t>(rec.seq.size()));

  std::memcpy(p + layout.qname_offset(), rec.qname.data(), rec.qname.size());

  char* cig = p + layout.cigar_offset();
  for (size_t i = 0; i < rec.cigar.size(); ++i) {
    uint32_t packed =
        (rec.cigar[i].len << 4) | sam::cigar_op_code(rec.cigar[i].op);
    std::memcpy(cig + 4 * i, &packed, 4);
  }

  seqcodec::pack_seq_into(rec.seq, p + layout.seq_offset());

  char* qual = p + layout.qual_offset();
  if (rec.qual.empty()) {
    std::memset(qual, 0xFF, rec.seq.size());
  } else {
    seqcodec::ascii_to_quals(rec.qual, qual);
  }

  put(32, static_cast<uint32_t>(aux_len));
  bam::encode_aux(rec.tags, p + layout.aux_offset());
}

// ---------------------------------------------------------------- transcode

void transcode_bam_record(std::string_view body, const bam::RecordShape& shape,
                          const BamxLayout& layout, std::string& out) {
  if (!fits_lengths(layout, shape.qname_len, shape.n_cigar, shape.seq_len,
                    shape.aux_len)) {
    throw UsageError("BAM record exceeds BAMX layout");
  }
  size_t base = out.size();
  out.resize(base + layout.stride(), '\0');
  char* p = out.data() + base;
  const char* b = body.data();

  auto put = [&](size_t off, auto v) { std::memcpy(p + off, &v, sizeof(v)); };

  // Scalar prefix: the BAM fixed fields, rearranged.
  uint32_t bin_mq_nl;
  uint32_t flag_nc;
  std::memcpy(&bin_mq_nl, b + 8, 4);
  std::memcpy(&flag_nc, b + 12, 4);
  std::memcpy(p, b, 8);  // ref_id, pos
  put(8, static_cast<uint16_t>(flag_nc >> 16));
  p[10] = static_cast<char>((bin_mq_nl >> 8) & 0xFF);
  std::memcpy(p + 12, b + 20, 12);  // mate_ref_id, mate_pos, tlen
  put(24, static_cast<uint16_t>(shape.qname_len));
  put(26, static_cast<uint16_t>(shape.n_cigar));
  put(28, shape.seq_len);
  put(32, shape.aux_len);

  // Variable sections: copies, except where the round trip through an
  // AlignmentRecord would normalize the bytes.
  const char* in = b + 32;
  std::memcpy(p + layout.qname_offset(), in, shape.qname_len);
  in += shape.qname_len + 1;  // and the NUL
  std::memcpy(p + layout.cigar_offset(), in, 4ull * shape.n_cigar);
  in += 4ull * shape.n_cigar;
  const size_t seq_bytes = (static_cast<size_t>(shape.seq_len) + 1) / 2;
  char* seq = p + layout.seq_offset();
  std::memcpy(seq, in, seq_bytes);
  if (shape.seq_len % 2 == 1) {
    seq[seq_bytes - 1] &= static_cast<char>(0xF0);  // zero the pad nibble
  }
  in += seq_bytes;
  char* qual = p + layout.qual_offset();
  if (shape.seq_len > 0 && static_cast<uint8_t>(in[0]) == 0xFF) {
    std::memset(qual, 0xFF, shape.seq_len);  // absent qualities
  } else {
    std::memcpy(qual, in, shape.seq_len);
  }
  in += shape.seq_len;
  bam::normalize_aux(body.substr(static_cast<size_t>(in - b)),
                     p + layout.aux_offset());
}

// -------------------------------------------------------------------- decode

void decode_record(std::string_view body, const BamxLayout& layout,
                   AlignmentRecord& rec) {
  if (body.size() < layout.stride()) {
    throw FormatError("BAMX record shorter than stride");
  }
  const char* p = body.data();
  auto get = [&](size_t off, auto& v) { std::memcpy(&v, p + off, sizeof(v)); };

  get(0, rec.ref_id);
  get(4, rec.pos);
  get(8, rec.flag);
  rec.mapq = static_cast<uint8_t>(p[10]);
  get(12, rec.mate_ref_id);
  get(16, rec.mate_pos);
  get(20, rec.tlen);
  uint16_t qname_len;
  uint16_t n_cigar;
  uint32_t seq_len;
  uint32_t aux_len;
  get(24, qname_len);
  get(26, n_cigar);
  get(28, seq_len);
  get(32, aux_len);

  if (qname_len > layout.max_qname || n_cigar > layout.max_cigar ||
      seq_len > layout.max_seq || aux_len > layout.max_aux) {
    throw FormatError("BAMX record lengths exceed file layout");
  }

  rec.qname.assign(p + layout.qname_offset(), qname_len);

  rec.cigar.clear();
  rec.cigar.reserve(n_cigar);
  const char* cig = p + layout.cigar_offset();
  for (uint16_t i = 0; i < n_cigar; ++i) {
    uint32_t packed;
    std::memcpy(&packed, cig + 4 * i, 4);
    rec.cigar.push_back(
        sam::CigarOp{sam::cigar_op_char(packed & 0xF), packed >> 4});
  }

  seqcodec::unpack_seq(p + layout.seq_offset(), seq_len, rec.seq);

  const char* qual = p + layout.qual_offset();
  rec.qual.clear();
  if (seq_len > 0 && static_cast<uint8_t>(qual[0]) != 0xFF) {
    seqcodec::quals_to_ascii(qual, seq_len, rec.qual);
  }

  bam::decode_aux(std::string_view(p + layout.aux_offset(), aux_len),
                  rec.tags);
}

std::pair<int32_t, int32_t> peek_ref_pos(std::string_view body) {
  int32_t ref;
  int32_t pos;
  if (body.size() < 8) {
    throw FormatError("BAMX record too short for peek");
  }
  std::memcpy(&ref, body.data(), 4);
  std::memcpy(&pos, body.data() + 4, 4);
  return {ref, pos};
}

// ---------------------------------------------------------------- BamxWriter

BamxWriter::BamxWriter(const std::string& path, const SamHeader& header,
                       const BamxLayout& layout)
    : path_(path), layout_(layout), out_(std::make_unique<OutputFile>(path)) {
  std::string head;
  head += kBamxMagic;
  binio::put_le<uint16_t>(head, kVersion);
  binio::put_le<uint32_t>(head, layout.max_qname);
  binio::put_le<uint32_t>(head, layout.max_cigar);
  binio::put_le<uint32_t>(head, layout.max_seq);
  binio::put_le<uint32_t>(head, layout.max_aux);
  binio::put_le<uint64_t>(head, layout.stride());
  count_field_offset_ = head.size();
  binio::put_le<uint64_t>(head, 0);  // n_records, patched on close
  std::string blob;
  bam::encode_header(header, blob);
  binio::put_le<uint64_t>(head, blob.size());
  head += blob;
  out_->write(head);
}

void BamxWriter::write(const AlignmentRecord& rec) {
  NGSX_CHECK_MSG(!closed_, "write on closed BAMX writer");
  scratch_.clear();
  encode_record(rec, layout_, scratch_);
  out_->write(scratch_);
  ++n_records_;
}

void BamxWriter::close() {
  if (closed_) {
    return;
  }
  closed_ = true;
  // Patch the record count into the staging file *before* commit, so the
  // rename can only ever publish a complete, internally consistent BAMX.
  // (The old reopen-and-patch-after-close left a window where a crash
  // committed a final-named file with n_records = 0.)
  try {
    std::string count;
    binio::put_le<uint64_t>(count, n_records_);
    out_->patch_at(count_field_offset_, count);
    out_->close();
  } catch (...) {
    out_->discard();
    throw;
  }
}

// ---------------------------------------------------------------- BamxReader

BamxReader::BamxReader(const std::string& path) : file_(path) {
  std::string head = file_.read_at(0, 5 + 2 + 16 + 8 + 8 + 8);
  ByteReader r(head);
  if (r.read_bytes(5) != kBamxMagic) {
    throw FormatError("bad BAMX magic in '" + path + "'");
  }
  uint16_t version = r.read<uint16_t>();
  if (version != kVersion) {
    throw FormatError("unsupported BAMX version " + std::to_string(version));
  }
  layout_.max_qname = r.read<uint32_t>();
  layout_.max_cigar = r.read<uint32_t>();
  layout_.max_seq = r.read<uint32_t>();
  layout_.max_aux = r.read<uint32_t>();
  uint64_t stride = r.read<uint64_t>();
  if (stride != layout_.stride()) {
    throw FormatError("BAMX stride mismatch: header says " +
                      std::to_string(stride) + ", layout derives " +
                      std::to_string(layout_.stride()));
  }
  n_records_ = r.read<uint64_t>();
  uint64_t blob_size = r.read<uint64_t>();
  data_offset_ = head.size() + blob_size;

  header_ = decode_header_blob(file_.read_at(head.size(), blob_size), path);

  uint64_t expected = data_offset_ + n_records_ * layout_.stride();
  if (file_.size() < expected) {
    throw FormatError("BAMX file truncated: expected at least " +
                      std::to_string(expected) + " bytes");
  }
}

Segment BamxReader::segment_of(uint64_t i) const {
  NGSX_CHECK_MSG(i < n_records_, "BAMX record index out of range");
  return Segment{0, n_records_, layout_};
}

void BamxReader::read_raw_range(uint64_t begin, uint64_t end,
                                std::string& out) const {
  NGSX_CHECK_MSG(begin <= end && end <= n_records_,
                 "BAMX record range out of bounds");
  if (begin == end) {
    return;
  }
  const uint64_t stride = layout_.stride();
  const size_t base = out.size();
  out.resize(base + (end - begin) * stride);
  file_.pread_exact(out.data() + base, (end - begin) * stride,
                    data_offset_ + begin * stride);
}

// -------------------------------------------------------------- RecordSource

void RecordSource::read(uint64_t i, AlignmentRecord& rec) const {
  const Segment seg = segment_of(i);
  std::string body;
  read_raw_range(i, i + 1, body);
  decode_record(body, seg.layout, rec);
}

std::pair<int32_t, int32_t> RecordSource::read_ref_pos(uint64_t i) const {
  std::string body;
  read_raw_range(i, i + 1, body);
  return peek_ref_pos(body);
}

void RecordSource::read_range(uint64_t begin, uint64_t end,
                              std::vector<AlignmentRecord>& out) const {
  NGSX_CHECK_MSG(begin <= end && end <= num_records(),
                 "BAMX record range out of bounds");
  std::string bytes;
  for (uint64_t at = begin; at < end;) {
    const Segment seg = segment_of(at);
    const uint64_t take = std::min(end, seg.end) - at;
    const uint64_t stride = seg.layout.stride();
    bytes.clear();
    read_raw_range(at, at + take, bytes);
    const size_t base = out.size();
    out.resize(base + take);
    for (uint64_t k = 0; k < take; ++k) {
      decode_record(std::string_view(bytes).substr(k * stride, stride),
                    seg.layout, out[base + k]);
    }
    at += take;
  }
}

uint64_t encoded_bytes(const RecordSource& source, uint64_t begin,
                       uint64_t end) {
  uint64_t bytes = 0;
  for (uint64_t at = begin; at < end;) {
    const Segment seg = source.segment_of(at);
    const uint64_t take = std::min(end, seg.end) - at;
    bytes += take * seg.layout.stride();
    at += take;
  }
  return bytes;
}

// -------------------------------------------------------------- BamxManifest

void BamxManifest::save(const std::string& path) const {
  std::string out;
  out += kManifestMagic;
  binio::put_le<uint16_t>(out, kManifestVersion);
  binio::put_le<uint64_t>(out, n_records);
  std::string blob;
  bam::encode_header(header, blob);
  binio::put_le<uint64_t>(out, blob.size());
  out += blob;
  binio::put_le<uint32_t>(out, static_cast<uint32_t>(shards.size()));
  for (const std::string& shard : shards) {
    NGSX_CHECK_MSG(shard.size() <= UINT16_MAX, "manifest shard path too long");
    binio::put_le<uint16_t>(out, static_cast<uint16_t>(shard.size()));
    out += shard;
  }
  binio::put_le<uint64_t>(out, segments.size());
  for (const ManifestSegment& seg : segments) {
    binio::put_le<uint32_t>(out, seg.shard);
    binio::put_le<uint32_t>(out, seg.layout.max_qname);
    binio::put_le<uint32_t>(out, seg.layout.max_cigar);
    binio::put_le<uint32_t>(out, seg.layout.max_seq);
    binio::put_le<uint32_t>(out, seg.layout.max_aux);
    binio::put_le<uint64_t>(out, seg.n_records);
  }
  write_file(path, out);
}

BamxManifest BamxManifest::load(const std::string& path) {
  std::string data = read_file(path);
  ByteReader r(data);
  if (r.read_bytes(6) != kManifestMagic) {
    throw FormatError("bad BAMXM magic in '" + path + "'");
  }
  const uint16_t version = r.read<uint16_t>();
  if (version != kManifestVersion) {
    throw FormatError("unsupported BAMXM version " + std::to_string(version) +
                      " in '" + path + "' (this build reads version " +
                      std::to_string(kManifestVersion) +
                      "; preprocess the input again)");
  }
  BamxManifest m;
  m.n_records = r.read<uint64_t>();
  m.header = decode_header_blob(r.read_bytes(r.read<uint64_t>()), path);
  const uint32_t n_shards = r.read<uint32_t>();
  for (uint32_t k = 0; k < n_shards; ++k) {
    m.shards.emplace_back(r.read_bytes(r.read<uint16_t>()));
  }
  if (m.shards.empty()) {
    throw FormatError("BAMXM manifest lists no shards in '" + path + "'");
  }
  const uint64_t n_segments = r.read<uint64_t>();
  std::vector<uint64_t> shard_bytes(m.shards.size(), 0);
  uint64_t records = 0;
  for (uint64_t s = 0; s < n_segments; ++s) {
    ManifestSegment seg;
    seg.shard = r.read<uint32_t>();
    seg.layout.max_qname = r.read<uint32_t>();
    seg.layout.max_cigar = r.read<uint32_t>();
    seg.layout.max_seq = r.read<uint32_t>();
    seg.layout.max_aux = r.read<uint32_t>();
    seg.n_records = r.read<uint64_t>();
    if (seg.shard >= m.shards.size()) {
      throw FormatError("BAMXM segment " + std::to_string(s) +
                        " names shard " + std::to_string(seg.shard) + " of " +
                        std::to_string(m.shards.size()) + " in '" + path +
                        "'");
    }
    const uint64_t stride = seg.layout.stride();
    uint64_t& shard_total = shard_bytes[seg.shard];
    if (seg.n_records > UINT64_MAX / stride ||
        seg.n_records * stride > UINT64_MAX - shard_total ||
        seg.n_records > UINT64_MAX - records) {
      throw FormatError("BAMXM segment " + std::to_string(s) +
                        " overflows 64-bit sizes in '" + path + "'");
    }
    shard_total += seg.n_records * stride;
    records += seg.n_records;
    m.segments.push_back(seg);
  }
  if (records != m.n_records) {
    throw FormatError("BAMXM segment record counts do not sum to n_records "
                      "in '" + path + "'");
  }
  if (!r.eof()) {
    throw FormatError("trailing bytes after the BAMXM segment table in '" +
                      path + "'");
  }
  return m;
}

// --------------------------------------------------------- ShardedBamxReader

namespace {

std::string parent_dir(const std::string& path) {
  size_t slash = path.rfind('/');
  return slash == std::string::npos ? std::string(".")
                                    : path.substr(0, slash);
}

}  // namespace

ShardedBamxReader::ShardedBamxReader(const std::string& manifest_path)
    : manifest_(BamxManifest::load(manifest_path)) {
  const std::string dir = parent_dir(manifest_path);
  std::vector<uint64_t> shard_bytes(manifest_.shards.size(), 0);
  uint64_t base = 0;
  segments_.reserve(manifest_.segments.size());
  for (const ManifestSegment& seg : manifest_.segments) {
    segments_.push_back(Placed{Segment{base, base + seg.n_records, seg.layout},
                               seg.shard, shard_bytes[seg.shard]});
    shard_bytes[seg.shard] += seg.n_records * seg.layout.stride();
    base += seg.n_records;
  }
  shards_.reserve(manifest_.shards.size());
  for (size_t k = 0; k < manifest_.shards.size(); ++k) {
    shards_.emplace_back(dir + "/" + manifest_.shards[k]);
    if (shards_.back().size() != shard_bytes[k]) {
      throw FormatError("shard '" + manifest_.shards[k] + "' holds " +
                        std::to_string(shards_.back().size()) +
                        " bytes, its manifest segments need " +
                        std::to_string(shard_bytes[k]));
    }
  }
}

const ShardedBamxReader::Placed& ShardedBamxReader::placed_of(
    uint64_t i) const {
  NGSX_CHECK_MSG(i < manifest_.n_records, "BAMX record index out of range");
  // The last segment starting at or before i; empty segments share their
  // base with the next one and sort before it, so this skips them.
  auto it = std::upper_bound(
      segments_.begin(), segments_.end(), i,
      [](uint64_t v, const Placed& p) { return v < p.segment.begin; });
  return *(it - 1);
}

Segment ShardedBamxReader::segment_of(uint64_t i) const {
  return placed_of(i).segment;
}

void ShardedBamxReader::read_raw_range(uint64_t begin, uint64_t end,
                                       std::string& out) const {
  NGSX_CHECK_MSG(begin <= end && end <= manifest_.n_records,
                 "BAMX record range out of bounds");
  if (begin == end) {
    return;
  }
  const Placed& p = placed_of(begin);
  NGSX_CHECK_MSG(end <= p.segment.end,
                 "raw BAMX record range crosses a segment boundary");
  const uint64_t stride = p.segment.layout.stride();
  const size_t base = out.size();
  out.resize(base + (end - begin) * stride);
  shards_[p.shard].pread_exact(out.data() + base, (end - begin) * stride,
                               p.offset + (begin - p.segment.begin) * stride);
}

std::unique_ptr<RecordSource> open_record_source(const std::string& path) {
  std::string magic;
  {
    InputFile probe(path);
    magic = probe.read_at(0, 6);
  }
  if (std::string_view(magic) == kManifestMagic) {
    return std::make_unique<ShardedBamxReader>(path);
  }
  if (magic.size() >= 5 &&
      std::string_view(magic).substr(0, 5) == kBamxMagic) {
    return std::make_unique<BamxReader>(path);
  }
  // Diagnose precisely: a 0-byte file, a truncated magic, and a wrong
  // magic are different failures; name the path and hex-dump what was
  // actually sniffed so the message alone identifies the input.
  std::string detail;
  if (magic.empty()) {
    detail = "the file is empty";
  } else {
    static constexpr char kHex[] = "0123456789abcdef";
    std::string hex;
    for (unsigned char c : magic) {
      if (!hex.empty()) {
        hex += ' ';
      }
      hex += kHex[c >> 4];
      hex += kHex[c & 0xF];
    }
    detail = (magic.size() < kManifestMagic.size()
                  ? "truncated magic, only " + std::to_string(magic.size()) +
                        " byte(s): "
                  : "magic bytes: ") +
             hex;
  }
  throw FormatError("'" + path + "' is neither a BAMX file nor a BAMXM "
                    "shard manifest (" + detail + ")");
}

// ----------------------------------------------------------------- BaixIndex

BaixIndex BaixIndex::build(const RecordSource& bamx) {
  std::vector<BaixEntry> entries;
  entries.reserve(bamx.num_records());
  for (uint64_t i = 0; i < bamx.num_records(); ++i) {
    auto [ref, pos] = bamx.read_ref_pos(i);
    entries.push_back(BaixEntry{ref, pos, i});
  }
  return from_entries(std::move(entries));
}

bool baix_entry_less(const BaixEntry& a, const BaixEntry& b) {
  if (a.ref_id != b.ref_id) {
    uint32_t ua = static_cast<uint32_t>(a.ref_id);
    uint32_t ub = static_cast<uint32_t>(b.ref_id);
    return ua < ub;
  }
  return a.pos < b.pos;
}

BaixIndex BaixIndex::from_entries(std::vector<BaixEntry> entries) {
  BaixIndex index;
  index.entries_ = std::move(entries);
  std::stable_sort(index.entries_.begin(), index.entries_.end(),
                   baix_entry_less);
  return index;
}

BaixIndex BaixIndex::from_sorted_entries(std::vector<BaixEntry> entries) {
  if (!std::is_sorted(entries.begin(), entries.end(), baix_entry_less)) {
    throw UsageError("from_sorted_entries given unsorted BAIX entries");
  }
  BaixIndex index;
  index.entries_ = std::move(entries);
  return index;
}

void BaixIndex::save(const std::string& path) const {
  std::string out;
  out += kBaixMagic;
  binio::put_le<uint16_t>(out, kVersion);
  binio::put_le<uint64_t>(out, entries_.size());
  for (const BaixEntry& e : entries_) {
    binio::put_le<int32_t>(out, e.ref_id);
    binio::put_le<int32_t>(out, e.pos);
    binio::put_le<uint64_t>(out, e.record_index);
  }
  write_file(path, out);
}

BaixIndex BaixIndex::load(const std::string& path) {
  std::string data = read_file(path);
  ByteReader r(data);
  if (r.read_bytes(5) != kBaixMagic) {
    throw FormatError("bad BAIX magic in '" + path + "'");
  }
  uint16_t version = r.read<uint16_t>();
  if (version != kVersion) {
    throw FormatError("unsupported BAIX version " + std::to_string(version));
  }
  BaixIndex index;
  uint64_t n = r.read<uint64_t>();
  if (n * 16 > r.remaining()) {  // 16 bytes per entry on disk
    throw FormatError("BAIX entry count exceeds file size");
  }
  index.entries_.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    BaixEntry e;
    e.ref_id = r.read<int32_t>();
    e.pos = r.read<int32_t>();
    e.record_index = r.read<uint64_t>();
    index.entries_.push_back(e);
  }
  return index;
}

std::pair<size_t, size_t> BaixIndex::query(int32_t ref, int32_t beg,
                                           int32_t end) const {
  auto key_less = [](const BaixEntry& e, std::pair<int32_t, int32_t> key) {
    uint32_t ue = static_cast<uint32_t>(e.ref_id);
    uint32_t uk = static_cast<uint32_t>(key.first);
    if (ue != uk) {
      return ue < uk;
    }
    return e.pos < key.second;
  };
  auto lo = std::lower_bound(entries_.begin(), entries_.end(),
                             std::make_pair(ref, beg), key_less);
  auto hi = std::lower_bound(entries_.begin(), entries_.end(),
                             std::make_pair(ref, end), key_less);
  return {static_cast<size_t>(lo - entries_.begin()),
          static_cast<size_t>(hi - entries_.begin())};
}

}  // namespace ngsx::bamx
