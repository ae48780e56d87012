// ngsx/formats/bam.h
//
// BAM (Binary Alignment/Map) codec per SAM spec v1.4-r985 §4: the
// little-endian binary record layout layered on BGZF. Provides record-level
// encode/decode plus streaming reader/writer classes. Like the BamTools
// library the paper used, the reader is inherently sequential — record
// boundaries are only discoverable by decoding lengths — which is exactly
// the constraint that motivates the paper's BAMX preprocessing.

#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "formats/bgzf.h"
#include "formats/sam.h"

namespace ngsx::bam {

/// UCSC binning scheme (SAM spec §4.2.1): bin number for the half-open
/// zero-based interval [beg, end).
int32_t reg2bin(int32_t beg, int32_t end);

/// Fills `bins` with every bin that may overlap [beg, end) (SAM spec list).
/// Returns the number of bins.
size_t reg2bins(int32_t beg, int32_t end, std::vector<uint16_t>& bins);

/// Encodes `rec` as a BAM record (including the leading block_size field)
/// appended to `out`.
void encode_record(const sam::AlignmentRecord& rec, std::string& out);

/// Decodes one BAM record from `data` (the record body, *without* the
/// block_size field) into `rec`.
void decode_record(std::string_view body, sam::AlignmentRecord& rec);

/// What one validating walk over a raw BAM record body (the record without
/// its block_size field, BamFileReader::next_raw) learns: its placement and
/// the section lengths of its normalised form (normalize_record).
struct RecordShape {
  int32_t ref_id = -1;
  int32_t pos = -1;
  uint32_t qname_len = 0;  // excluding NUL
  uint32_t n_cigar = 0;
  uint32_t seq_len = 0;
  uint32_t aux_len = 0;  // normalised aux bytes (scan_aux)
};

/// Walks the raw record `body` once without decoding it, validating it as
/// decode_record does: throws FormatError, with decode_record's message,
/// wherever that would.
RecordShape scan_record(std::string_view body);

/// Replaces `out` with the body encode_record(decode_record(body)) writes
/// after its block_size, without building an AlignmentRecord: the bin is
/// recomputed from pos and CIGAR, the odd pad nibble is zeroed, qualities
/// whose first byte is 0xFF become an all-0xFF fill, and the aux section
/// goes through normalize_aux. Validates like scan_record.
void normalize_record(std::string_view body, std::string& out);

/// Read-only field access to a normalised record body (normalize_record's
/// output, or what encode_record writes after block_size) without decoding
/// it: for code that sorts, pairs and filters records as raw bytes.
class RecordView {
 public:
  explicit RecordView(std::string_view body) : body_(body) {}

  int32_t ref_id() const { return field<int32_t>(0); }
  int32_t pos() const { return field<int32_t>(4); }
  uint16_t flag() const { return field<uint16_t>(14); }
  /// The read name, without its NUL.
  std::string_view qname() const {
    return body_.substr(32, static_cast<uint8_t>(body_[8]) - 1u);
  }
  uint32_t n_cigar() const { return field<uint16_t>(12); }
  /// Packed CIGAR word `i`: length << 4 | op code.
  uint32_t cigar(uint32_t i) const {
    return field<uint32_t>(cigar_at() + 4 * i);
  }
  uint32_t l_seq() const { return field<uint32_t>(16); }
  /// Raw Phred scores, l_seq bytes (a leading 0xFF means absent).
  std::string_view quals() const {
    return body_.substr(cigar_at() + 4 * n_cigar() + (l_seq() + 1) / 2,
                        l_seq());
  }

  /// As sam::AlignmentRecord::end_pos.
  int32_t end_pos() const;

  /// Alignment start extended back through leading soft/hard clips — the
  /// position the read would start at had the aligner not clipped it. This
  /// (with unclipped_end) is the coordinate duplicate marking keys on: PCR
  /// duplicates of one fragment can differ in clipping but share unclipped
  /// 5' ends. May be negative for reads clipped past the reference start.
  int32_t unclipped_start() const;

  /// Exclusive alignment end extended through trailing soft/hard clips.
  int32_t unclipped_end() const;

 private:
  template <typename T>
  T field(size_t offset) const {
    T v;
    std::memcpy(&v, body_.data() + offset, sizeof(v));
    return v;
  }
  size_t cigar_at() const { return 32 + static_cast<uint8_t>(body_[8]); }

  std::string_view body_;
};

/// Overwrites the flag word of the record body at `body` in place.
inline void set_flag(char* body, uint16_t flag) {
  std::memcpy(body + 14, &flag, sizeof(flag));
}

/// Size of `tags` in BAM aux encoding (every integer as 'i' int32), computed
/// without encoding. Throws FormatError on an unknown type, and on an
/// unknown B subtype that has elements.
size_t aux_encoded_size(const std::vector<sam::AuxField>& tags);

/// Encodes `tags` in BAM aux encoding at `dst`, which must hold
/// aux_encoded_size(tags) bytes. Returns the end of the written bytes.
/// BAMX records carry their aux section in this same encoding.
char* encode_aux(const std::vector<sam::AuxField>& tags, char* dst);

/// Decodes an aux section (BAM aux encoding) into `tags` (replaced).
/// Integer types of every width decode to SAM type 'i'.
void decode_aux(std::string_view bytes, std::vector<sam::AuxField>& tags);

/// Walks the aux section `bytes` without decoding it, validating it as
/// decode_aux does (throws FormatError wherever that would), and returns
/// aux_encoded_size of the tags it decodes to.
size_t scan_aux(std::string_view bytes);

/// Writes at `dst` the bytes encode_aux(decode_aux(bytes)) would produce,
/// without building the tags: integers widen to 'i' int32, floats pass
/// through double, and a negative B count becomes an empty array.
/// `bytes` must have passed scan_aux, whose result is the size written.
/// Returns the end of the written bytes.
char* normalize_aux(std::string_view bytes, char* dst);

/// Serializes the BAM header section (magic, text, reference dictionary).
void encode_header(const sam::SamHeader& header, std::string& out);

/// Streaming BAM writer over BGZF. `threads` > 1 compresses blocks on
/// that many workers (bgzf::open_writer) with byte-identical output, which
/// is why the writer hands out no virtual offsets: build indexes by
/// reading the file back (BamFileReader::tell()). `commit` is the output
/// file's commit mode.
class BamFileWriter {
 public:
  BamFileWriter(const std::string& path, const sam::SamHeader& header,
                int compression_level = 6, int threads = 1,
                OutputFile::Commit commit = OutputFile::Commit::kAtomic);

  void write(const sam::AlignmentRecord& rec);

  /// Writes one record given as its normalised body (normalize_record):
  /// the same bytes write() writes for the record it decodes to.
  void write_body(std::string_view body);

  void close();

  /// Compressed bytes emitted so far (bgzf::WriterBase::compressed_bytes).
  uint64_t compressed_bytes() const { return out_->compressed_bytes(); }

 private:
  std::unique_ptr<bgzf::WriterBase> out_;
  std::string scratch_;
};

/// Streaming BAM reader over BGZF. Record framing is sequential by
/// construction, but block *inflation* need not be: `decode_threads` > 1
/// opens the file through bgzf::ParallelReader, overlapping decompression
/// with record decoding (0 = auto-detect hardware width, 1 = the plain
/// sequential bgzf::Reader). seek() is only valid with virtual offsets
/// from tell() or a BAI index either way.
class BamFileReader {
 public:
  explicit BamFileReader(const std::string& path, int decode_threads = 1);

  const sam::SamHeader& header() const { return header_; }

  /// Virtual offset of the next record (valid to seek back to).
  uint64_t tell() { return in_->tell(); }

  void seek(uint64_t voffset) { in_->seek(voffset); }

  /// Decodes the next record; returns false at EOF.
  bool next(sam::AlignmentRecord& rec);

  /// Reads the next *raw* record body (without block_size) into `body`;
  /// returns false at EOF. Lets callers defer or skip decoding.
  bool next_raw(std::string& body);

 private:
  std::unique_ptr<bgzf::ReaderBase> in_;
  sam::SamHeader header_;
  std::string body_;
};

}  // namespace ngsx::bam
