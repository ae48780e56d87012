// ngsx/formats/bamx.h
//
// BAMX (BAM eXtended) and BAIX (BAI eXtended): the two file formats
// *introduced by the paper* (§III-B). BAMX stores each alignment in a
// fixed-stride record whose varying-length fields (read name, CIGAR, bases,
// qualities, aux data) are padded to per-file maxima, so record i lives at
// a computable offset and can be fetched with one positioned read — this is
// what makes the parallel conversion phase embarrassingly parallel. BAIX is
// the companion index: (reference, starting position, record index) entries
// sorted by position, enabling *partial conversion* of a genomic region via
// binary search.
//
// The per-file maxima are discovered by a measuring pass (the paper's
// preprocessing); BamxLayout captures them and derives the field offsets.
// A sharded dataset (BAMXM) keeps one layout per segment of records, as
// the paper's per-process BAMX files each carry their own stride.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "formats/bam.h"
#include "formats/sam.h"
#include "util/binio.h"

namespace ngsx::bamx {

/// Fixed per-file field capacities and the derived record stride/offsets.
struct BamxLayout {
  uint32_t max_qname = 0;   // name length, excluding NUL
  uint32_t max_cigar = 0;   // number of CIGAR operations
  uint32_t max_seq = 0;     // bases
  uint32_t max_aux = 0;     // encoded aux bytes

  /// Grows the capacities to accommodate `rec` (the measuring pass).
  void accommodate(const sam::AlignmentRecord& rec);
  void accommodate(const bam::RecordShape& shape);

  /// True if `rec` fits within the capacities.
  bool fits(const sam::AlignmentRecord& rec) const;

  // Derived geometry. The fixed-width scalar prefix is 36 bytes; see
  // bamx.cpp for the field map. Stride is rounded up to 8 bytes so records
  // stay naturally aligned (the "layout regularity" the paper credits for
  // its MPI-IO behaviour).
  uint64_t qname_offset() const { return 36; }
  uint64_t cigar_offset() const { return qname_offset() + max_qname; }
  uint64_t seq_offset() const { return cigar_offset() + 4ull * max_cigar; }
  uint64_t qual_offset() const { return seq_offset() + (max_seq + 1) / 2; }
  uint64_t aux_offset() const { return qual_offset() + max_seq; }
  uint64_t stride() const {
    uint64_t raw = aux_offset() + max_aux;
    return (raw + 7) / 8 * 8;
  }

  bool operator==(const BamxLayout&) const = default;
};

/// Encodes `rec` into exactly `layout.stride()` bytes appended to `out`.
/// Throws UsageError if `rec` does not fit the layout.
void encode_record(const sam::AlignmentRecord& rec, const BamxLayout& layout,
                   std::string& out);

/// Transcodes the raw BAM record `body` straight into BAMX, appending
/// exactly `layout.stride()` bytes to `out`: the bytes
/// encode_record(bam::decode_record(body)) would produce, without building
/// an AlignmentRecord. `shape` must be bam::scan_record(body). Throws
/// UsageError if the record does not fit the layout.
void transcode_bam_record(std::string_view body, const bam::RecordShape& shape,
                          const BamxLayout& layout, std::string& out);

/// Decodes the fixed-stride record at `body` (exactly stride bytes).
void decode_record(std::string_view body, const BamxLayout& layout,
                   sam::AlignmentRecord& rec);

/// Extracts only (ref_id, pos) from an encoded record — the BAIX builder's
/// fast path; avoids decoding the whole alignment.
std::pair<int32_t, int32_t> peek_ref_pos(std::string_view body);

/// Sequential BAMX writer. The layout must be known up front (from the
/// measuring pass); records are validated against it.
class BamxWriter {
 public:
  BamxWriter(const std::string& path, const sam::SamHeader& header,
             const BamxLayout& layout);

  void write(const sam::AlignmentRecord& rec);

  uint64_t records_written() const { return n_records_; }

  /// Finalizes the record count in the file header and closes.
  void close();

 private:
  std::string path_;
  BamxLayout layout_;
  std::unique_ptr<OutputFile> out_;
  std::string scratch_;
  uint64_t n_records_ = 0;
  uint64_t count_field_offset_ = 0;
  bool closed_ = false;
};

/// A run of consecutive records stored under one layout: records
/// [begin, end). A monolithic BAMX file is one segment; a BAMXM dataset is
/// an ordered list of them, each with its own layout.
struct Segment {
  uint64_t begin = 0;
  uint64_t end = 0;
  BamxLayout layout;
};

/// Random-access view over preprocessed records: what the conversion phase
/// actually requires of its input. Implemented by BamxReader (one
/// monolithic BAMX file) and ShardedBamxReader (segments in M shards
/// behind a manifest), so every converter works unchanged over either:
/// an implementation provides the segment lookup and the raw reads, and
/// the decoding reads are built on them.
///
/// Thread-safety contract (relied on by the serving daemon, which issues
/// many concurrent region queries against ONE shared reader): every method
/// is const, implementations hold no mutable cursor or shared scratch, and
/// all file access is positioned (pread). Concurrent calls to any mix of
/// methods on the same instance are safe; the geometry accessors return
/// references to state that is immutable after construction.
class RecordSource {
 public:
  virtual ~RecordSource() = default;

  virtual const sam::SamHeader& header() const = 0;
  virtual uint64_t num_records() const = 0;

  /// The segment holding record `i` (i < num_records()).
  virtual Segment segment_of(uint64_t i) const = 0;

  /// Appends the still-encoded bytes of records [begin, end), which must
  /// lie in one segment — exactly (end - begin) * that segment's stride
  /// bytes, as stored on disk — to `out`. This is the block-cache fetch
  /// path of the serving daemon: cached bytes are decoded lazily per
  /// record, so one bulk read serves many point lookups without holding
  /// decoded objects.
  virtual void read_raw_range(uint64_t begin, uint64_t end,
                              std::string& out) const = 0;

  /// Reads record `i` (random access — the property BAMX exists for).
  void read(uint64_t i, sam::AlignmentRecord& rec) const;

  /// Reads only (ref_id, pos) of record `i`.
  std::pair<int32_t, int32_t> read_ref_pos(uint64_t i) const;

  /// Reads records [begin, end) appending to `out`: one bulk read per
  /// segment the range crosses.
  void read_range(uint64_t begin, uint64_t end,
                  std::vector<sam::AlignmentRecord>& out) const;
};

/// Encoded bytes of records [begin, end) of `source`: the sum of their
/// segments' strides.
uint64_t encoded_bytes(const RecordSource& source, uint64_t begin,
                       uint64_t end);

/// Random-access BAMX reader.
class BamxReader : public RecordSource {
 public:
  explicit BamxReader(const std::string& path);

  const sam::SamHeader& header() const override { return header_; }
  const BamxLayout& layout() const { return layout_; }
  uint64_t num_records() const override { return n_records_; }
  Segment segment_of(uint64_t i) const override;
  void read_raw_range(uint64_t begin, uint64_t end,
                      std::string& out) const override;

 private:
  InputFile file_;
  sam::SamHeader header_;
  BamxLayout layout_;
  uint64_t n_records_ = 0;
  uint64_t data_offset_ = 0;
};

// ---------------------------------------------------------------------------
// Shard manifest (BAMXM)
// ---------------------------------------------------------------------------

/// One segment of a BAMXM dataset: the next `n_records` records, encoded
/// under `layout` and appended to shard `shard`.
struct ManifestSegment {
  uint32_t shard = 0;
  BamxLayout layout;
  uint64_t n_records = 0;

  bool operator==(const ManifestSegment&) const = default;
};

/// A BAMX shard manifest ("BAMXM\x01" version 2, docs/FILEFORMATS.md): the
/// SAM header, the total record count, the shard files (bare record
/// bytes) and the segments in record order. Record bases and in-shard
/// byte offsets are prefix sums over the segments. Produced by both
/// preprocessors; consumed by ShardedBamxReader.
struct BamxManifest {
  sam::SamHeader header;
  uint64_t n_records = 0;
  std::vector<std::string> shards;  // relative to the manifest's directory
  std::vector<ManifestSegment> segments;

  /// Atomic write. Shard paths are stored as given (they should be
  /// relative names of files living next to the manifest).
  void save(const std::string& path) const;

  /// Loads and validates: magic and version, at least one shard, segment
  /// shard indices in range, segment counts summing to n_records, and no
  /// segment or shard byte size overflowing 64 bits. Shard paths stay
  /// relative; resolve against the manifest's directory (ShardedBamxReader
  /// does).
  static BamxManifest load(const std::string& path);

  bool operator==(const BamxManifest&) const = default;
};

/// RecordSource over a BAMXM manifest: the segments of M shard files
/// presented as one record space. Record i is found by a binary search
/// over the segment bases, then one multiply by its segment's stride.
/// Every shard's size must equal the bytes of its segments.
class ShardedBamxReader : public RecordSource {
 public:
  explicit ShardedBamxReader(const std::string& manifest_path);

  const sam::SamHeader& header() const override { return manifest_.header; }
  uint64_t num_records() const override { return manifest_.n_records; }
  Segment segment_of(uint64_t i) const override;
  void read_raw_range(uint64_t begin, uint64_t end,
                      std::string& out) const override;
  size_t num_shards() const { return shards_.size(); }

 private:
  /// A segment and where its bytes start inside its shard.
  struct Placed {
    Segment segment;
    uint32_t shard = 0;
    uint64_t offset = 0;
  };

  /// The segment holding record `i`.
  const Placed& placed_of(uint64_t i) const;

  BamxManifest manifest_;
  std::vector<InputFile> shards_;
  std::vector<Placed> segments_;  // in record order
};

/// Opens `path` as a RecordSource, sniffing the magic: a BAMXM manifest
/// yields a ShardedBamxReader, a BAMX file a BamxReader. Anything else
/// throws FormatError naming the path and the sniffed magic bytes (hex),
/// so a truncated or mistyped input is diagnosable from the message alone.
std::unique_ptr<RecordSource> open_record_source(const std::string& path);

// ---------------------------------------------------------------------------
// BAIX
// ---------------------------------------------------------------------------

/// One BAIX entry: where an alignment starts and which BAMX record holds it.
struct BaixEntry {
  int32_t ref_id = -1;
  int32_t pos = -1;
  uint64_t record_index = 0;

  bool operator==(const BaixEntry&) const = default;
};

/// The BAIX index order: (ref_id compared as unsigned, pos), so unplaced
/// (-1) entries sort last, matching samtools. Exposed so parallel index
/// builders can merge pre-sorted runs under exactly this order.
bool baix_entry_less(const BaixEntry& a, const BaixEntry& b);

/// The BAIX index: entries sorted by (ref_id, pos). Region queries return
/// the range of entries whose alignment *starts* inside the region, which
/// is the paper's partial-conversion semantics.
class BaixIndex {
 public:
  BaixIndex() = default;

  /// Scans a record source (ref/pos peeks only) and builds the sorted
  /// index; works over a monolithic BAMX or a shard manifest alike.
  static BaixIndex build(const RecordSource& bamx);

  /// Builds the index from entries collected elsewhere (e.g. during a BAMX
  /// encode pass); sorts them by (ref_id, pos).
  static BaixIndex from_entries(std::vector<BaixEntry> entries);

  /// Adopts `entries` that are already in the index order from_entries
  /// would produce: (ref_id as unsigned, pos), ties in insertion order.
  /// Used by the parallel preprocessor, whose per-chunk sorted runs are
  /// merged on the execution pool instead of re-sorted here. Checks the
  /// ordering (O(n)) and throws UsageError if violated.
  static BaixIndex from_sorted_entries(std::vector<BaixEntry> entries);

  void save(const std::string& path) const;
  static BaixIndex load(const std::string& path);

  size_t size() const { return entries_.size(); }
  const BaixEntry& entry(size_t i) const { return entries_[i]; }
  const std::vector<BaixEntry>& entries() const { return entries_; }

  /// [first, last) entry indices with ref_id == ref and pos in [beg, end),
  /// found by binary search (the paper's partial-conversion lookup).
  std::pair<size_t, size_t> query(int32_t ref, int32_t beg, int32_t end) const;

  bool operator==(const BaixIndex&) const = default;

 private:
  std::vector<BaixEntry> entries_;
};

}  // namespace ngsx::bamx
