// Tests for the paper's BAMX / BAIX formats: fixed-stride layout, random
// access, and the region index used by partial conversion.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "formats/bam.h"
#include "formats/bamx.h"
#include "formats/seqcodec.h"
#include "simdata/readsim.h"
#include "util/binio.h"
#include "util/rng.h"
#include "util/tempdir.h"

namespace ngsx::bamx {
namespace {

using sam::AlignmentRecord;
using sam::SamHeader;

SamHeader test_header() {
  return SamHeader::from_references({{"chr1", 1000000}, {"chr2", 500000}});
}

AlignmentRecord sample_record(int i) {
  AlignmentRecord rec;
  rec.qname = "read-" + std::to_string(i);
  rec.flag = sam::kPaired | (i % 2 == 0 ? sam::kRead1 : sam::kRead2);
  rec.ref_id = i % 2;
  rec.pos = 100 * i;
  rec.mapq = static_cast<uint8_t>(i % 61);
  rec.cigar = sam::parse_cigar(i % 3 == 0 ? "90M" : "5S40M2D45M");
  rec.mate_ref_id = rec.ref_id;
  rec.mate_pos = 100 * i + 200;
  rec.tlen = 290;
  rec.seq = std::string(static_cast<size_t>(50 + i % 40), "ACGT"[i % 4]);
  rec.qual = std::string(rec.seq.size(), 'E');
  if (i % 4 == 0) {
    rec.tags.push_back(sam::parse_aux("NM:i:" + std::to_string(i % 9)));
  }
  if (i % 7 == 0) {
    rec.tags.push_back(sam::parse_aux("ZB:B:S,1,2,3,4"));
  }
  return rec;
}

// ------------------------------------------------------------------ layout

TEST(BamxLayout, AccommodateTracksMaxima) {
  BamxLayout layout;
  AlignmentRecord small = sample_record(1);
  AlignmentRecord big = sample_record(39);  // longer seq
  layout.accommodate(small);
  layout.accommodate(big);
  EXPECT_TRUE(layout.fits(small));
  EXPECT_TRUE(layout.fits(big));
  EXPECT_GE(layout.max_seq, std::max(small.seq.size(), big.seq.size()));
}

TEST(BamxLayout, StrideIsAligned) {
  BamxLayout layout;
  layout.accommodate(sample_record(3));
  EXPECT_EQ(layout.stride() % 8, 0u);
  EXPECT_GE(layout.stride(), layout.aux_offset());
}

TEST(BamxLayout, FitsRejectsOversize) {
  BamxLayout layout;
  layout.accommodate(sample_record(1));
  AlignmentRecord huge = sample_record(1);
  huge.qname = std::string(200, 'q');
  EXPECT_FALSE(layout.fits(huge));
}

// ------------------------------------------------------------ record codec

TEST(BamxRecord, EncodeDecodeRoundTrip) {
  for (int i = 0; i < 50; ++i) {
    AlignmentRecord rec = sample_record(i);
    BamxLayout layout;
    layout.accommodate(rec);
    // Pad the layout beyond the record to exercise real padding.
    layout.max_qname += 13;
    layout.max_cigar += 3;
    layout.max_seq += 21;
    layout.max_aux += 17;
    std::string buf;
    encode_record(rec, layout, buf);
    EXPECT_EQ(buf.size(), layout.stride());
    AlignmentRecord back;
    decode_record(buf, layout, back);
    EXPECT_EQ(back, rec) << "record " << i;
  }
}

TEST(BamxRecord, EncodeRejectsOverflow) {
  BamxLayout tiny;
  tiny.max_qname = 2;
  AlignmentRecord rec = sample_record(1);
  std::string buf;
  EXPECT_THROW(encode_record(rec, tiny, buf), UsageError);
}

TEST(BamxRecord, PeekRefPos) {
  AlignmentRecord rec = sample_record(5);
  BamxLayout layout;
  layout.accommodate(rec);
  std::string buf;
  encode_record(rec, layout, buf);
  auto [ref, pos] = peek_ref_pos(buf);
  EXPECT_EQ(ref, rec.ref_id);
  EXPECT_EQ(pos, rec.pos);
}

TEST(BamxRecord, UnmappedRoundTrip) {
  AlignmentRecord rec;
  rec.qname = "u";
  rec.flag = sam::kUnmapped;
  rec.seq = "ACGT";
  BamxLayout layout;
  layout.accommodate(rec);
  std::string buf;
  encode_record(rec, layout, buf);
  AlignmentRecord back;
  decode_record(buf, layout, back);
  EXPECT_EQ(back, rec);
}

// ------------------------------------------------- BAM -> BAMX transcoding

/// A BAM record body (no block_size) assembled field by field, so a test
/// can spell encodings bam::encode_record never writes: narrow integer
/// types, a non-zero pad nibble, NaN payloads, or outright malformed
/// fields. `l_seq` is written as given, independent of `seq`/`qual`.
struct BamBody {
  int32_t ref_id = 0;
  int32_t pos = 100;
  uint16_t bin = 4681;
  uint8_t mapq = 30;
  uint16_t flag = sam::kPaired;
  std::string qname = "r1";  // without its NUL
  std::vector<uint32_t> cigar{(4u << 4) | 0};
  int32_t l_seq = 4;
  std::string seq{"\x12\x48", 2};  // packed, (l_seq + 1) / 2 bytes
  std::string qual{"\x1e\x1f\x20\x21", 4};
  int32_t mate_ref_id = -1;
  int32_t mate_pos = -1;
  int32_t tlen = 0;
  std::string aux;  // raw aux bytes

  std::string bytes() const {
    std::string out;
    binio::put_le<int32_t>(out, ref_id);
    binio::put_le<int32_t>(out, pos);
    binio::put_le<uint32_t>(out, (uint32_t{bin} << 16) | (uint32_t{mapq} << 8) |
                                     static_cast<uint32_t>(qname.size() + 1));
    binio::put_le<uint32_t>(out, (uint32_t{flag} << 16) |
                                     static_cast<uint32_t>(cigar.size()));
    binio::put_le<int32_t>(out, l_seq);
    binio::put_le<int32_t>(out, mate_ref_id);
    binio::put_le<int32_t>(out, mate_pos);
    binio::put_le<int32_t>(out, tlen);
    out += qname;
    out += '\0';
    for (uint32_t op : cigar) {
      binio::put_le<uint32_t>(out, op);
    }
    return out + seq + qual + aux;
  }
};

/// One aux field: tag, type byte, then the little-endian value.
template <typename T>
std::string aux_field(std::string_view tag, char type, T value) {
  std::string out(tag);
  out += type;
  binio::put_le<T>(out, value);
  return out;
}

std::string aux_string(std::string_view tag, char type, std::string_view s) {
  return std::string(tag) + type + std::string(s) + '\0';
}

/// A B array: subtype, count, then `elements` (already encoded).
std::string aux_array(std::string_view tag, char subtype, int32_t count,
                      std::string_view elements) {
  std::string out(tag);
  out += 'B';
  out += subtype;
  binio::put_le<int32_t>(out, count);
  return out + std::string(elements);
}

float float_bits(uint32_t bits) {
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

/// Random bytes, each from [lo, hi].
std::string random_bytes(Rng& rng, size_t n, int lo = 0, int hi = 255) {
  std::string out(n, '\0');
  for (char& c : out) {
    c = static_cast<char>(rng.range(lo, hi));
  }
  return out;
}

/// A random float: NaNs (signaling and quiet, random payloads) and
/// infinities half the time, arbitrary bit patterns otherwise.
float random_float(Rng& rng) {
  const uint32_t payload = static_cast<uint32_t>(rng.below(1u << 22)) | 1u;
  const uint32_t sign = rng.chance(0.5) ? 0x80000000u : 0u;
  switch (rng.below(4)) {
    case 0: return float_bits(sign | 0x7F800000u | payload);  // signaling
    case 1: return float_bits(sign | 0x7FC00000u | payload);  // quiet
    default: return float_bits(static_cast<uint32_t>(rng.next()));
  }
}

/// One random aux field of `type` (and `subtype`, for 'B').
std::string random_aux_field(Rng& rng, char type, char subtype) {
  const std::string tag = random_bytes(rng, 2, 'A', 'Z');
  switch (type) {
    case 'A': return aux_field(tag, 'A', static_cast<uint8_t>(rng.next()));
    case 'c': return aux_field(tag, 'c', static_cast<int8_t>(rng.next()));
    case 'C': return aux_field(tag, 'C', static_cast<uint8_t>(rng.next()));
    case 's': return aux_field(tag, 's', static_cast<int16_t>(rng.next()));
    case 'S': return aux_field(tag, 'S', static_cast<uint16_t>(rng.next()));
    case 'i': return aux_field(tag, 'i', static_cast<int32_t>(rng.next()));
    case 'I':  // above INT32_MAX half the time
      return aux_field(tag, 'I', static_cast<uint32_t>(rng.next()));
    case 'f': return aux_field(tag, 'f', random_float(rng));
    case 'Z':
      return aux_string(tag, 'Z', random_bytes(rng, rng.below(20), 32, 126));
    case 'H':
      return aux_string(tag, 'H', random_bytes(rng, rng.below(20), '0', '9'));
    default: {  // 'B'
      const int32_t n = static_cast<int32_t>(rng.below(9));
      std::string elements;
      for (int32_t i = 0; i < n; ++i) {
        if (subtype == 'f') {
          binio::put_le<float>(elements, random_float(rng));
        } else {
          static constexpr std::string_view kSubtypes = "cCsSiI";
          static constexpr size_t kWidths[] = {1, 1, 2, 2, 4, 4};
          elements += random_bytes(rng, kWidths[kSubtypes.find(subtype)]);
        }
      }
      return aux_array(tag, subtype, n, elements);
    }
  }
}

/// A random valid body. Record `i` is guaranteed to carry aux type
/// kAuxTypes[i % 11] and B subtype kBSubtypes[i % 7], so a run of 77
/// records covers every pair; the rest is drawn at random, including
/// l_seq 0, n_cigar 0, odd l_seq with a non-zero pad nibble, 0xFF-led
/// quals with a non-0xFF tail, and a qname with an interior NUL.
constexpr std::string_view kAuxTypes = "AcCsSiIfZHB";
constexpr std::string_view kBSubtypes = "cCsSiIf";

BamBody random_body(Rng& rng, size_t i) {
  BamBody b;
  b.ref_id = static_cast<int32_t>(rng.range(-1, 3));
  b.pos = static_cast<int32_t>(rng.range(-1, 1 << 30));
  b.bin = static_cast<uint16_t>(rng.next());
  b.mapq = static_cast<uint8_t>(rng.next());
  b.flag = static_cast<uint16_t>(rng.next());
  b.qname = random_bytes(rng, 1 + rng.below(60), 1, 255);
  if (rng.chance(0.2)) {
    b.qname[rng.below(b.qname.size())] = '\0';
  }
  b.cigar.clear();
  const size_t n_cigar = rng.chance(0.2) ? 0 : 1 + rng.below(10);
  for (size_t k = 0; k < n_cigar; ++k) {
    b.cigar.push_back(static_cast<uint32_t>(rng.below(1u << 28)) << 4 |
                      static_cast<uint32_t>(rng.below(9)));
  }
  b.l_seq = rng.chance(0.15) ? 0 : static_cast<int32_t>(1 + rng.below(160));
  b.seq = random_bytes(rng, (static_cast<size_t>(b.l_seq) + 1) / 2);
  b.qual = random_bytes(rng, static_cast<size_t>(b.l_seq));
  if (b.l_seq > 0 && rng.chance(0.3)) {
    b.qual[0] = static_cast<char>(0xFF);  // absent, with a non-0xFF tail
  }
  b.mate_ref_id = static_cast<int32_t>(rng.range(-1, 3));
  b.mate_pos = static_cast<int32_t>(rng.next());
  b.tlen = static_cast<int32_t>(rng.next());
  b.aux = random_aux_field(rng, kAuxTypes[i % kAuxTypes.size()],
                           kBSubtypes[i % kBSubtypes.size()]);
  for (size_t k = rng.below(6); k > 0; --k) {
    b.aux += random_aux_field(rng, kAuxTypes[rng.below(kAuxTypes.size())],
                              kBSubtypes[rng.below(kBSubtypes.size())]);
  }
  return b;
}

/// The transcoder against its definition: scan + accommodate must give the
/// layout decode + accommodate gives, and transcode the bytes encode gives,
/// both under the record's own layout and under a padded one.
void expect_transcodes_like_round_trip(const std::string& body) {
  AlignmentRecord rec;
  bam::decode_record(body, rec);
  BamxLayout want_layout;
  want_layout.accommodate(rec);

  const bam::RecordShape shape = bam::scan_record(body);
  BamxLayout layout;
  layout.accommodate(shape);
  ASSERT_EQ(layout, want_layout);
  EXPECT_EQ(shape.ref_id, rec.ref_id);
  EXPECT_EQ(shape.pos, rec.pos);

  BamxLayout padded = layout;
  padded.max_qname += 5;
  padded.max_cigar += 2;
  padded.max_seq += 7;
  padded.max_aux += 11;
  for (const BamxLayout& l : {layout, padded}) {
    std::string want;
    encode_record(rec, l, want);
    std::string got = "prefix";  // transcoding appends
    transcode_bam_record(body, shape, l, got);
    EXPECT_EQ(got, "prefix" + want);
  }
}

/// Whether a path accepts `body`; anything but FormatError fails the test.
template <typename Fn>
bool accepts(Fn&& fn) {
  try {
    fn();
    return true;
  } catch (const FormatError&) {
    return false;
  }
}

bool decode_accepts(const std::string& body) {
  AlignmentRecord rec;
  return accepts([&] { bam::decode_record(body, rec); });
}

bool scan_accepts(const std::string& body) {
  return accepts([&] { bam::scan_record(body); });
}

TEST(BamxTranscode, RandomBodiesMatchDecodeEncode) {
  Rng rng(20141);
  for (size_t i = 0; i < 2000; ++i) {
    SCOPED_TRACE("body " + std::to_string(i));
    expect_transcodes_like_round_trip(random_body(rng, i).bytes());
    if (HasFatalFailure()) {
      return;
    }
  }
}

TEST(BamxTranscode, EdgeShapesMatchDecodeEncode) {
  std::vector<BamBody> bodies(8);
  bodies[0].l_seq = 0;  // no bases, no cigar
  bodies[0].seq.clear();
  bodies[0].qual.clear();
  bodies[0].cigar.clear();
  bodies[1].l_seq = 3;  // odd, with a non-zero pad nibble
  bodies[1].seq = "\x12\x4F";
  bodies[1].qual = "\x05\x06\x07";
  bodies[2].qual = "\xFF\x01\x02\x03";  // absent quals, non-0xFF tail
  bodies[3].qname = std::string("ab\0cd", 5);  // interior NUL
  bodies[4].aux = aux_field("XI", 'I', uint32_t{0xFFFFFFF0u}) +
                  aux_field("XJ", 'I', uint32_t{0x80000000u});
  bodies[5].aux = aux_field("XF", 'f', float_bits(0x7F800001u)) +  // sNaN
                  aux_field("XG", 'f', float_bits(0xFFC12345u)) +  // qNaN
                  aux_field("XH", 'f', float_bits(0x00000001u));   // denormal
  bodies[6].aux = aux_array("XB", 'f', 2, [] {
    std::string e;
    binio::put_le<float>(e, float_bits(0x7FA00000u));
    binio::put_le<float>(e, 1.5f);
    return e;
  }());
  bodies[7].aux = aux_field("Xc", 'c', int8_t{-128}) +
                  aux_field("XC", 'C', uint8_t{255}) +
                  aux_field("Xs", 's', int16_t{-32768}) +
                  aux_field("XS", 'S', uint16_t{65535}) +
                  aux_field("XA", 'A', uint8_t{0xE9}) +
                  aux_string("XZ", 'Z', "") + aux_string("XH", 'H', "1AE301");
  for (size_t i = 0; i < bodies.size(); ++i) {
    SCOPED_TRACE("body " + std::to_string(i));
    expect_transcodes_like_round_trip(bodies[i].bytes());
  }
}

TEST(BamxTranscode, EveryTruncationBehavesLikeDecode) {
  // Cutting a body short is an error, except exactly at an aux field
  // boundary, where what is left is a valid record with fewer fields.
  Rng rng(7);
  for (size_t i = 0; i < 30; ++i) {
    BamBody b = random_body(rng, i);
    b.aux += random_aux_field(rng, 'B', 's');
    const std::string body = b.bytes();
    const size_t aux_at = body.size() - b.aux.size();
    for (size_t n = 0; n < body.size(); ++n) {
      SCOPED_TRACE("body " + std::to_string(i) + " cut at " +
                   std::to_string(n));
      const std::string cut = body.substr(0, n);
      const bool ok = decode_accepts(cut);
      ASSERT_EQ(scan_accepts(cut), ok);
      if (n < aux_at) {
        EXPECT_FALSE(ok);
      }
      if (ok) {
        expect_transcodes_like_round_trip(cut);
      }
    }
  }
}

TEST(BamxTranscode, MalformedBodiesRejectedByBothPaths) {
  std::vector<std::pair<std::string, std::string>> cases;
  for (uint32_t op = 9; op < 16; ++op) {
    BamBody b;
    b.cigar.push_back((3u << 4) | op);
    cases.emplace_back("cigar op " + std::to_string(op), b.bytes());
  }
  BamBody b;
  b.aux = "XZZabc";
  cases.emplace_back("unterminated Z", b.bytes());
  b.aux = aux_array("XB", 'q', 1, "") + aux_field("NM", 'i', 1);
  cases.emplace_back("unknown B subtype, count 1", b.bytes());
  b.aux = "XXq\x01";
  cases.emplace_back("unknown aux type", b.bytes());
  b.aux.clear();
  b.l_seq = -1;
  cases.emplace_back("negative l_seq", b.bytes());
  std::string no_name = BamBody{}.bytes();
  no_name[8] = 0;          // l_read_name 0: the name has no NUL at all
  no_name.erase(32, 3);    // drop "r1\0"
  cases.emplace_back("read name without NUL", no_name);
  for (const auto& [what, body] : cases) {
    SCOPED_TRACE(what);
    EXPECT_FALSE(decode_accepts(body));
    EXPECT_FALSE(scan_accepts(body));
  }
}

TEST(BamxTranscode, DecodeQuirksArePreserved) {
  // A negative B count decodes as an empty array, which re-encodes with
  // count 0; an unknown B subtype is only rejected once there is an
  // element to read. The transcoder must keep both quirks.
  BamBody negative;
  negative.aux = aux_array("XB", 'i', -3, "") + aux_field("NM", 'i', 2);
  BamBody unknown_empty;
  unknown_empty.aux = aux_array("XB", 'q', 0, "");
  for (const BamBody& b : {negative, unknown_empty}) {
    const std::string body = b.bytes();
    ASSERT_TRUE(decode_accepts(body));
    expect_transcodes_like_round_trip(body);
  }
  const bam::RecordShape shape = bam::scan_record(negative.bytes());
  BamxLayout layout;
  layout.accommodate(shape);
  std::string out;
  transcode_bam_record(negative.bytes(), shape, layout, out);
  EXPECT_EQ(out.substr(layout.aux_offset(), shape.aux_len),
            aux_array("XB", 'i', 0, "") + aux_field("NM", 'i', 2));
}

TEST(BamxTranscode, RejectsLayoutTooSmall) {
  const std::string body = BamBody{}.bytes();
  const bam::RecordShape shape = bam::scan_record(body);
  BamxLayout layout;
  layout.accommodate(shape);
  layout.max_seq -= 1;
  std::string out;
  EXPECT_THROW(transcode_bam_record(body, shape, layout, out), UsageError);
}

// ---------------------------------------------------- BAM normalisation
//
// bam::normalize_record (and the RecordView over its output) against its
// definition, encode_record(decode_record(body)). These share the random
// body generator above.

/// What decode + encode leaves of `body`, without the block_size.
std::string round_trip(const std::string& body) {
  AlignmentRecord rec;
  bam::decode_record(body, rec);
  std::string out;
  bam::encode_record(rec, out);
  return out.substr(sizeof(int32_t));
}

/// The FormatError message `fn` throws, or "" when it returns.
template <typename Fn>
std::string error_of(Fn&& fn) {
  try {
    fn();
    return "";
  } catch (const FormatError& e) {
    return e.what();
  }
}

std::string decode_error(const std::string& body) {
  AlignmentRecord rec;
  return error_of([&] { bam::decode_record(body, rec); });
}

std::string normalize_error(const std::string& body) {
  std::string out;
  return error_of([&] { bam::normalize_record(body, out); });
}

/// random_body with CIGAR lengths below 2^16, so pos + reference span stays
/// inside int32 and encode_record's bin is well defined.
BamBody random_placed_body(Rng& rng, size_t i) {
  BamBody b = random_body(rng, i);
  for (uint32_t& word : b.cigar) {
    word = (word >> 4 & 0xFFFF) << 4 | (word & 0xF);
  }
  return b;
}

void expect_normalizes_like_round_trip(const std::string& body) {
  const std::string want = round_trip(body);
  std::string got = "stale";  // replaced, not appended to
  bam::normalize_record(body, got);
  ASSERT_EQ(got, want);
  std::string again;
  bam::normalize_record(got, again);
  EXPECT_EQ(again, got);  // normalised bodies are a fixed point

  AlignmentRecord rec;
  bam::decode_record(body, rec);
  const bam::RecordView view(got);
  EXPECT_EQ(view.ref_id(), rec.ref_id);
  EXPECT_EQ(view.pos(), rec.pos);
  EXPECT_EQ(view.flag(), rec.flag);
  EXPECT_EQ(view.qname(), rec.qname);
  EXPECT_EQ(view.n_cigar(), rec.cigar.size());
  EXPECT_EQ(view.l_seq(), rec.seq.size());
  EXPECT_EQ(view.end_pos(), rec.end_pos());
  int64_t lead = 0;  // soft/hard clips before the first other op
  for (size_t k = 0; k < rec.cigar.size() &&
                     (rec.cigar[k].op == 'S' || rec.cigar[k].op == 'H');
       ++k) {
    lead += rec.cigar[k].len;
  }
  int64_t trail = 0;  // and after the last
  for (size_t k = rec.cigar.size(); k > 0 && (rec.cigar[k - 1].op == 'S' ||
                                              rec.cigar[k - 1].op == 'H');
       --k) {
    trail += rec.cigar[k - 1].len;
  }
  EXPECT_EQ(view.unclipped_start(), static_cast<int32_t>(rec.pos - lead));
  EXPECT_EQ(view.unclipped_end(),
            static_cast<int32_t>(rec.end_pos() + trail));
  if (!rec.qual.empty()) {
    std::string ascii;
    seqcodec::quals_to_ascii(view.quals().data(), view.quals().size(), ascii);
    EXPECT_EQ(ascii, rec.qual);
  }
}

TEST(BamNormalize, RandomBodiesMatchDecodeEncode) {
  // Covers every aux type (c/C/s/S/I widen to i), stale bins, 0xFF-led
  // qualities with a non-0xFF tail, odd pad nibbles and interior NULs.
  Rng rng(20142);
  for (size_t i = 0; i < 2000; ++i) {
    SCOPED_TRACE("body " + std::to_string(i));
    expect_normalizes_like_round_trip(random_placed_body(rng, i).bytes());
    if (HasFatalFailure()) {
      return;
    }
  }
}

TEST(BamNormalize, EdgeBodiesMatchDecodeEncode) {
  std::vector<BamBody> bodies(7);
  bodies[0].aux = aux_field("Xc", 'c', int8_t{-128}) +
                  aux_field("XC", 'C', uint8_t{255}) +
                  aux_field("Xs", 's', int16_t{-32768}) +
                  aux_field("XS", 'S', uint16_t{65535});
  bodies[1].bin = 0;  // stale: the 4-base alignment at 100 is bin 4681
  bodies[2].pos = -1;  // unplaced: bin 4680 whatever the CIGAR says
  bodies[2].bin = 4681;
  bodies[3].qual = "\xFF\x01\x02\x03";  // absent quals, non-0xFF tail
  bodies[4].l_seq = 3;  // odd, with a non-zero pad nibble
  bodies[4].seq = "\x12\x4F";
  bodies[4].qual = "\x05\x06\x07";
  bodies[5].cigar = {(2u << 4) | 4, (3u << 4) | 5, (4u << 4) | 0,
                     (1u << 4) | 5};  // 2S3H4M1H: clipped at both ends
  bodies[6].cigar.clear();  // no CIGAR: end_pos is pos + 1
  bodies[6].l_seq = 0;
  bodies[6].seq.clear();
  bodies[6].qual.clear();
  for (size_t i = 0; i < bodies.size(); ++i) {
    SCOPED_TRACE("body " + std::to_string(i));
    expect_normalizes_like_round_trip(bodies[i].bytes());
  }
  std::string out;
  bam::normalize_record(bodies[1].bytes(), out);
  EXPECT_EQ(out.substr(10, 2), std::string("\x49\x12", 2));  // 4681 LE
}

TEST(BamNormalize, TruncatedAndMalformedBodiesThrowDecodesMessage) {
  Rng rng(8);
  for (size_t i = 0; i < 30; ++i) {
    BamBody b = random_placed_body(rng, i);
    b.aux += random_aux_field(rng, 'B', 's');
    const std::string body = b.bytes();
    for (size_t n = 0; n < body.size(); ++n) {
      SCOPED_TRACE("body " + std::to_string(i) + " cut at " +
                   std::to_string(n));
      const std::string cut = body.substr(0, n);
      ASSERT_EQ(normalize_error(cut), decode_error(cut));
    }
  }
  std::vector<std::pair<std::string, std::string>> cases;
  BamBody b;
  b.cigar.push_back((3u << 4) | 9);
  cases.emplace_back("cigar op 9", b.bytes());
  b.cigar.pop_back();
  b.aux = "XZZabc";
  cases.emplace_back("unterminated Z", b.bytes());
  b.aux = aux_array("XB", 'q', 1, "");
  cases.emplace_back("unknown B subtype, count 1", b.bytes());
  b.aux = aux_array("XB", 'I', 3, "\x01\x02\x03\x04\x05");
  cases.emplace_back("B array short of its count", b.bytes());
  b.aux = "XXq\x01";
  cases.emplace_back("unknown aux type", b.bytes());
  b.aux.clear();
  b.l_seq = -1;
  cases.emplace_back("negative l_seq", b.bytes());
  for (const auto& [what, body] : cases) {
    SCOPED_TRACE(what);
    const std::string want = decode_error(body);
    EXPECT_NE(want, "");
    EXPECT_EQ(normalize_error(body), want);
  }
}

// -------------------------------------------------------------- file layer

struct FileFixture {
  TempDir tmp;
  std::string path;
  std::vector<AlignmentRecord> records;
  BamxLayout layout;

  explicit FileFixture(int n = 200) {
    for (int i = 0; i < n; ++i) {
      records.push_back(sample_record(i));
      layout.accommodate(records.back());
    }
    path = tmp.file("t.bamx");
    BamxWriter w(path, test_header(), layout);
    for (const auto& rec : records) {
      w.write(rec);
    }
    w.close();
  }
};

TEST(BamxFile, HeaderAndCountPersisted) {
  FileFixture f;
  BamxReader r(f.path);
  EXPECT_EQ(r.num_records(), f.records.size());
  EXPECT_EQ(r.layout(), f.layout);
  EXPECT_EQ(r.header().references().size(), 2u);
}

TEST(BamxFile, RandomAccessAnyOrder) {
  FileFixture f;
  BamxReader r(f.path);
  AlignmentRecord rec;
  for (uint64_t i : {199u, 0u, 57u, 123u, 1u, 198u}) {
    r.read(i, rec);
    EXPECT_EQ(rec, f.records[i]) << "record " << i;
  }
}

TEST(BamxFile, ReadRefPosMatches) {
  FileFixture f;
  BamxReader r(f.path);
  for (uint64_t i = 0; i < f.records.size(); i += 17) {
    auto [ref, pos] = r.read_ref_pos(i);
    EXPECT_EQ(ref, f.records[i].ref_id);
    EXPECT_EQ(pos, f.records[i].pos);
  }
}

TEST(BamxFile, ReadRangeBulk) {
  FileFixture f;
  BamxReader r(f.path);
  std::vector<AlignmentRecord> batch;
  r.read_range(50, 100, batch);
  ASSERT_EQ(batch.size(), 50u);
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i], f.records[50 + i]);
  }
  // Appending semantics.
  r.read_range(0, 10, batch);
  EXPECT_EQ(batch.size(), 60u);
  EXPECT_EQ(batch[50], f.records[0]);
  // Empty range is a no-op.
  r.read_range(5, 5, batch);
  EXPECT_EQ(batch.size(), 60u);
}

TEST(BamxFile, OutOfRangeChecked) {
  FileFixture f;
  BamxReader r(f.path);
  AlignmentRecord rec;
  EXPECT_THROW(r.read(f.records.size(), rec), Error);
  std::vector<AlignmentRecord> batch;
  EXPECT_THROW(r.read_range(0, f.records.size() + 1, batch), Error);
}

TEST(BamxFile, BadMagicRejected) {
  TempDir tmp;
  std::string path = tmp.file("bad.bamx");
  write_file(path, "garbage garbage garbage garbage garbage!");
  EXPECT_THROW(BamxReader r(path), FormatError);
}

TEST(BamxFile, TruncationDetected) {
  FileFixture f;
  std::string data = read_file(f.path);
  std::string cut = f.tmp.file("cut.bamx");
  write_file(cut, data.substr(0, data.size() - f.layout.stride()));
  EXPECT_THROW(BamxReader r(cut), FormatError);
}

TEST(BamxFile, EmptyFileRoundTrip) {
  TempDir tmp;
  std::string path = tmp.file("empty.bamx");
  BamxLayout layout;
  {
    BamxWriter w(path, test_header(), layout);
    w.close();
  }
  BamxReader r(path);
  EXPECT_EQ(r.num_records(), 0u);
}

// ------------------------------------------------------------- raw ranges

TEST(BamxFile, RawRangeMatchesEncodedRecords) {
  FileFixture f;
  BamxReader r(f.path);
  std::string expected;
  for (uint64_t i = 30; i < 70; ++i) {
    encode_record(f.records[i], f.layout, expected);
  }
  std::string raw;
  r.read_raw_range(30, 70, raw);
  EXPECT_EQ(raw, expected);
  // Appending semantics; empty range is a no-op.
  r.read_raw_range(10, 10, raw);
  EXPECT_EQ(raw.size(), 40 * f.layout.stride());
  r.read_raw_range(0, 1, raw);
  EXPECT_EQ(raw.size(), 41 * f.layout.stride());
  // The appended block decodes back to the record it came from.
  AlignmentRecord back;
  decode_record(
      std::string_view(raw).substr(40 * f.layout.stride(), f.layout.stride()),
      f.layout, back);
  EXPECT_EQ(back, f.records[0]);
  EXPECT_THROW(r.read_raw_range(0, f.records.size() + 1, raw), Error);
}

/// A BAMXM dataset over FileFixture's 200 records: two shards of bare
/// record bytes holding three segments, each under the layout measured
/// over its own records, the middle one (in shard 1) padded further.
struct ShardedFixture {
  FileFixture f;
  BamxManifest m;
  std::string manifest;

  ShardedFixture() {
    struct Part {
      uint64_t begin, end;
      uint32_t shard;
    };
    m.header = test_header();
    m.n_records = f.records.size();
    m.shards = {"s-shard-0.bamx", "s-shard-1.bamx"};
    std::vector<std::string> bytes(m.shards.size());
    for (const Part& part :
         std::vector<Part>{{0, 80, 0}, {80, 130, 1}, {130, 200, 0}}) {
      BamxLayout layout;
      for (uint64_t i = part.begin; i < part.end; ++i) {
        layout.accommodate(f.records[i]);
      }
      if (part.shard == 1) {
        layout.max_aux += 9;
      }
      for (uint64_t i = part.begin; i < part.end; ++i) {
        encode_record(f.records[i], layout, bytes[part.shard]);
      }
      m.segments.push_back({part.shard, layout, part.end - part.begin});
    }
    for (size_t k = 0; k < m.shards.size(); ++k) {
      write_file(shard_path(k), bytes[k]);
    }
    manifest = f.tmp.file("s.bamxm");
    m.save(manifest);
  }

  std::string shard_path(size_t k) const { return f.tmp.file(m.shards[k]); }

  /// Encodes records [begin, end) under `layout`.
  std::string encoded(uint64_t begin, uint64_t end,
                      const BamxLayout& layout) const {
    std::string out;
    for (uint64_t i = begin; i < end; ++i) {
      encode_record(f.records[i], layout, out);
    }
    return out;
  }
};

TEST(BamxFile, RawRangeAcrossShards) {
  ShardedFixture s;
  ASSERT_NE(s.m.segments[0].layout, s.m.segments[1].layout);
  ASSERT_NE(s.m.segments[0].layout, s.m.segments[2].layout);
  ShardedBamxReader sharded(s.manifest);
  EXPECT_EQ(sharded.num_shards(), 2u);
  EXPECT_EQ(sharded.header(), test_header());

  // Segment lookup: bases are prefix sums, each with its own layout.
  EXPECT_EQ(sharded.segment_of(0).end, 80u);
  EXPECT_EQ(sharded.segment_of(79).end, 80u);
  EXPECT_EQ(sharded.segment_of(80).begin, 80u);
  EXPECT_EQ(sharded.segment_of(129).layout, s.m.segments[1].layout);
  EXPECT_EQ(sharded.segment_of(199).begin, 130u);

  // Raw ranges inside one segment are its stored bytes.
  const std::vector<std::tuple<uint64_t, uint64_t, size_t>> ranges = {
      {0, 0, 0}, {5, 40, 0}, {78, 80, 0}, {80, 130, 1}, {131, 200, 2}};
  for (auto [beg, end, seg] : ranges) {
    std::string raw;
    sharded.read_raw_range(beg, end, raw);
    EXPECT_EQ(raw, s.encoded(beg, end, s.m.segments[seg].layout))
        << "range [" << beg << ", " << end << ")";
  }
  // Ranges crossing a segment, or past the end, are refused.
  std::string out;
  EXPECT_THROW(sharded.read_raw_range(78, 82, out), Error);
  EXPECT_THROW(sharded.read_raw_range(0, 201, out), Error);
  EXPECT_TRUE(out.empty());

  // Decoded reads cross segments and shards freely.
  std::vector<AlignmentRecord> all;
  sharded.read_range(0, 200, all);
  EXPECT_EQ(all, s.f.records);
  AlignmentRecord rec;
  for (uint64_t i : {0u, 79u, 80u, 129u, 130u, 199u}) {
    sharded.read(i, rec);
    EXPECT_EQ(rec, s.f.records[i]) << "record " << i;
    EXPECT_EQ(sharded.read_ref_pos(i),
              std::make_pair(s.f.records[i].ref_id, s.f.records[i].pos));
  }
  EXPECT_EQ(encoded_bytes(sharded, 78, 82),
            2 * s.m.segments[0].layout.stride() +
                2 * s.m.segments[1].layout.stride());
}

// ------------------------------------------------------- BAMXM validation

/// The FormatError message loading `path` as a manifest throws ("" and a
/// test failure if it loads).
std::string manifest_error(const std::string& path) {
  try {
    BamxManifest::load(path);
  } catch (const FormatError& e) {
    return e.what();
  }
  ADD_FAILURE() << "manifest " << path << " loaded";
  return {};
}

TEST(BamxManifest, RoundTripsEverySegment) {
  ShardedFixture s;
  EXPECT_EQ(BamxManifest::load(s.manifest), s.m);
}

TEST(BamxManifest, EveryTruncationIsAFormatError) {
  ShardedFixture s;
  const std::string bytes = read_file(s.manifest);
  const std::string cut = s.f.tmp.file("cut.bamxm");
  for (size_t keep = 0; keep < bytes.size(); ++keep) {
    SCOPED_TRACE(keep);
    write_file(cut, bytes.substr(0, keep));
    EXPECT_NE(manifest_error(cut), "");
  }
  // One byte too many is refused as well.
  write_file(cut, bytes + '\0');
  EXPECT_NE(manifest_error(cut).find("trailing bytes"), std::string::npos);
}

TEST(BamxManifest, Version1IsRefusedByName) {
  // A complete version-1 manifest: one global layout and contiguous
  // shard record bases, no segment table.
  TempDir tmp;
  BamxLayout layout;
  layout.accommodate(sample_record(1));
  std::string v1("BAMXM\1", 6);
  binio::put_le<uint16_t>(v1, 1);
  for (uint32_t v : {layout.max_qname, layout.max_cigar, layout.max_seq,
                     layout.max_aux}) {
    binio::put_le<uint32_t>(v1, v);
  }
  binio::put_le<uint64_t>(v1, layout.stride());
  binio::put_le<uint64_t>(v1, 0);  // n_records
  binio::put_le<uint32_t>(v1, 1);  // n_shards
  binio::put_le<uint64_t>(v1, 0);  // shard n_records
  binio::put_le<uint64_t>(v1, 0);  // shard record_base
  binio::put_le<uint16_t>(v1, 6);
  v1 += "a.bamx";
  const std::string path = tmp.file("v1.bamxm");
  write_file(path, v1);
  const std::string msg = manifest_error(path);
  EXPECT_NE(msg.find("unsupported BAMXM version 1"), std::string::npos) << msg;
  EXPECT_THROW(ShardedBamxReader reader(path), FormatError);
  EXPECT_THROW(open_record_source(path), FormatError);
}

TEST(BamxManifest, SegmentShardOutOfRange) {
  ShardedFixture s;
  BamxManifest bad = s.m;
  bad.segments[1].shard = 2;
  bad.save(s.manifest);
  EXPECT_NE(manifest_error(s.manifest).find("names shard 2 of 2"),
            std::string::npos);
}

TEST(BamxManifest, CountsMustSumToTotal) {
  ShardedFixture s;
  for (uint64_t total : {uint64_t{199}, uint64_t{201}}) {
    BamxManifest bad = s.m;
    bad.n_records = total;
    bad.save(s.manifest);
    EXPECT_NE(manifest_error(s.manifest).find("do not sum"),
              std::string::npos);
  }
}

TEST(BamxManifest, OverflowingSegmentSize) {
  ShardedFixture s;
  BamxManifest bad = s.m;
  // n_records × stride wraps 64 bits; the counts still sum.
  const uint64_t huge = UINT64_MAX / bad.segments[1].layout.stride() + 1;
  bad.n_records += huge - bad.segments[1].n_records;
  bad.segments[1].n_records = huge;
  bad.save(s.manifest);
  EXPECT_NE(manifest_error(s.manifest).find("overflows"), std::string::npos);
  // Two segments that fit alone but overflow their shard together.
  bad = s.m;
  const uint64_t half = UINT64_MAX / 2 / bad.segments[0].layout.stride() + 1;
  bad.segments[0].n_records = half;
  bad.segments[2].layout = bad.segments[0].layout;
  bad.segments[2].n_records = half;
  bad.n_records = 2 * half + bad.segments[1].n_records;
  bad.save(s.manifest);
  EXPECT_NE(manifest_error(s.manifest).find("overflows"), std::string::npos);
}

TEST(BamxManifest, EmptyFileAndNoShardsRefused) {
  TempDir tmp;
  const std::string path = tmp.file("e.bamxm");
  write_file(path, "");
  EXPECT_NE(manifest_error(path), "");
  BamxManifest none;
  none.header = test_header();
  none.save(path);
  EXPECT_NE(manifest_error(path).find("no shards"), std::string::npos);
}

TEST(BamxManifest, ZeroSegmentsIsAnEmptyDataset) {
  TempDir tmp;
  BamxManifest m;
  m.header = test_header();
  m.shards = {"z-shard-0.bamx", "z-shard-1.bamx"};
  for (const std::string& shard : m.shards) {
    write_file(tmp.file(shard), "");
  }
  m.save(tmp.file("z.bamxm"));
  ShardedBamxReader reader(tmp.file("z.bamxm"));
  EXPECT_EQ(reader.num_records(), 0u);
  std::vector<AlignmentRecord> none;
  reader.read_range(0, 0, none);
  EXPECT_TRUE(none.empty());
  AlignmentRecord rec;
  EXPECT_THROW(reader.read(0, rec), Error);
}

TEST(ShardedBamxReader, ShardOneByteShortOrLongRefused) {
  for (bool longer : {false, true}) {
    SCOPED_TRACE(longer ? "long" : "short");
    ShardedFixture s;
    std::string bytes = read_file(s.shard_path(1));
    write_file(s.shard_path(1), longer ? bytes + 'x'
                                       : bytes.substr(0, bytes.size() - 1));
    try {
      ShardedBamxReader reader(s.manifest);
      ADD_FAILURE() << "reader opened a resized shard";
    } catch (const FormatError& e) {
      EXPECT_NE(std::string(e.what()).find("s-shard-1.bamx"),
                std::string::npos)
          << e.what();
    }
  }
}

// ------------------------------------------------------ open_record_source

std::string open_error(const std::string& path) {
  try {
    open_record_source(path);
  } catch (const FormatError& e) {
    return e.what();
  }
  ADD_FAILURE() << "no FormatError for " << path;
  return {};
}

TEST(OpenRecordSource, EmptyFileNamedInError) {
  TempDir tmp;
  std::string path = tmp.file("zero.bamx");
  write_file(path, "");
  std::string msg = open_error(path);
  EXPECT_NE(msg.find(path), std::string::npos) << msg;
  EXPECT_NE(msg.find("the file is empty"), std::string::npos) << msg;
}

TEST(OpenRecordSource, TruncatedMagicHexDumped) {
  TempDir tmp;
  std::string path = tmp.file("two.bamx");
  write_file(path, "BA");  // 2 bytes: a plausible but cut-short magic
  std::string msg = open_error(path);
  EXPECT_NE(msg.find(path), std::string::npos) << msg;
  EXPECT_NE(msg.find("truncated magic, only 2 byte(s)"), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("42 41"), std::string::npos) << msg;  // 'B' 'A' in hex
}

TEST(OpenRecordSource, UnknownMagicHexDumped) {
  TempDir tmp;
  std::string path = tmp.file("seven.bin");
  write_file(path, "NOTBAM!");  // 7 bytes, wrong magic
  std::string msg = open_error(path);
  EXPECT_NE(msg.find(path), std::string::npos) << msg;
  // Only the six sniffed bytes are reported: "NOTBAM".
  EXPECT_NE(msg.find("magic bytes: 4e 4f 54 42 41 4d"), std::string::npos)
      << msg;
}

// -------------------------------------------------------------------- BAIX

TEST(Baix, BuildSortsByRefThenPos) {
  FileFixture f;
  BamxReader r(f.path);
  BaixIndex index = BaixIndex::build(r);
  ASSERT_EQ(index.size(), f.records.size());
  for (size_t i = 1; i < index.size(); ++i) {
    const auto& a = index.entry(i - 1);
    const auto& b = index.entry(i);
    uint32_t ra = static_cast<uint32_t>(a.ref_id);
    uint32_t rb = static_cast<uint32_t>(b.ref_id);
    EXPECT_TRUE(ra < rb || (ra == rb && a.pos <= b.pos));
  }
}

TEST(Baix, QueryMatchesLinearFilter) {
  FileFixture f;
  BamxReader r(f.path);
  BaixIndex index = BaixIndex::build(r);
  for (auto [ref, beg, end] : std::vector<std::tuple<int, int, int>>{
           {0, 0, 5000}, {0, 3000, 9000}, {1, 0, 100000}, {0, 0, 1}}) {
    auto [lo, hi] = index.query(ref, beg, end);
    size_t expect = 0;
    for (const auto& rec : f.records) {
      if (rec.ref_id == ref && rec.pos >= beg && rec.pos < end) {
        ++expect;
      }
    }
    EXPECT_EQ(hi - lo, expect) << "region " << ref << ":" << beg << "-"
                               << end;
    for (size_t e = lo; e < hi; ++e) {
      EXPECT_EQ(index.entry(e).ref_id, ref);
      EXPECT_GE(index.entry(e).pos, beg);
      EXPECT_LT(index.entry(e).pos, end);
    }
  }
}

TEST(Baix, EntriesPointToCorrectRecords) {
  FileFixture f;
  BamxReader r(f.path);
  BaixIndex index = BaixIndex::build(r);
  AlignmentRecord rec;
  auto [lo, hi] = index.query(0, 0, 2000);
  for (size_t e = lo; e < hi; ++e) {
    r.read(index.entry(e).record_index, rec);
    EXPECT_EQ(rec.pos, index.entry(e).pos);
    EXPECT_EQ(rec.ref_id, index.entry(e).ref_id);
  }
}

TEST(Baix, SaveLoadRoundTrip) {
  FileFixture f;
  BamxReader r(f.path);
  BaixIndex index = BaixIndex::build(r);
  std::string path = f.tmp.file("t.baix");
  index.save(path);
  EXPECT_EQ(BaixIndex::load(path), index);
}

TEST(Baix, LoadBadMagicThrows) {
  TempDir tmp;
  std::string path = tmp.file("bad.baix");
  write_file(path, "XXXXXXXXXXXXXXXXX");
  EXPECT_THROW(BaixIndex::load(path), FormatError);
}

TEST(Baix, UnmappedSortLast) {
  std::vector<BaixEntry> entries = {
      {-1, -1, 0}, {0, 50, 1}, {1, 10, 2}, {0, 10, 3}};
  BaixIndex index = BaixIndex::from_entries(entries);
  EXPECT_EQ(index.entry(0).record_index, 3u);  // chr0:10
  EXPECT_EQ(index.entry(1).record_index, 1u);  // chr0:50
  EXPECT_EQ(index.entry(2).record_index, 2u);  // chr1:10
  EXPECT_EQ(index.entry(3).record_index, 0u);  // unmapped last
}

TEST(Baix, EmptyQuery) {
  BaixIndex index;
  auto [lo, hi] = index.query(0, 0, 100);
  EXPECT_EQ(lo, hi);
}

}  // namespace
}  // namespace ngsx::bamx
