#include "formats/bam.h"

#include <algorithm>
#include <cstring>

#include "formats/bgzf_parallel.h"
#include "formats/seqcodec.h"

namespace ngsx::bam {

using sam::AlignmentRecord;
using sam::AuxField;
using sam::CigarOp;
using sam::SamHeader;

// ------------------------------------------------------------------ binning

int32_t reg2bin(int32_t beg, int32_t end) {
  --end;
  if (beg >> 14 == end >> 14) return ((1 << 15) - 1) / 7 + (beg >> 14);
  if (beg >> 17 == end >> 17) return ((1 << 12) - 1) / 7 + (beg >> 17);
  if (beg >> 20 == end >> 20) return ((1 << 9) - 1) / 7 + (beg >> 20);
  if (beg >> 23 == end >> 23) return ((1 << 6) - 1) / 7 + (beg >> 23);
  if (beg >> 26 == end >> 26) return ((1 << 3) - 1) / 7 + (beg >> 26);
  return 0;
}

size_t reg2bins(int32_t beg, int32_t end, std::vector<uint16_t>& bins) {
  bins.clear();
  --end;
  bins.push_back(0);
  for (int32_t k = 1 + (beg >> 26); k <= 1 + (end >> 26); ++k)
    bins.push_back(static_cast<uint16_t>(k));
  for (int32_t k = 9 + (beg >> 23); k <= 9 + (end >> 23); ++k)
    bins.push_back(static_cast<uint16_t>(k));
  for (int32_t k = 73 + (beg >> 20); k <= 73 + (end >> 20); ++k)
    bins.push_back(static_cast<uint16_t>(k));
  for (int32_t k = 585 + (beg >> 17); k <= 585 + (end >> 17); ++k)
    bins.push_back(static_cast<uint16_t>(k));
  for (int32_t k = 4681 + (beg >> 14); k <= 4681 + (end >> 14); ++k)
    bins.push_back(static_cast<uint16_t>(k));
  return bins.size();
}

// ---------------------------------------------------------------------- aux

namespace {

/// Bytes per element of a B array subtype; 0 for an unknown subtype.
size_t b_width(char subtype) {
  switch (subtype) {
    case 'c': case 'C': return 1;
    case 's': case 'S': return 2;
    case 'i': case 'I': case 'f': return 4;
    default: return 0;
  }
}

template <typename T>
char* put(char* dst, T v) {
  std::memcpy(dst, &v, sizeof(v));
  return dst + sizeof(v);
}

template <typename T>
T take(const char*& src) {
  T v;
  std::memcpy(&v, src, sizeof(v));
  src += sizeof(v);
  return v;
}

/// decode_aux holds a float as a double and encode_aux narrows it back,
/// which quiets a signaling NaN. Do the same conversion for real: the
/// volatile keeps the compiler from folding float -> double -> float away.
float through_double(float v) {
  volatile double wide = v;
  return static_cast<float>(wide);
}

}  // namespace

size_t aux_encoded_size(const std::vector<AuxField>& tags) {
  size_t n = 0;
  for (const AuxField& aux : tags) {
    n += 3;  // tag + type
    switch (aux.type) {
      case 'A': n += 1; break;
      case 'i': case 'f': n += 4; break;
      case 'Z': case 'H': n += aux.str_value.size() + 1; break;
      case 'B': {
        size_t count = aux.subtype == 'f' ? aux.float_array.size()
                                          : aux.int_array.size();
        if (count > 0 && b_width(aux.subtype) == 0) {
          throw FormatError("unknown B subtype in encode");
        }
        n += 5 + count * b_width(aux.subtype);
        break;
      }
      default:
        throw FormatError(std::string("unknown aux type '") + aux.type +
                          "' in encode");
    }
  }
  return n;
}

char* encode_aux(const std::vector<AuxField>& tags, char* dst) {
  for (const AuxField& aux : tags) {
    *dst++ = aux.tag[0];
    *dst++ = aux.tag[1];
    switch (aux.type) {
      case 'A':
        *dst++ = 'A';
        *dst++ = static_cast<char>(aux.int_value);
        break;
      case 'i':
        // Always encoded as int32 ('i'); all integer widths decode back to
        // SAM type 'i' anyway.
        *dst++ = 'i';
        dst = put(dst, static_cast<int32_t>(aux.int_value));
        break;
      case 'f':
        *dst++ = 'f';
        dst = put(dst, static_cast<float>(aux.float_value));
        break;
      case 'Z':
      case 'H':
        *dst++ = aux.type;
        std::memcpy(dst, aux.str_value.data(), aux.str_value.size());
        dst += aux.str_value.size();
        *dst++ = '\0';
        break;
      case 'B': {
        *dst++ = 'B';
        *dst++ = aux.subtype;
        size_t n = aux.subtype == 'f' ? aux.float_array.size()
                                      : aux.int_array.size();
        dst = put(dst, static_cast<int32_t>(n));
        const std::vector<int64_t>& v = aux.int_array;
        for (size_t i = 0; i < n; ++i) {
          switch (aux.subtype) {
            case 'c': dst = put(dst, static_cast<int8_t>(v[i])); break;
            case 'C': dst = put(dst, static_cast<uint8_t>(v[i])); break;
            case 's': dst = put(dst, static_cast<int16_t>(v[i])); break;
            case 'S': dst = put(dst, static_cast<uint16_t>(v[i])); break;
            case 'i': dst = put(dst, static_cast<int32_t>(v[i])); break;
            case 'I': dst = put(dst, static_cast<uint32_t>(v[i])); break;
            case 'f':
              dst = put(dst, static_cast<float>(aux.float_array[i]));
              break;
            default:
              throw FormatError("unknown B subtype in encode");
          }
        }
        break;
      }
      default:
        throw FormatError(std::string("unknown aux type '") + aux.type +
                          "' in encode");
    }
  }
  return dst;
}

void decode_aux(std::string_view bytes, std::vector<AuxField>& tags) {
  tags.clear();
  ByteReader r(bytes);
  while (!r.eof()) {
    AuxField aux;
    std::string_view tag = r.read_bytes(2);
    aux.tag[0] = tag[0];
    aux.tag[1] = tag[1];
    char type = static_cast<char>(r.read<uint8_t>());
    switch (type) {
      case 'A':
        aux.type = 'A';
        aux.int_value = static_cast<char>(r.read<uint8_t>());
        break;
      case 'c': aux.type = 'i'; aux.int_value = r.read<int8_t>(); break;
      case 'C': aux.type = 'i'; aux.int_value = r.read<uint8_t>(); break;
      case 's': aux.type = 'i'; aux.int_value = r.read<int16_t>(); break;
      case 'S': aux.type = 'i'; aux.int_value = r.read<uint16_t>(); break;
      case 'i': aux.type = 'i'; aux.int_value = r.read<int32_t>(); break;
      case 'I': aux.type = 'i'; aux.int_value = r.read<uint32_t>(); break;
      case 'f':
        aux.type = 'f';
        aux.float_value = r.read<float>();
        break;
      case 'Z':
      case 'H':
        aux.type = type;
        aux.str_value = std::string(r.read_cstr());
        break;
      case 'B': {
        aux.type = 'B';
        aux.subtype = static_cast<char>(r.read<uint8_t>());
        int32_t n = r.read<int32_t>();
        for (int32_t i = 0; i < n; ++i) {
          switch (aux.subtype) {
            case 'c': aux.int_array.push_back(r.read<int8_t>()); break;
            case 'C': aux.int_array.push_back(r.read<uint8_t>()); break;
            case 's': aux.int_array.push_back(r.read<int16_t>()); break;
            case 'S': aux.int_array.push_back(r.read<uint16_t>()); break;
            case 'i': aux.int_array.push_back(r.read<int32_t>()); break;
            case 'I': aux.int_array.push_back(r.read<uint32_t>()); break;
            case 'f': aux.float_array.push_back(r.read<float>()); break;
            default:
              throw FormatError("unknown B subtype in decode");
          }
        }
        break;
      }
      default:
        throw FormatError(std::string("unknown aux type byte '") + type +
                          "' in decode");
    }
    tags.push_back(std::move(aux));
  }
}

size_t scan_aux(std::string_view bytes) {
  // Mirrors decode_aux's reads, so it throws wherever decode_aux does.
  ByteReader r(bytes);
  size_t n = 0;
  while (!r.eof()) {
    r.read_bytes(2);
    const char type = static_cast<char>(r.read<uint8_t>());
    n += 3;
    switch (type) {
      case 'A':
        r.read_bytes(1);
        n += 1;
        break;
      case 'c': case 'C': case 's': case 'S': case 'i': case 'I': case 'f':
        r.read_bytes(b_width(type));
        n += 4;
        break;
      case 'Z':
      case 'H':
        n += r.read_cstr().size() + 1;
        break;
      case 'B': {
        const char subtype = static_cast<char>(r.read<uint8_t>());
        const int32_t count = r.read<int32_t>();
        n += 5;
        if (count > 0) {
          if (b_width(subtype) == 0) {
            throw FormatError("unknown B subtype in decode");
          }
          const size_t width = b_width(subtype);
          const size_t elements = static_cast<size_t>(count) * width;
          if (elements > r.remaining()) {
            // decode_aux reads element by element: fail where it does.
            r.read_bytes(r.remaining() / width * width);
            r.read_bytes(width);
          }
          r.read_bytes(elements);
          n += elements;
        }
        break;
      }
      default:
        throw FormatError(std::string("unknown aux type byte '") + type +
                          "' in decode");
    }
  }
  return n;
}

char* normalize_aux(std::string_view bytes, char* dst) {
  const char* in = bytes.data();
  const char* end = in + bytes.size();
  while (in < end) {
    *dst++ = *in++;
    *dst++ = *in++;
    const char type = *in++;
    auto put_int = [&](int64_t v) {
      *dst++ = 'i';
      dst = put(dst, static_cast<int32_t>(v));
    };
    switch (type) {
      case 'A':
        *dst++ = 'A';
        *dst++ = *in++;
        break;
      case 'c': put_int(take<int8_t>(in)); break;
      case 'C': put_int(take<uint8_t>(in)); break;
      case 's': put_int(take<int16_t>(in)); break;
      case 'S': put_int(take<uint16_t>(in)); break;
      case 'i': put_int(take<int32_t>(in)); break;
      case 'I': put_int(take<uint32_t>(in)); break;
      case 'f':
        *dst++ = 'f';
        dst = put(dst, through_double(take<float>(in)));
        break;
      case 'B': {
        const char subtype = *in++;
        const int32_t count = std::max(take<int32_t>(in), 0);
        *dst++ = 'B';
        *dst++ = subtype;
        dst = put(dst, count);
        if (subtype == 'f') {
          for (int32_t i = 0; i < count; ++i) {
            dst = put(dst, through_double(take<float>(in)));
          }
        } else {
          const size_t n = static_cast<size_t>(count) * b_width(subtype);
          std::memcpy(dst, in, n);
          in += n;
          dst += n;
        }
        break;
      }
      default: {  // 'Z' or 'H': the string and its NUL
        const size_t n =
            static_cast<const char*>(std::memchr(in, '\0', end - in)) - in + 1;
        *dst++ = type;
        std::memcpy(dst, in, n);
        in += n;
        dst += n;
      }
    }
  }
  return dst;
}

// ------------------------------------------------------------- raw bodies

RecordShape scan_record(std::string_view body) {
  // Mirrors decode_record's reads, so every truncation point and every
  // rejected value throws the same FormatError here too.
  ByteReader r(body);
  RecordShape shape;
  shape.ref_id = r.read<int32_t>();
  shape.pos = r.read<int32_t>();
  const uint32_t bin_mq_nl = r.read<uint32_t>();
  const uint32_t flag_nc = r.read<uint32_t>();
  const int32_t l_seq = r.read<int32_t>();
  r.read<int32_t>();  // mate_ref_id
  r.read<int32_t>();  // mate_pos
  r.read<int32_t>();  // tlen

  std::string_view name = r.read_bytes(bin_mq_nl & 0xFF);
  if (name.empty() || name.back() != '\0') {
    throw FormatError("BAM read name not NUL-terminated");
  }
  shape.qname_len = static_cast<uint32_t>(name.size() - 1);

  shape.n_cigar = flag_nc & 0xFFFF;
  for (uint32_t i = 0; i < shape.n_cigar; ++i) {
    sam::cigar_op_char(r.read<uint32_t>() & 0xF);  // validates the op code
  }

  if (l_seq < 0) {
    throw FormatError("negative BAM l_seq " + std::to_string(l_seq));
  }
  shape.seq_len = static_cast<uint32_t>(l_seq);
  r.read_bytes((static_cast<size_t>(shape.seq_len) + 1) / 2);
  r.read_bytes(shape.seq_len);

  shape.aux_len = static_cast<uint32_t>(scan_aux(body.substr(r.pos())));
  return shape;
}

void normalize_record(std::string_view body, std::string& out) {
  const RecordShape shape = scan_record(body);
  const size_t seq_at = 32 + shape.qname_len + 1 + 4ull * shape.n_cigar;
  const size_t qual_at = seq_at + (shape.seq_len + 1ull) / 2;
  const size_t aux_at = qual_at + shape.seq_len;
  out.resize(aux_at + shape.aux_len);
  char* p = out.data();
  const char* in = body.data();

  // Fixed fields, name, CIGAR and bases are kept; encode_record recomputes
  // the bin from pos and the CIGAR.
  std::memcpy(p, in, qual_at);
  const int32_t end = shape.pos >= 0 ? RecordView(out).end_pos() : 0;
  const uint16_t bin = static_cast<uint16_t>(
      shape.pos >= 0 ? reg2bin(shape.pos, end) : 4680);
  std::memcpy(p + 10, &bin, sizeof(bin));
  if (shape.seq_len % 2 == 1) {
    p[qual_at - 1] &= static_cast<char>(0xF0);  // zero the pad nibble
  }
  if (shape.seq_len > 0 && static_cast<uint8_t>(in[qual_at]) == 0xFF) {
    std::memset(p + qual_at, 0xFF, shape.seq_len);  // absent qualities
  } else {
    std::memcpy(p + qual_at, in + qual_at, shape.seq_len);
  }
  normalize_aux(body.substr(aux_at), p + aux_at);
}

namespace {

constexpr uint32_t kOpS = 4;  // soft clip, in "MIDNSHP=X"
constexpr uint32_t kOpH = 5;  // hard clip

bool is_clip(uint32_t word) {
  return (word & 0xF) == kOpS || (word & 0xF) == kOpH;
}

}  // namespace

int32_t RecordView::end_pos() const {
  int64_t span = 0;
  for (uint32_t i = 0; i < n_cigar(); ++i) {
    const uint32_t word = cigar(i);
    switch (word & 0xF) {
      case 0: case 2: case 3: case 7: case 8:  // M D N = X
        span += word >> 4;
        break;
      default:
        break;
    }
  }
  if (span == 0) {
    span = 1;
  }
  return pos() + static_cast<int32_t>(span);
}

int32_t RecordView::unclipped_start() const {
  int64_t clip = 0;
  for (uint32_t i = 0; i < n_cigar() && is_clip(cigar(i)); ++i) {
    clip += cigar(i) >> 4;
  }
  return static_cast<int32_t>(pos() - clip);
}

int32_t RecordView::unclipped_end() const {
  int64_t clip = 0;
  for (uint32_t i = n_cigar(); i > 0 && is_clip(cigar(i - 1)); --i) {
    clip += cigar(i - 1) >> 4;
  }
  return static_cast<int32_t>(end_pos() + clip);
}

// ------------------------------------------------------------------- encode

void encode_record(const AlignmentRecord& rec, std::string& out) {
  size_t block_size_pos = out.size();
  binio::put_le<int32_t>(out, 0);  // patched below

  size_t body_begin = out.size();
  size_t l_read_name = rec.qname.size() + 1;
  if (l_read_name > 255) {
    throw FormatError("read name too long for BAM: '" + rec.qname + "'");
  }
  int32_t end = rec.pos >= 0 ? rec.end_pos() : 0;
  uint32_t bin =
      rec.pos >= 0 ? static_cast<uint32_t>(reg2bin(rec.pos, end)) : 4680;
  binio::put_le<int32_t>(out, rec.ref_id);
  binio::put_le<int32_t>(out, rec.pos);
  binio::put_le<uint32_t>(
      out, (bin << 16) | (static_cast<uint32_t>(rec.mapq) << 8) |
               static_cast<uint32_t>(l_read_name));
  binio::put_le<uint32_t>(
      out, (static_cast<uint32_t>(rec.flag) << 16) |
               static_cast<uint32_t>(rec.cigar.size()));
  binio::put_le<int32_t>(out, static_cast<int32_t>(rec.seq.size()));
  binio::put_le<int32_t>(out, rec.mate_ref_id);
  binio::put_le<int32_t>(out, rec.mate_pos);
  binio::put_le<int32_t>(out, rec.tlen);

  out += rec.qname;
  out += '\0';

  for (const CigarOp& op : rec.cigar) {
    binio::put_le<uint32_t>(out, (op.len << 4) | sam::cigar_op_code(op.op));
  }

  // 4-bit packed sequence.
  seqcodec::pack_seq(rec.seq, out);

  // Qualities: raw Phred (ASCII - 33); 0xFF fill when absent.
  if (rec.qual.empty()) {
    out.append(rec.seq.size(), static_cast<char>(0xFF));
  } else {
    NGSX_CHECK_MSG(rec.qual.size() == rec.seq.size(),
                   "QUAL/SEQ length mismatch in encode");
    size_t base = out.size();
    out.resize(base + rec.qual.size());
    seqcodec::ascii_to_quals(rec.qual, out.data() + base);
  }

  size_t aux_at = out.size();
  out.resize(aux_at + aux_encoded_size(rec.tags));
  encode_aux(rec.tags, out.data() + aux_at);

  binio::poke_le<int32_t>(out, block_size_pos,
                          static_cast<int32_t>(out.size() - body_begin));
}

// ------------------------------------------------------------------- decode

void decode_record(std::string_view body, AlignmentRecord& rec) {
  ByteReader r(body);
  rec.ref_id = r.read<int32_t>();
  rec.pos = r.read<int32_t>();
  uint32_t bin_mq_nl = r.read<uint32_t>();
  uint32_t flag_nc = r.read<uint32_t>();
  int32_t l_seq = r.read<int32_t>();
  rec.mate_ref_id = r.read<int32_t>();
  rec.mate_pos = r.read<int32_t>();
  rec.tlen = r.read<int32_t>();

  rec.mapq = static_cast<uint8_t>((bin_mq_nl >> 8) & 0xFF);
  uint32_t l_read_name = bin_mq_nl & 0xFF;
  rec.flag = static_cast<uint16_t>(flag_nc >> 16);
  uint32_t n_cigar = flag_nc & 0xFFFF;

  std::string_view name = r.read_bytes(l_read_name);
  if (name.empty() || name.back() != '\0') {
    throw FormatError("BAM read name not NUL-terminated");
  }
  rec.qname.assign(name.data(), name.size() - 1);

  rec.cigar.clear();
  rec.cigar.reserve(n_cigar);
  for (uint32_t i = 0; i < n_cigar; ++i) {
    uint32_t packed = r.read<uint32_t>();
    rec.cigar.push_back(
        CigarOp{sam::cigar_op_char(packed & 0xF), packed >> 4});
  }

  if (l_seq < 0) {
    throw FormatError("negative BAM l_seq " + std::to_string(l_seq));
  }
  std::string_view packed_seq =
      r.read_bytes((static_cast<size_t>(l_seq) + 1) / 2);
  seqcodec::unpack_seq(packed_seq.data(), static_cast<size_t>(l_seq),
                       rec.seq);

  std::string_view quals = r.read_bytes(static_cast<size_t>(l_seq));
  rec.qual.clear();
  if (l_seq > 0 && static_cast<uint8_t>(quals[0]) != 0xFF) {
    seqcodec::quals_to_ascii(quals.data(), quals.size(), rec.qual);
  }

  // Aux fields to end of body.
  decode_aux(body.substr(r.pos()), rec.tags);
}

// ------------------------------------------------------------------- header

void encode_header(const SamHeader& header, std::string& out) {
  out += "BAM\1";
  binio::put_le<int32_t>(out, static_cast<int32_t>(header.text().size()));
  out += header.text();
  binio::put_le<int32_t>(out,
                         static_cast<int32_t>(header.references().size()));
  for (const auto& ref : header.references()) {
    binio::put_le<int32_t>(out, static_cast<int32_t>(ref.name.size() + 1));
    out += ref.name;
    out += '\0';
    binio::put_le<int32_t>(out, static_cast<int32_t>(ref.length));
  }
}

// ------------------------------------------------------------ BamFileWriter

BamFileWriter::BamFileWriter(const std::string& path,
                             const SamHeader& header, int compression_level,
                             int threads, OutputFile::Commit commit)
    : out_(bgzf::open_writer(path, compression_level, threads, commit)) {
  encode_header(header, scratch_);
  out_->write(scratch_);
}

void BamFileWriter::write(const sam::AlignmentRecord& rec) {
  scratch_.clear();
  encode_record(rec, scratch_);
  out_->write(scratch_);
}

void BamFileWriter::write_body(std::string_view body) {
  const int32_t block_size = static_cast<int32_t>(body.size());
  out_->write(&block_size, sizeof(block_size));
  out_->write(body);
}

void BamFileWriter::close() { out_->close(); }

// ------------------------------------------------------------ BamFileReader

BamFileReader::BamFileReader(const std::string& path, int decode_threads)
    : in_(bgzf::open_reader(path, decode_threads)) {
  char magic[4];
  in_->read_exact(magic, 4);
  if (std::memcmp(magic, "BAM\1", 4) != 0) {
    throw FormatError("bad BAM magic in '" + path + "'");
  }
  int32_t l_text;
  in_->read_exact(&l_text, 4);
  if (l_text < 0 || l_text > (256 << 20)) {
    throw FormatError("implausible l_text in '" + path + "'");
  }
  std::string text(static_cast<size_t>(l_text), '\0');
  in_->read_exact(text.data(), text.size());

  int32_t n_ref;
  in_->read_exact(&n_ref, 4);
  if (n_ref < 0) {
    throw FormatError("negative n_ref in '" + path + "'");
  }
  std::vector<sam::Reference> refs;
  refs.reserve(static_cast<size_t>(n_ref));
  for (int32_t i = 0; i < n_ref; ++i) {
    int32_t l_name;
    in_->read_exact(&l_name, 4);
    if (l_name <= 0 || l_name > (1 << 20)) {
      throw FormatError("bad reference name length in '" + path + "'");
    }
    std::string name(static_cast<size_t>(l_name), '\0');
    in_->read_exact(name.data(), name.size());
    name.pop_back();  // trailing NUL
    int32_t l_ref;
    in_->read_exact(&l_ref, 4);
    refs.push_back(sam::Reference{std::move(name), l_ref});
  }
  // Prefer the parsed text (keeps user @PG/@RG lines); fall back to the
  // binary dictionary if the text lacks @SQ lines.
  SamHeader from_text = SamHeader::from_text(text);
  if (from_text.references().size() == refs.size()) {
    header_ = std::move(from_text);
  } else {
    header_ = SamHeader::from_references(std::move(refs));
  }
}

bool BamFileReader::next_raw(std::string& body) {
  int32_t block_size;
  size_t got = in_->read(&block_size, 4);
  if (got == 0) {
    return false;
  }
  if (got != 4) {
    throw FormatError("truncated BAM block_size");
  }
  // Real records are a few KB; a multi-hundred-MB block_size means the
  // stream is corrupt, and resizing first would be an allocation bomb.
  if (block_size <= 0 || block_size > (256 << 20)) {
    throw FormatError("bad BAM block_size " + std::to_string(block_size));
  }
  body.resize(static_cast<size_t>(block_size));
  in_->read_exact(body.data(), body.size());
  return true;
}

bool BamFileReader::next(sam::AlignmentRecord& rec) {
  if (!next_raw(body_)) {
    return false;
  }
  decode_record(body_, rec);
  return true;
}

}  // namespace ngsx::bam
