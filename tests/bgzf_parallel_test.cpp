// Tests for the multi-threaded BGZF codec endpoints. Writer side:
// byte-identical output to the sequential writer, correctness under varied
// block/write patterns. Reader side: ParallelReader must be observationally
// identical to the sequential Reader — same bytes, same tell() values, same
// FormatError messages on corrupt input — across random read()/seek()
// interleavings and thread counts. Shared pool: both run on the one
// process pool, nested inside each other and inside pool tasks, without
// starting threads per object, and in forked ranks.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "exec/pipeline.h"
#include "formats/bgzf.h"
#include "formats/bgzf_parallel.h"
#include "mpi/minimpi.h"
#include "util/iopolicy.h"
#include "util/rng.h"
#include "util/tempdir.h"

namespace ngsx::bgzf {
namespace {

std::string random_payload(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::string s(n, '\0');
  for (auto& c : s) {
    c = "ACGTNacgtn\t 0123456789"[rng.below(21)];
  }
  return s;
}

class ParallelThreads : public ::testing::TestWithParam<int> {};

TEST_P(ParallelThreads, ByteIdenticalToSequentialWriter) {
  // Same input, same level, same block boundaries -> same file bytes.
  TempDir tmp;
  std::string payload = random_payload(1 << 21, 42);  // ~32 blocks
  {
    Writer w(tmp.file("seq.bgzf"));
    w.write(payload);
    w.close();
  }
  {
    ParallelWriter w(tmp.file("par.bgzf"), GetParam());
    w.write(payload);
    w.close();
  }
  EXPECT_EQ(read_file(tmp.file("par.bgzf")), read_file(tmp.file("seq.bgzf")));
}

TEST_P(ParallelThreads, ManySmallWrites) {
  TempDir tmp;
  std::string expected;
  {
    ParallelWriter w(tmp.file("t.bgzf"), GetParam());
    Rng rng(7);
    for (int i = 0; i < 5000; ++i) {
      std::string piece = random_payload(1 + rng.below(700), 100 + i);
      expected += piece;
      w.write(piece);
    }
    w.close();
  }
  Reader r(tmp.file("t.bgzf"));
  std::string got(expected.size(), '\0');
  r.read_exact(got.data(), got.size());
  EXPECT_EQ(got, expected);
  EXPECT_TRUE(r.eof());
}

TEST_P(ParallelThreads, FlushBlockSequencePoints) {
  TempDir tmp;
  {
    ParallelWriter w(tmp.file("t.bgzf"), GetParam());
    w.write("alpha");
    w.flush_block();
    w.write("beta");
    w.flush_block();
    w.flush_block();  // idempotent on empty
    w.write("gamma");
    w.close();
  }
  Reader r(tmp.file("t.bgzf"));
  char buf[14];
  r.read_exact(buf, 14);
  EXPECT_EQ(std::string(buf, 14), "alphabetagamma");
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelThreads,
                         ::testing::Values(1, 2, 4, 8));

TEST(ParallelWriterEdge, EmptyFile) {
  TempDir tmp;
  {
    ParallelWriter w(tmp.file("e.bgzf"), 3);
    w.close();
  }
  EXPECT_EQ(read_file(tmp.file("e.bgzf")), std::string(eof_marker()));
}

TEST(ParallelWriterEdge, DoubleCloseIsIdempotent) {
  TempDir tmp;
  ParallelWriter w(tmp.file("t.bgzf"), 2);
  w.write("data");
  w.close();
  w.close();
  EXPECT_THROW(w.write("more"), Error);
}

TEST(ParallelWriterEdge, LargeSingleWrite) {
  TempDir tmp;
  std::string payload = random_payload(8 << 20, 9);
  {
    ParallelWriter w(tmp.file("big.bgzf"), 4, /*level=*/1);
    w.write(payload);
    w.close();
  }
  Reader r(tmp.file("big.bgzf"));
  std::string got(payload.size(), '\0');
  r.read_exact(got.data(), got.size());
  EXPECT_EQ(got, payload);
}

TEST(ParallelWriterEdge, BackpressureBoundsMemory) {
  // More blocks than the in-flight cap; completion must still be exact.
  TempDir tmp;
  std::string block(kMaxBlockInput, 'x');
  {
    ParallelWriter w(tmp.file("t.bgzf"), 2);
    for (int i = 0; i < 200; ++i) {  // 200 blocks >> kMaxInFlight
      w.write(block);
    }
    w.close();
  }
  Reader r(tmp.file("t.bgzf"));
  uint64_t total = 0;
  char buf[1 << 16];
  size_t got;
  while ((got = r.read(buf, sizeof(buf))) > 0) {
    total += got;
  }
  EXPECT_EQ(total, 200ull * kMaxBlockInput);
}

TEST(ParallelWriterEdge, WriteErrorSurfacesToTheProducerAndRollsBack) {
  // ENOSPC strikes while a finished block is being written by whichever
  // thread commits it: the error must reach the producer from write() or
  // close(), without a hang, and the output must be rolled back.
  TempDir tmp;
  const std::string path = tmp.file("enospc.bgzf");
  const std::string payload = random_payload(8 << 20, 13);
  io::Fault fault;
  fault.op = io::Op::kWrite;
  fault.kind = io::FaultKind::kEnospc;
  fault.bytes = 512;
  io::IoPolicy::instance().inject(path, fault);
  EXPECT_THROW(
      {
        ParallelWriter w(path, 4, /*level=*/1);
        for (size_t at = 0; at < payload.size(); at += 100000) {
          w.write(std::string_view(payload).substr(at, 100000));
        }
        w.close();
      },
      IoError);
  io::IoPolicy::instance().clear();
  EXPECT_FALSE(std::filesystem::exists(path));
}

// ------------------------------------------------------------ open_writer

/// Writes a header that does not end on a block boundary, a payload with
/// explicit block ends at irregular points, and a tail through
/// open_writer; returns compressed_bytes() after close().
uint64_t write_through_open_writer(const std::string& path, int threads) {
  std::unique_ptr<WriterBase> w = open_writer(path, 6, threads);
  w->write(random_payload(1000, 5));  // "header": ends mid-block
  Rng rng(11);
  std::string payload = random_payload(600000, 6);
  size_t pos = 0;
  while (pos < payload.size()) {
    size_t take = std::min(payload.size() - pos, 1 + rng.below(90000));
    w->write(std::string_view(payload).substr(pos, take));
    pos += take;
    if (rng.below(3) == 0) {
      w->flush_block();
    }
  }
  w->write("tail", 4);
  w->close();
  return w->compressed_bytes();
}

TEST(OpenWriter, WidthsGiveIdenticalBytesAndCompressedBytes) {
  TempDir tmp;
  const uint64_t seq = write_through_open_writer(tmp.file("w1.bgzf"), 1);
  const std::string expected = read_file(tmp.file("w1.bgzf"));
  EXPECT_EQ(seq, expected.size());
  for (int threads : {2, 4}) {
    std::string path = tmp.file("w" + std::to_string(threads) + ".bgzf");
    EXPECT_EQ(write_through_open_writer(path, threads), seq) << threads;
    EXPECT_EQ(read_file(path), expected) << threads;
  }
}

TEST(OpenWriter, WidthPicksTheImplementation) {
  TempDir tmp;
  auto seq = open_writer(tmp.file("a.bgzf"), 6, 1);
  auto par = open_writer(tmp.file("b.bgzf"), 6, 3);
  EXPECT_NE(dynamic_cast<Writer*>(seq.get()), nullptr);
  EXPECT_NE(dynamic_cast<ParallelWriter*>(par.get()), nullptr);
  seq->close();
  par->close();
  EXPECT_THROW(open_writer(tmp.file("c.bgzf"), 6, 0), Error);
}

TEST(OpenWriter, CommitModeReachesTheFile) {
  // kDirect writes the final path in place (visible before close) and an
  // abandoned writer removes it; kAtomic publishes only on close().
  TempDir tmp;
  for (int threads : {1, 4}) {
    std::string direct = tmp.file("direct" + std::to_string(threads));
    std::string atomic = tmp.file("atomic" + std::to_string(threads));
    {
      auto d = open_writer(direct, 6, threads, OutputFile::Commit::kDirect);
      auto a = open_writer(atomic, 6, threads);
      d->write("abc", 3);
      a->write("abc", 3);
      EXPECT_TRUE(std::filesystem::exists(direct)) << threads;
      EXPECT_FALSE(std::filesystem::exists(atomic)) << threads;
      a->close();
    }  // d abandoned without close()
    EXPECT_FALSE(std::filesystem::exists(direct)) << threads;
    EXPECT_TRUE(std::filesystem::exists(atomic)) << threads;
  }
}

// ------------------------------------------------------------ reader side

/// Writes `payload` as a BGZF file with irregular block boundaries driven
/// by `seed` (flush_block at random points), returning the path.
std::string write_bgzf(const TempDir& tmp, const std::string& name,
                       const std::string& payload, uint64_t seed) {
  std::string path = tmp.file(name);
  Writer w(path);
  Rng rng(seed);
  size_t pos = 0;
  while (pos < payload.size()) {
    size_t take = std::min(payload.size() - pos, 1 + rng.below(80000));
    w.write(std::string_view(payload).substr(pos, take));
    pos += take;
    if (rng.below(3) == 0) {
      w.flush_block();  // irregular (including short) block boundaries
    }
  }
  w.close();
  return path;
}

std::string drain(ReaderBase& r, size_t chunk = 8192) {
  std::string out;
  std::string buf(chunk, '\0');
  size_t got;
  while ((got = r.read(buf.data(), buf.size())) > 0) {
    out.append(buf.data(), got);
  }
  return out;
}

class DecodeThreads : public ::testing::TestWithParam<int> {};

TEST_P(DecodeThreads, FullScanByteIdentical) {
  TempDir tmp;
  std::string payload = random_payload(3 << 20, 11);
  std::string path = write_bgzf(tmp, "t.bgzf", payload, 12);

  ParallelReader par(path, GetParam());
  Reader seq(path);
  EXPECT_EQ(drain(par), payload);
  EXPECT_EQ(drain(seq), payload);
  EXPECT_TRUE(par.eof());
  EXPECT_TRUE(seq.eof());
  EXPECT_EQ(par.tell(), seq.tell());
  EXPECT_EQ(par.compressed_size(), seq.compressed_size());
}

TEST_P(DecodeThreads, TellParityDuringScan) {
  // tell() must return the same virtual offsets as the sequential reader
  // at every read boundary — indexes built against one must work with the
  // other.
  TempDir tmp;
  std::string payload = random_payload(1 << 19, 21);
  std::string path = write_bgzf(tmp, "t.bgzf", payload, 22);

  ParallelReader par(path, GetParam());
  Reader seq(path);
  Rng rng(23);
  char pbuf[40000];
  char sbuf[40000];
  while (true) {
    EXPECT_EQ(par.tell(), seq.tell());
    size_t n = 1 + rng.below(sizeof(pbuf));
    size_t pgot = par.read(pbuf, n);
    size_t sgot = seq.read(sbuf, n);
    ASSERT_EQ(pgot, sgot);
    ASSERT_EQ(std::string_view(pbuf, pgot), std::string_view(sbuf, sgot));
    if (pgot == 0) {
      break;
    }
  }
  EXPECT_EQ(par.tell(), seq.tell());
}

TEST_P(DecodeThreads, RandomReadSeekInterleavingMatchesSequential) {
  // Property test: drive both readers with the same random op stream —
  // reads of random sizes and seeks to voffsets previously returned by
  // tell() — and require identical bytes and identical tell() throughout.
  TempDir tmp;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    size_t payload_size = 50000 + Rng(seed).below(2 << 20);
    std::string payload = random_payload(payload_size, 100 + seed);
    std::string path = write_bgzf(tmp, "s" + std::to_string(seed) + ".bgzf",
                                  payload, 200 + seed);

    ParallelReader par(path, GetParam());
    Reader seq(path);
    Rng rng(300 + seed);
    std::vector<uint64_t> voffsets{0};
    char pbuf[70000];
    char sbuf[70000];
    for (int op = 0; op < 60; ++op) {
      if (rng.below(3) == 0 && !voffsets.empty()) {
        uint64_t target = voffsets[rng.below(voffsets.size())];
        par.seek(target);
        seq.seek(target);
      } else {
        size_t n = 1 + rng.below(sizeof(pbuf));
        size_t pgot = par.read(pbuf, n);
        size_t sgot = seq.read(sbuf, n);
        ASSERT_EQ(pgot, sgot) << "seed " << seed << " op " << op;
        ASSERT_EQ(std::string_view(pbuf, pgot),
                  std::string_view(sbuf, sgot))
            << "seed " << seed << " op " << op;
      }
      ASSERT_EQ(par.tell(), seq.tell()) << "seed " << seed << " op " << op;
      ASSERT_EQ(par.eof(), seq.eof()) << "seed " << seed << " op " << op;
      voffsets.push_back(par.tell());
    }
  }
}

TEST_P(DecodeThreads, SeekRoundTripRestoresStream) {
  TempDir tmp;
  std::string payload = random_payload(1 << 20, 31);
  std::string path = write_bgzf(tmp, "t.bgzf", payload, 32);

  ParallelReader par(path, GetParam());
  // Collect voffset -> expected remainder pairs with the sequential reader.
  Reader seq(path);
  std::vector<std::pair<uint64_t, size_t>> marks;  // voffset, consumed bytes
  char buf[30000];
  size_t consumed = 0;
  for (int i = 0; i < 20; ++i) {
    marks.emplace_back(seq.tell(), consumed);
    consumed += seq.read(buf, sizeof(buf));
  }
  // Visit marks in a scrambled order; each seek must land exactly there.
  Rng rng(33);
  for (int i = 0; i < 40; ++i) {
    auto [voffset, offset] = marks[rng.below(marks.size())];
    par.seek(voffset);
    EXPECT_EQ(par.tell(), voffset);
    size_t want = std::min<size_t>(sizeof(buf), payload.size() - offset);
    std::string got(want, '\0');
    par.read_exact(got.data(), got.size());
    EXPECT_EQ(got, payload.substr(offset, want)) << "mark voffset " << voffset;
  }
}

TEST_P(DecodeThreads, SeekToEofIsLegalAndSticky) {
  TempDir tmp;
  std::string payload = random_payload(200000, 41);
  std::string path = write_bgzf(tmp, "t.bgzf", payload, 42);

  Reader seq(path);
  (void)drain(seq);
  uint64_t end_voffset = seq.tell();

  ParallelReader par(path, GetParam());
  par.seek(end_voffset);
  char c;
  EXPECT_EQ(par.read(&c, 1), 0u);
  EXPECT_TRUE(par.eof());
  EXPECT_EQ(par.tell(), seq.tell());
  // And back to the start: the pipeline restarts cleanly after EOF.
  par.seek(0);
  EXPECT_FALSE(par.eof());
  EXPECT_EQ(drain(par), payload);
}

TEST_P(DecodeThreads, SeekPastEndThrowsLikeSequential) {
  TempDir tmp;
  std::string path = write_bgzf(tmp, "t.bgzf", random_payload(100000, 51), 52);

  ParallelReader par(path, GetParam());
  Reader seq(path);
  uint64_t bogus = make_voffset(1ull << 40, 17);
  std::string par_msg;
  std::string seq_msg;
  try {
    par.seek(bogus);
  } catch (const FormatError& e) {
    par_msg = e.what();
  }
  try {
    seq.seek(bogus);
  } catch (const FormatError& e) {
    seq_msg = e.what();
  }
  EXPECT_FALSE(par_msg.empty());
  EXPECT_EQ(par_msg, seq_msg);
}

TEST_P(DecodeThreads, SeekBeyondBlockPayloadThrowsLikeSequential) {
  TempDir tmp;
  std::string path = tmp.file("t.bgzf");
  {
    Writer w(path);
    w.write("short");  // one 5-byte block
    w.close();
  }
  ParallelReader par(path, GetParam());
  Reader seq(path);
  uint64_t bogus = make_voffset(0, 4000);  // uoffset > payload
  std::string par_msg;
  std::string seq_msg;
  try {
    par.seek(bogus);
  } catch (const FormatError& e) {
    par_msg = e.what();
  }
  try {
    seq.seek(bogus);
  } catch (const FormatError& e) {
    seq_msg = e.what();
  }
  EXPECT_FALSE(par_msg.empty());
  EXPECT_EQ(par_msg, seq_msg);
}

/// Reads both readers to exhaustion and returns (sequential error message,
/// parallel error message); empty string = no error.
std::pair<std::string, std::string> drain_errors(const std::string& path,
                                                 int threads) {
  std::string seq_msg;
  std::string par_msg;
  try {
    Reader seq(path);
    (void)drain(seq);
  } catch (const FormatError& e) {
    seq_msg = e.what();
  }
  try {
    ParallelReader par(path, threads);
    (void)drain(par);
  } catch (const FormatError& e) {
    par_msg = e.what();
  }
  return {seq_msg, par_msg};
}

TEST_P(DecodeThreads, TruncatedBlockErrorParity) {
  // Cut the file mid-block: both readers must deliver the same prefix and
  // then throw the same FormatError (with the compressed offset), with no
  // hang.
  TempDir tmp;
  std::string payload = random_payload(1 << 20, 61);
  std::string path = write_bgzf(tmp, "t.bgzf", payload, 62);
  std::string bytes = read_file(path);

  // Mid-block truncation (not on a header boundary).
  std::string cut_block = tmp.file("cut_block.bgzf");
  write_file(cut_block, bytes.substr(0, bytes.size() * 2 / 3));
  auto [seq_msg, par_msg] = drain_errors(cut_block, GetParam());
  EXPECT_FALSE(seq_msg.empty());
  EXPECT_EQ(par_msg, seq_msg);

  // Mid-header truncation: find the last block start by re-scanning.
  std::string cut_header = tmp.file("cut_header.bgzf");
  size_t last_start = 0;
  for (size_t pos = 0; pos + kBlockHeaderSize <= bytes.size();) {
    last_start = pos;
    pos += peek_block_size(std::string_view(bytes).substr(pos));
  }
  write_file(cut_header, bytes.substr(0, last_start + 5));
  auto [seq_msg2, par_msg2] = drain_errors(cut_header, GetParam());
  EXPECT_FALSE(seq_msg2.empty());
  EXPECT_EQ(par_msg2, seq_msg2);
}

TEST_P(DecodeThreads, CorruptBlockBodyErrorParity) {
  // Flip bytes inside a block body: CRC/inflate failure must carry the
  // same message (with compressed offset) from both readers.
  TempDir tmp;
  std::string payload = random_payload(1 << 20, 71);
  std::string path = write_bgzf(tmp, "t.bgzf", payload, 72);
  std::string bytes = read_file(path);

  // Block extents: flips stay inside block *bodies* (past the 18-byte
  // header). A header flip derails the framing scan itself, and then
  // which error wins in the parallel reader (scanner vs. an inflate
  // worker) is timing-dependent; body flips always fail in the inflate
  // of that one block, so the message must match exactly.
  std::vector<std::pair<size_t, size_t>> blocks;  // start, total size
  for (size_t pos = 0; pos + kBlockHeaderSize <= bytes.size();) {
    size_t total = peek_block_size(std::string_view(bytes).substr(pos));
    blocks.emplace_back(pos, total);
    pos += total;
  }
  ASSERT_GT(blocks.size(), 2u);

  Rng rng(73);
  for (int trial = 0; trial < 4; ++trial) {
    std::string corrupt = bytes;
    auto [start, total] = blocks[rng.below(blocks.size() - 1)];  // skip EOF
    size_t pos = start + kBlockHeaderSize +
                 rng.below(total - kBlockHeaderSize);
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ (1 + rng.below(255)));
    std::string cpath = tmp.file("c" + std::to_string(trial) + ".bgzf");
    write_file(cpath, corrupt);
    auto [seq_msg, par_msg] = drain_errors(cpath, GetParam());
    EXPECT_FALSE(seq_msg.empty()) << "trial " << trial << " flip at " << pos;
    EXPECT_EQ(par_msg, seq_msg) << "trial " << trial << " flip at " << pos;
  }
}

TEST_P(DecodeThreads, ErrorIsStickyAcrossReads) {
  TempDir tmp;
  std::string path = write_bgzf(tmp, "t.bgzf", random_payload(1 << 19, 81),
                                82);
  std::string bytes = read_file(path);
  write_file(path, bytes.substr(0, bytes.size() - 40));  // truncate

  ParallelReader par(path, GetParam());
  EXPECT_THROW((void)drain(par), FormatError);
  char c;
  EXPECT_THROW((void)par.read(&c, 1), FormatError);  // still failed
  EXPECT_THROW((void)par.eof(), FormatError);
}

TEST_P(DecodeThreads, MissingEofMarkerReadsLikeSequential) {
  // The sequential reader does not require the EOF marker; the parallel
  // reader must not either.
  TempDir tmp;
  std::string payload = random_payload(300000, 91);
  std::string path = write_bgzf(tmp, "t.bgzf", payload, 92);
  std::string bytes = read_file(path);
  ASSERT_EQ(std::string_view(bytes).substr(bytes.size() - 28),
            eof_marker());
  write_file(path, bytes.substr(0, bytes.size() - 28));

  ParallelReader par(path, GetParam());
  Reader seq(path);
  EXPECT_EQ(drain(par), payload);
  EXPECT_EQ(drain(seq), payload);
  EXPECT_EQ(par.tell(), seq.tell());
}

TEST_P(DecodeThreads, DestructionMidStreamDoesNotHang) {
  // Abandoning a reader with most of the file unread must cancel the
  // pipeline promptly (a stalled committer would deadlock the dtor).
  TempDir tmp;
  std::string path = write_bgzf(tmp, "t.bgzf", random_payload(4 << 20, 95),
                                96);
  for (int i = 0; i < 8; ++i) {
    ParallelReader par(path, GetParam(), /*readahead_blocks=*/2);
    char buf[100];
    (void)par.read(buf, sizeof(buf));
  }
}

TEST_P(DecodeThreads, SmallReadaheadWindowStillExact) {
  // Every window depth and read size delivers exactly the payload: no
  // byte lost or repeated at a window boundary.
  TempDir tmp;
  std::string payload = random_payload(1 << 20, 97);
  std::string path = write_bgzf(tmp, "t.bgzf", payload, 98);
  for (size_t readahead : {1, 4, 128}) {
    for (size_t chunk : {8192, 1 << 16}) {
      ParallelReader par(path, GetParam(), readahead);
      EXPECT_EQ(drain(par, chunk), payload)
          << "readahead " << readahead << ", chunk " << chunk;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, DecodeThreads, ::testing::Values(1, 2, 8));

TEST(ParallelReaderEdge, EmptyFileOnlyEofMarker) {
  TempDir tmp;
  std::string path = tmp.file("e.bgzf");
  {
    Writer w(path);
    w.close();
  }
  ParallelReader par(path, 2);
  char c;
  EXPECT_EQ(par.read(&c, 1), 0u);
  EXPECT_TRUE(par.eof());
  Reader seq(path);
  EXPECT_EQ(seq.read(&c, 1), 0u);
  EXPECT_EQ(par.tell(), seq.tell());
}

TEST(ParallelReaderEdge, ZeroByteFile) {
  TempDir tmp;
  std::string path = tmp.file("z.bgzf");
  write_file(path, "");
  ParallelReader par(path, 2);
  char c;
  EXPECT_EQ(par.read(&c, 1), 0u);
  EXPECT_TRUE(par.eof());
}

TEST(ParallelReaderEdge, ResolveDecodeThreads) {
  EXPECT_THROW(resolve_decode_threads(-1), UsageError);
  EXPECT_GE(resolve_decode_threads(0), 1);  // auto = hardware width
  EXPECT_EQ(resolve_decode_threads(3), 3);
}

TEST(ParallelReaderEdge, OpenReaderFactory) {
  TempDir tmp;
  std::string payload = random_payload(100000, 99);
  std::string path = write_bgzf(tmp, "t.bgzf", payload, 100);

  EXPECT_THROW(open_reader(path, -2), UsageError);
  // <= 1 resolves to the sequential reader; > 1 to the parallel one.
  auto seq = open_reader(path, 1);
  EXPECT_EQ(dynamic_cast<ParallelReader*>(seq.get()), nullptr);
  auto par = open_reader(path, 4);
  EXPECT_NE(dynamic_cast<ParallelReader*>(par.get()), nullptr);
  EXPECT_EQ(drain(*seq), payload);
  EXPECT_EQ(drain(*par), payload);
}

// ------------------------------------------------------------ shared pool

/// Threads of this process, from /proc/self/task.
size_t thread_count() {
  size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

/// Reads `in` with a width-`width` ParallelReader, cuts it into 10 kB
/// items on an ordered_pipeline of that width, and writes the items back
/// through a width-`width` ParallelWriter fed from the pipeline's sink:
/// three windows nested on the process pool.
void recompress(const std::string& in, const std::string& out, int width) {
  ParallelReader reader(in, width, /*readahead_blocks=*/4);
  ParallelWriter writer(out, width, /*level=*/1);
  exec::PipelineOptions opt;
  opt.workers = width;
  exec::ordered_pipeline<std::string, std::string>(
      exec::process_pool(),
      [&reader](std::string& item) {
        item.resize(10000);
        item.resize(reader.read(item.data(), item.size()));
        return !item.empty();
      },
      [](std::string&& item, uint64_t) { return std::move(item); },
      [&writer](std::string&& item, uint64_t) { writer.write(item); }, opt);
  writer.close();
}

TEST(SharedPool, NestedWindowsFinishAtWidthOneAndHardwareWidth) {
  TempDir tmp;
  std::string payload = random_payload(3 << 20, 201);
  std::string in = write_bgzf(tmp, "in.bgzf", payload, 202);
  const int hardware = exec::hardware_threads();
  for (int width : {1, hardware}) {
    SCOPED_TRACE("width " + std::to_string(width));
    // From a thread outside the pool...
    recompress(in, tmp.file("caller.bgzf"), width);
    Reader check(tmp.file("caller.bgzf"));
    EXPECT_EQ(drain(check), payload);
    // ...and from one task per pool worker, so every worker is itself a
    // window caller and must run the inner tasks while it waits.
    exec::TaskGroup group(exec::process_pool());
    for (int k = 0; k < exec::process_pool().size(); ++k) {
      group.spawn([&, k] {
        recompress(in, tmp.file("task" + std::to_string(k) + ".bgzf"),
                   width);
      });
    }
    group.wait();
    for (int k = 0; k < exec::process_pool().size(); ++k) {
      Reader r(tmp.file("task" + std::to_string(k) + ".bgzf"));
      EXPECT_EQ(drain(r), payload) << "task " << k;
    }
  }
}

TEST(SharedPool, OpenCloseCyclesStartNoThreads) {
  TempDir tmp;
  std::string payload = random_payload(300000, 203);
  std::string in = write_bgzf(tmp, "in.bgzf", payload, 204);
  size_t after_first = 0;
  for (int cycle = 0; cycle < 200; ++cycle) {
    {
      ParallelReader reader(in, 4);
      char buf[4096];
      (void)reader.read(buf, sizeof(buf));  // abandoned mid-stream
      ParallelWriter writer(tmp.file("out.bgzf"), 4, /*level=*/1);
      writer.write(payload);
      writer.close();
    }
    if (cycle == 0) {
      after_first = thread_count();
    } else {
      ASSERT_EQ(thread_count(), after_first) << "cycle " << cycle;
    }
  }
}

TEST(SharedPool, ForkedRanksBuildTheirOwnPool) {
  // The parent uses the pool first; each forked rank must then compress
  // on a pool of its own (the parent's workers do not exist in a child).
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "ThreadSanitizer cannot follow threads started after a "
                  "multi-threaded fork";
#endif
  TempDir tmp;
  std::string payload = random_payload(1 << 20, 205);
  {
    ParallelWriter parent(tmp.file("parent.bgzf"), 4);
    parent.write(payload);
    parent.close();
  }
  ::setenv("NGSX_MPI_TRANSPORT", "shm", 1);
  try {
    mpi::run(3, [&](mpi::Comm& comm) {
      ParallelWriter w(tmp.file("rank" + std::to_string(comm.rank()) +
                                ".bgzf"),
                       4);
      w.write(payload);
      w.close();
      comm.barrier();
    });
  } catch (...) {
    ::unsetenv("NGSX_MPI_TRANSPORT");
    throw;
  }
  ::unsetenv("NGSX_MPI_TRANSPORT");
  const std::string expected = read_file(tmp.file("parent.bgzf"));
  for (int rank = 0; rank < 3; ++rank) {
    EXPECT_EQ(read_file(tmp.file("rank" + std::to_string(rank) + ".bgzf")),
              expected)
        << "rank " << rank;
  }
}

}  // namespace
}  // namespace ngsx::bgzf
