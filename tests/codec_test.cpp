// Tests for the pluggable BGZF raw-deflate backend (formats/bgzf_codec.h)
// and the bgzf::crc32 seam. The byte-identity contract under test: with
// the default (zlib) deflate backend, every BGZF block written through the
// codec seam is bit-for-bit what the pre-seam code produced; the libdeflate
// backend (when its shared library is loadable) produces different but
// spec-valid blocks that the default reader decodes to the same payload.

#include <gtest/gtest.h>
#include <zlib.h>

#include <cstdlib>
#include <string>

#include "formats/bgzf.h"
#include "formats/bgzf_codec.h"
#include "util/rng.h"

namespace ngsx::bgzf {
namespace {

std::string random_payload(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::string s(n, '\0');
  for (char& c : s) {
    // Mildly compressible: skewed alphabet.
    c = static_cast<char>('A' + rng.below(8));
  }
  return s;
}

/// Clears NGSX_BGZF_BACKEND for the scope of a test and restores it.
class EnvGuard {
 public:
  explicit EnvGuard(const char* value) {
    const char* old = std::getenv("NGSX_BGZF_BACKEND");
    had_old_ = old != nullptr;
    if (had_old_) {
      old_ = old;
    }
    if (value == nullptr) {
      unsetenv("NGSX_BGZF_BACKEND");
    } else {
      setenv("NGSX_BGZF_BACKEND", value, 1);
    }
  }
  ~EnvGuard() {
    if (had_old_) {
      setenv("NGSX_BGZF_BACKEND", old_.c_str(), 1);
    } else {
      unsetenv("NGSX_BGZF_BACKEND");
    }
  }

 private:
  bool had_old_;
  std::string old_;
};

TEST(BgzfCrc32, MatchesZlib) {
  std::string data = random_payload(100000, 42);
  for (size_t n : {0ul, 1ul, 17ul, 64ul, 4096ul, data.size()}) {
    uint32_t want = static_cast<uint32_t>(
        ::crc32(::crc32(0L, Z_NULL, 0),
                reinterpret_cast<const Bytef*>(data.data()),
                static_cast<uInt>(n)));
    EXPECT_EQ(crc32(0, data.data(), n), want) << n;
  }
  // Incremental chaining.
  uint32_t a = crc32(0, data.data(), 1000);
  uint32_t b = crc32(a, data.data() + 1000, data.size() - 1000);
  EXPECT_EQ(b, crc32(0, data.data(), data.size()));
}

TEST(BgzfCodec, BackendResolution) {
  EnvGuard guard(nullptr);
  EXPECT_EQ(resolve_backend(Backend::kZlib), Backend::kZlib);
  EXPECT_EQ(resolve_backend(Backend::kAuto), Backend::kZlib);
  EXPECT_TRUE(backend_available(Backend::kZlib));
  EXPECT_TRUE(backend_available(Backend::kAuto));
  EXPECT_STREQ(backend_name(Backend::kZlib), "zlib");
  EXPECT_STREQ(backend_name(Backend::kLibdeflate), "libdeflate");
  if (backend_available(Backend::kLibdeflate)) {
    EXPECT_EQ(resolve_backend(Backend::kLibdeflate), Backend::kLibdeflate);
  } else {
    // Unavailable request degrades to zlib instead of failing.
    EXPECT_EQ(resolve_backend(Backend::kLibdeflate), Backend::kZlib);
  }
}

TEST(BgzfCodec, EnvSelectsBackend) {
  {
    EnvGuard guard("libdeflate");
    Backend want = backend_available(Backend::kLibdeflate)
                       ? Backend::kLibdeflate
                       : Backend::kZlib;
    EXPECT_EQ(resolve_backend(Backend::kAuto), want);
    auto codec = make_codec(Backend::kAuto);
    EXPECT_STREQ(codec->name(), backend_name(want));
  }
  {
    EnvGuard guard("zlib");
    EXPECT_EQ(resolve_backend(Backend::kAuto), Backend::kZlib);
  }
  {
    // Unknown value: fall back to the safe default.
    EnvGuard guard("banana");
    EXPECT_EQ(resolve_backend(Backend::kAuto), Backend::kZlib);
  }
}

TEST(BgzfCodec, DefaultSplitsByDirection) {
  // Inflation is byte-identical on every backend, so its default prefers
  // libdeflate; deflate stays on zlib so written bytes never change. The
  // env var forces both directions; an unknown value leaves the defaults.
  const char* fast = backend_available(Backend::kLibdeflate) ? "libdeflate"
                                                             : "zlib";
  for (const char* env : {static_cast<const char*>(nullptr), "banana"}) {
    EnvGuard guard(env);
    EXPECT_STREQ(Inflater().backend(), fast);
    EXPECT_STREQ(Deflater().backend(), "zlib");
    EXPECT_STREQ(backend_name(resolve_inflate_backend(Backend::kAuto)), fast);
    EXPECT_EQ(resolve_backend(Backend::kAuto), Backend::kZlib);
  }
  {
    EnvGuard guard("zlib");
    EXPECT_STREQ(Inflater().backend(), "zlib");
    EXPECT_STREQ(Deflater().backend(), "zlib");
    // An explicit backend still beats the env var.
    EXPECT_STREQ(Inflater(Backend::kLibdeflate).backend(), fast);
  }
  {
    EnvGuard guard("libdeflate");
    EXPECT_STREQ(Inflater().backend(), fast);
    EXPECT_STREQ(Deflater().backend(), fast);
  }
}

TEST(BgzfCodec, ZlibRoundTripAndErrorPaths) {
  auto codec = make_codec(Backend::kZlib);
  ASSERT_STREQ(codec->name(), "zlib");
  std::string input = random_payload(50000, 7);
  std::string body;
  codec->deflate_raw(input, body, 6);
  ASSERT_FALSE(body.empty());
  ASSERT_LT(body.size(), input.size());  // skewed alphabet compresses

  std::string out(input.size(), '\0');
  EXPECT_TRUE(codec->inflate_raw(body, out.data(), out.size()));
  EXPECT_EQ(out, input);

  // Wrong expected size -> false, not a crash.
  std::string small(input.size() - 1, '\0');
  EXPECT_FALSE(codec->inflate_raw(body, small.data(), small.size()));

  // Corrupt stream -> false; the codec stays usable afterwards.
  std::string bad = body;
  bad[bad.size() / 2] ^= 0x5A;
  std::string out2(input.size(), '\0');
  (void)codec->inflate_raw(bad, out2.data(), out2.size());
  EXPECT_TRUE(codec->inflate_raw(body, out.data(), out.size()));
  EXPECT_EQ(out, input);

  // Level changes re-initialize transparently and still round-trip.
  codec->deflate_raw(input, body, 1);
  EXPECT_TRUE(codec->inflate_raw(body, out.data(), out.size()));
  EXPECT_EQ(out, input);
}

TEST(BgzfCodec, DeflaterOutputByteIdenticalToFreeFunction) {
  // The regression the seam must not introduce: Deflater-on-codec output
  // equals compress_block (both zlib), including after level switches.
  std::string input = random_payload(60000, 99);
  for (int level : {1, 6, 9}) {
    std::string a;
    compress_block(input, a, level);
    std::string b;
    Deflater d(level, Backend::kZlib);
    d.compress(input, b);
    EXPECT_EQ(a, b) << "level " << level;
  }
  // One Deflater switching levels matches fresh single-level runs.
  Deflater d(6, Backend::kZlib);
  std::string via_switch;
  d.compress(input, via_switch, 6);
  via_switch.clear();
  d.compress(input, via_switch, 1);
  std::string fresh;
  compress_block(input, fresh, 1);
  EXPECT_EQ(via_switch, fresh);
}

TEST(BgzfCodec, InflaterDecodesBothBackendsBlocks) {
  std::string input = random_payload(40000, 123);
  for (Backend backend : {Backend::kZlib, Backend::kLibdeflate}) {
    if (!backend_available(backend)) {
      GTEST_LOG_(INFO) << "skipping unavailable backend "
                       << backend_name(backend);
      continue;
    }
    std::string block;
    Deflater d(6, backend);
    d.compress(input, block);
    // The default Inflater must decode blocks from either backend.
    std::string out;
    Inflater inf;
    EXPECT_EQ(inf.decompress(block, out), input.size());
    EXPECT_EQ(out, input);
    // And an Inflater on the same backend as well.
    std::string out2;
    Inflater inf2(backend);
    EXPECT_EQ(std::string_view(inf2.backend()), backend_name(
        resolve_backend(backend)));
    EXPECT_EQ(inf2.decompress(block, out2), input.size());
    EXPECT_EQ(out2, input);
  }
}

TEST(BgzfCodec, LibdeflateRoundTripWhenAvailable) {
  if (!backend_available(Backend::kLibdeflate)) {
    GTEST_SKIP() << "libdeflate shared library not loadable";
  }
  auto codec = make_codec(Backend::kLibdeflate);
  ASSERT_STREQ(codec->name(), "libdeflate");
  std::string input = random_payload(50000, 5);
  std::string body;
  codec->deflate_raw(input, body, 6);
  ASSERT_FALSE(body.empty());
  std::string out(input.size(), '\0');
  EXPECT_TRUE(codec->inflate_raw(body, out.data(), out.size()));
  EXPECT_EQ(out, input);
  // Cross-backend: zlib inflates libdeflate's stream and vice versa.
  auto zlib = make_codec(Backend::kZlib);
  std::string out_z(input.size(), '\0');
  EXPECT_TRUE(zlib->inflate_raw(body, out_z.data(), out_z.size()));
  EXPECT_EQ(out_z, input);
  std::string zbody;
  zlib->deflate_raw(input, zbody, 6);
  std::string out_l(input.size(), '\0');
  EXPECT_TRUE(codec->inflate_raw(zbody, out_l.data(), out_l.size()));
  EXPECT_EQ(out_l, input);
  // Corrupt stream -> false.
  std::string bad = body;
  bad[bad.size() / 3] ^= 0x77;
  std::string out_bad(input.size(), '\0');
  (void)codec->inflate_raw(bad, out_bad.data(), out_bad.size());
  // Codec still usable.
  EXPECT_TRUE(codec->inflate_raw(body, out.data(), out.size()));
}

TEST(BgzfCodec, CorruptBlockErrorMessageUnchanged) {
  // Message parity with the pre-seam Inflater: corruption inside the
  // deflate body must still raise "BGZF inflate failed or ISIZE mismatch".
  std::string input = random_payload(30000, 55);
  std::string block;
  compress_block(input, block, 6);
  std::string bad = block;
  bad[kBlockHeaderSize + 10] ^= 0x3C;  // inside the compressed body
  Inflater inf;
  std::string out;
  try {
    inf.decompress(bad, out, /*coffset=*/1234);
    // CRC mismatch is also acceptable only if inflate happened to succeed;
    // with a corrupted body one of the two must throw.
    FAIL() << "corrupt block did not throw";
  } catch (const FormatError& e) {
    std::string msg = e.what();
    EXPECT_TRUE(msg.find("BGZF inflate failed or ISIZE mismatch") !=
                    std::string::npos ||
                msg.find("BGZF CRC mismatch") != std::string::npos)
        << msg;
    EXPECT_NE(msg.find("at compressed offset 1234"), std::string::npos)
        << msg;
  }
}

}  // namespace
}  // namespace ngsx::bgzf
