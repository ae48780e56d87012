#include "formats/bgzf_codec.h"

#include <zlib.h>

#include <cstdlib>

#include "util/common.h"

#ifndef NGSX_NO_LIBDEFLATE
#include <dlfcn.h>
#endif

namespace ngsx::bgzf {

namespace {

[[noreturn]] void zlib_error(const char* op, int code) {
  throw FormatError(std::string("zlib ") + op + " failed with code " +
                    std::to_string(code));
}

// ------------------------------------------------------------------- zlib

/// Raw-deflate via zlib with the exact stream parameters the pre-seam
/// Deflater/Inflater used (windowBits=-15, memLevel=8), so compressed
/// output is byte-identical. Streams are created lazily per direction and
/// recycled with deflateReset/inflateReset; a level change pays a full
/// deflate reinit (rare).
class ZlibCodec final : public Codec {
 public:
  ~ZlibCodec() override {
    if (have_deflate_) {
      deflateEnd(&dzs_);
    }
    if (have_inflate_) {
      inflateEnd(&izs_);
    }
  }

  const char* name() const override { return "zlib"; }

  void deflate_raw(std::string_view input, std::string& body,
                   int level) override {
    int rc;
    if (!have_deflate_ || level != level_) {
      if (have_deflate_) {
        deflateEnd(&dzs_);
      }
      dzs_ = z_stream{};
      rc = deflateInit2(&dzs_, level, Z_DEFLATED, /*windowBits=*/-15,
                        /*memLevel=*/8, Z_DEFAULT_STRATEGY);
      if (rc != Z_OK) {
        zlib_error("deflateInit2", rc);
      }
      have_deflate_ = true;
      level_ = level;
    } else {
      rc = deflateReset(&dzs_);
      if (rc != Z_OK) {
        zlib_error("deflateReset", rc);
      }
    }
    size_t bound = deflateBound(&dzs_, input.size());
    body.resize(bound);
    dzs_.next_in =
        reinterpret_cast<Bytef*>(const_cast<char*>(input.data()));
    dzs_.avail_in = static_cast<uInt>(input.size());
    dzs_.next_out = reinterpret_cast<Bytef*>(body.data());
    dzs_.avail_out = static_cast<uInt>(body.size());
    rc = deflate(&dzs_, Z_FINISH);
    if (rc != Z_STREAM_END) {
      zlib_error("deflate", rc);
    }
    body.resize(dzs_.total_out);
  }

  bool inflate_raw(std::string_view input, char* out,
                   size_t out_size) override {
    int rc;
    if (!have_inflate_) {
      izs_ = z_stream{};
      rc = inflateInit2(&izs_, /*windowBits=*/-15);
      if (rc != Z_OK) {
        zlib_error("inflateInit2", rc);
      }
      have_inflate_ = true;
    } else {
      // inflateReset also recovers the stream after a prior data error,
      // so a long-lived codec stays usable when a caller survives a bad
      // block.
      rc = inflateReset(&izs_);
      if (rc != Z_OK) {
        zlib_error("inflateReset", rc);
      }
    }
    izs_.next_in =
        reinterpret_cast<Bytef*>(const_cast<char*>(input.data()));
    izs_.avail_in = static_cast<uInt>(input.size());
    izs_.next_out = reinterpret_cast<Bytef*>(out);
    izs_.avail_out = static_cast<uInt>(out_size);
    rc = inflate(&izs_, Z_FINISH);
    return rc == Z_STREAM_END && izs_.total_out == out_size;
  }

 private:
  z_stream dzs_{};
  z_stream izs_{};
  bool have_deflate_ = false;
  bool have_inflate_ = false;
  int level_ = -1;
};

// -------------------------------------------------------------- libdeflate

#ifndef NGSX_NO_LIBDEFLATE

/// Minimal libdeflate v1 ABI surface, resolved with dlopen/dlsym so the
/// build needs no libdeflate headers or link-time dependency. These
/// signatures have been stable since libdeflate 1.0.
struct LibdeflateApi {
  void* (*alloc_compressor)(int level);
  size_t (*compress_bound)(void* c, size_t in_nbytes);
  size_t (*compress)(void* c, const void* in, size_t in_nbytes, void* out,
                     size_t out_nbytes_avail);
  void (*free_compressor)(void* c);
  void* (*alloc_decompressor)();
  int (*decompress)(void* d, const void* in, size_t in_nbytes, void* out,
                    size_t out_nbytes_avail, size_t* actual_out);
  void (*free_decompressor)(void* d);
};

const LibdeflateApi* libdeflate_api() {
  static const LibdeflateApi* api = []() -> const LibdeflateApi* {
    void* handle = dlopen("libdeflate.so.0", RTLD_NOW | RTLD_LOCAL);
    if (handle == nullptr) {
      handle = dlopen("libdeflate.so", RTLD_NOW | RTLD_LOCAL);
    }
    if (handle == nullptr) {
      return nullptr;
    }
    static LibdeflateApi a;
    auto sym = [handle](const char* name) {
      return dlsym(handle, name);
    };
    a.alloc_compressor = reinterpret_cast<void* (*)(int)>(
        sym("libdeflate_alloc_compressor"));
    a.compress_bound = reinterpret_cast<size_t (*)(void*, size_t)>(
        sym("libdeflate_deflate_compress_bound"));
    a.compress =
        reinterpret_cast<size_t (*)(void*, const void*, size_t, void*,
                                    size_t)>(
            sym("libdeflate_deflate_compress"));
    a.free_compressor = reinterpret_cast<void (*)(void*)>(
        sym("libdeflate_free_compressor"));
    a.alloc_decompressor = reinterpret_cast<void* (*)()>(
        sym("libdeflate_alloc_decompressor"));
    a.decompress =
        reinterpret_cast<int (*)(void*, const void*, size_t, void*, size_t,
                                 size_t*)>(
            sym("libdeflate_deflate_decompress"));
    a.free_decompressor = reinterpret_cast<void (*)(void*)>(
        sym("libdeflate_free_decompressor"));
    if (a.alloc_compressor == nullptr || a.compress_bound == nullptr ||
        a.compress == nullptr || a.free_compressor == nullptr ||
        a.alloc_decompressor == nullptr || a.decompress == nullptr ||
        a.free_decompressor == nullptr) {
      dlclose(handle);
      return nullptr;
    }
    return &a;  // handle intentionally stays loaded for process lifetime
  }();
  return api;
}

class LibdeflateCodec final : public Codec {
 public:
  explicit LibdeflateCodec(const LibdeflateApi* api) : api_(api) {}

  ~LibdeflateCodec() override {
    if (compressor_ != nullptr) {
      api_->free_compressor(compressor_);
    }
    if (decompressor_ != nullptr) {
      api_->free_decompressor(decompressor_);
    }
  }

  const char* name() const override { return "libdeflate"; }

  void deflate_raw(std::string_view input, std::string& body,
                   int level) override {
    if (compressor_ == nullptr || level != level_) {
      if (compressor_ != nullptr) {
        api_->free_compressor(compressor_);
      }
      // zlib levels 1-9 are a prefix of libdeflate's 0-12 scale.
      compressor_ = api_->alloc_compressor(level);
      if (compressor_ == nullptr) {
        throw FormatError("libdeflate compressor allocation failed");
      }
      level_ = level;
    }
    size_t bound = api_->compress_bound(compressor_, input.size());
    body.resize(bound);
    size_t got = api_->compress(compressor_, input.data(), input.size(),
                                body.data(), body.size());
    if (got == 0) {
      throw FormatError("libdeflate compression failed");
    }
    body.resize(got);
  }

  bool inflate_raw(std::string_view input, char* out,
                   size_t out_size) override {
    if (decompressor_ == nullptr) {
      decompressor_ = api_->alloc_decompressor();
      if (decompressor_ == nullptr) {
        throw FormatError("libdeflate decompressor allocation failed");
      }
    }
    size_t actual = 0;
    int rc = api_->decompress(decompressor_, input.data(), input.size(),
                              out, out_size, &actual);
    return rc == 0 /* LIBDEFLATE_SUCCESS */ && actual == out_size;
  }

 private:
  const LibdeflateApi* api_;
  void* compressor_ = nullptr;
  void* decompressor_ = nullptr;
  int level_ = -1;
};

#endif  // !NGSX_NO_LIBDEFLATE

bool libdeflate_loaded() {
#ifndef NGSX_NO_LIBDEFLATE
  return libdeflate_api() != nullptr;
#else
  return false;
#endif
}

/// kAuto resolved against NGSX_BGZF_BACKEND; `fallback` when the variable
/// is unset or names no backend. Then degrades an unavailable libdeflate.
Backend resolve(Backend backend, Backend fallback) {
  if (backend == Backend::kAuto) {
    const char* env = std::getenv("NGSX_BGZF_BACKEND");
    const std::string_view name = env != nullptr ? env : "";
    backend = name == "zlib"         ? Backend::kZlib
              : name == "libdeflate" ? Backend::kLibdeflate
                                     : fallback;
  }
  if (backend == Backend::kLibdeflate && !libdeflate_loaded()) {
    backend = Backend::kZlib;  // documented graceful degradation
  }
  return backend;
}

}  // namespace

bool backend_available(Backend backend) {
  switch (backend) {
    case Backend::kAuto:
    case Backend::kZlib:
      return true;
    case Backend::kLibdeflate:
      return libdeflate_loaded();
  }
  return false;
}

Backend resolve_backend(Backend backend) {
  return resolve(backend, Backend::kZlib);
}

Backend resolve_inflate_backend(Backend backend) {
  return resolve(backend, Backend::kLibdeflate);
}

const char* backend_name(Backend backend) {
  switch (backend) {
    case Backend::kAuto: return "auto";
    case Backend::kZlib: return "zlib";
    case Backend::kLibdeflate: return "libdeflate";
  }
  return "unknown";
}

std::unique_ptr<Codec> make_codec(Backend backend) {
  backend = resolve_backend(backend);
#ifndef NGSX_NO_LIBDEFLATE
  if (backend == Backend::kLibdeflate) {
    return std::make_unique<LibdeflateCodec>(libdeflate_api());
  }
#endif
  return std::make_unique<ZlibCodec>();
}

}  // namespace ngsx::bgzf
