// Versioned binary archive for simulator checkpoints (snapshot/restore).
//
// The service core's determinism contract ("a run checkpointed at frame k
// and resumed equals an uninterrupted run") needs a STABLE serialized form:
// fixed-width little-endian integers and doubles written as their IEEE-754
// bit patterns, so a snapshot taken on one toolchain restores bit-exactly on
// another.  No floating-point text round-trips, no host-endianness leaks.
//
// BinaryReader fails SOFT: reads past the end (or a size prefix larger than
// the remaining payload) clear ok() and return zeros/empties instead of
// touching out-of-range memory, so a truncated or corrupted snapshot is a
// recoverable `restore() == false`, never UB.  Writers and readers must
// agree on field order; every archive starts with a caller-checked magic +
// version header and ends with seal()'s crc32() footer, which unseal()
// checks, so a bit-flipped archive is refused by checksum before any field
// is parsed.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace wcdma::common {

namespace detail {
/// Slicing-by-8 tables for the reflected polynomial 0xEDB88320.  Row 0 is
/// the classic bytewise table; row k maps a byte to its CRC after k more
/// zero bytes, so eight lookups advance the register by eight input bytes.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc32_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][n] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t n = 0; n < 256; ++n) {
      t[k][n] = (t[k - 1][n] >> 8) ^ t[0][t[k - 1][n] & 0xFFu];
    }
  }
  return t;
}
inline constexpr std::array<std::array<std::uint32_t, 256>, 8> kCrc32Tables =
    make_crc32_tables();

inline std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}
}  // namespace detail

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) over `size` bytes.
/// Chainable: pass a previous return value as `seed` to extend a running
/// checksum.  Archives append crc32(payload) as a little-endian u32 footer so
/// corruption (bit-flips as well as truncation) is detected by checksum
/// rather than parse luck.  Takes eight bytes per step (slicing-by-8) and
/// the tail bytewise; the result equals the bytewise CRC for every input.
inline std::uint32_t crc32(const std::uint8_t* data, std::size_t size,
                           std::uint32_t seed = 0) {
  const auto& t = detail::kCrc32Tables;
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    const std::uint32_t lo = c ^ detail::load_le32(data + i);
    const std::uint32_t hi = detail::load_le32(data + i + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; i < size; ++i) {
    c = t[0][(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

inline std::uint32_t crc32(const std::vector<std::uint8_t>& bytes,
                           std::uint32_t seed = 0) {
  return crc32(bytes.data(), bytes.size(), seed);
}

class BinaryWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u32(std::uint32_t v) { append_le(v); }
  void u64(std::uint64_t v) { append_le(v); }
  void i32(std::int32_t v) { append_le(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { append_le(static_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// IEEE-754 bit pattern, never a decimal round-trip.
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }
  /// Length-prefixed raw bytes in one copy; the layout of a u64 count
  /// followed by that many u8() fields.
  void blob(const std::vector<std::uint8_t>& b) {
    u64(b.size());
    bytes_.insert(bytes_.end(), b.begin(), b.end());
  }

  void vec_f64(const std::vector<double>& v) {
    u64(v.size());
    for (double x : v) f64(x);
  }
  void vec_u32(const std::vector<std::uint32_t>& v) {
    u64(v.size());
    for (std::uint32_t x : v) u32(x);
  }
  void vec_u64(const std::vector<std::uint64_t>& v) {
    u64(v.size());
    for (std::uint64_t x : v) u64(x);
  }
  void vec_i32(const std::vector<int>& v) {
    u64(v.size());
    for (int x : v) i32(x);
  }
  void vec_i64(const std::vector<std::int64_t>& v) {
    u64(v.size());
    for (std::int64_t x : v) i64(x);
  }

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  template <typename T>
  void append_le(T v) {
    std::uint8_t le[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      le[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    bytes_.insert(bytes_.end(), le, le + sizeof(T));
  }

  std::vector<std::uint8_t> bytes_;
};

class BinaryReader {
 public:
  BinaryReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit BinaryReader(const std::vector<std::uint8_t>& bytes)
      : BinaryReader(bytes.data(), bytes.size()) {}

  /// False once any read ran past the end or a size prefix was implausible.
  /// Callers check once at the end of a load; intermediate reads after a
  /// failure keep returning zeros/empties.
  bool ok() const { return ok_; }
  /// True when the whole payload was consumed (trailing garbage detector).
  bool at_end() const { return pos_ == size_; }

  std::uint8_t u8() {
    if (!take(1)) return 0;
    return data_[pos_ - 1];
  }
  std::uint32_t u32() { return read_le<std::uint32_t>(); }
  std::uint64_t u64() { return read_le<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(read_le<std::uint32_t>()); }
  std::int64_t i64() { return static_cast<std::int64_t>(read_le<std::uint64_t>()); }
  bool boolean() { return u8() != 0; }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string str() {
    const std::uint64_t n = u64();
    if (!plausible(n, 1) || !take(static_cast<std::size_t>(n))) return {};
    return std::string(reinterpret_cast<const char*>(data_ + pos_ - n),
                       static_cast<std::size_t>(n));
  }
  /// Reads what BinaryWriter::blob() wrote, in one copy; empty on failure.
  void blob(std::vector<std::uint8_t>& out) {
    const std::size_t n = seq(1);
    out.clear();
    if (take(n)) out.assign(data_ + pos_ - n, data_ + pos_);
  }

  void vec_f64(std::vector<double>& v) { read_vec(v, sizeof(double), [this] { return f64(); }); }
  void vec_u32(std::vector<std::uint32_t>& v) { read_vec(v, 4, [this] { return u32(); }); }
  void vec_u64(std::vector<std::uint64_t>& v) { read_vec(v, 8, [this] { return u64(); }); }
  void vec_i32(std::vector<int>& v) { read_vec(v, 4, [this] { return i32(); }); }
  void vec_i64(std::vector<std::int64_t>& v) { read_vec(v, 8, [this] { return i64(); }); }

  /// A lane of fixed shape: reads what the matching vec_*() wrote into `v`
  /// only when its length prefix equals v.size().  Otherwise, or on a short
  /// read, returns false with ok() cleared and `v` unchanged.
  bool sized_vec(std::vector<double>& v) {
    return sized_vec(v, [this](double& x) { x = f64(); return true; });
  }
  bool sized_vec(std::vector<int>& v) {
    return sized_vec(v, [this](int& x) { x = i32(); return true; });
  }
  bool sized_vec(std::vector<std::int64_t>& v) {
    return sized_vec(v, [this](std::int64_t& x) { x = i64(); return true; });
  }
  /// The same for elements the caller decodes: `read(x)` fills one element
  /// and returns false to refuse it, which fails the whole lane.
  template <typename T, typename Read>
  bool sized_vec(std::vector<T>& v, Read read) {
    if (u64() != v.size()) ok_ = false;
    if (!ok_) return false;
    std::vector<T> lane = v;
    for (T& x : lane) {
      if (!read(x)) ok_ = false;
      if (!ok_) return false;
    }
    v = std::move(lane);
    return true;
  }

  /// Size prefix for caller-decoded sequences; 0 (with ok() cleared) when
  /// the prefix can't fit in the remaining payload at `min_elem_bytes` each.
  std::size_t seq(std::size_t min_elem_bytes) {
    const std::uint64_t n = u64();
    if (!plausible(n, min_elem_bytes)) return 0;
    return static_cast<std::size_t>(n);
  }

 private:
  template <typename T>
  T read_le() {
    if (!take(sizeof(T))) return 0;
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(data_[pos_ - sizeof(T) + i]) << (8 * i);
    }
    return v;
  }

  template <typename V, typename Fn>
  void read_vec(V& v, std::size_t elem_bytes, Fn next) {
    const std::size_t n = seq(elem_bytes);
    v.clear();
    v.reserve(n);
    for (std::size_t i = 0; i < n && ok_; ++i) v.push_back(next());
  }

  bool plausible(std::uint64_t n, std::size_t elem_bytes) {
    // Divide instead of multiply: a hostile size prefix must not overflow.
    if (!ok_ || n > (size_ - pos_) / elem_bytes) {
      ok_ = false;
      return false;
    }
    return true;
  }
  bool take(std::size_t n) {
    if (!ok_ || size_ - pos_ < n) {
      ok_ = false;
      return false;
    }
    pos_ += n;
    return true;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Bytes of the crc32 footer seal() appends.
inline constexpr std::size_t kSealBytes = 4;

/// Closes an archive: appends crc32 of everything written so far as a
/// little-endian u32 footer.
inline void seal(BinaryWriter& w) { w.u32(crc32(w.bytes())); }

/// Opens a seal()ed archive: true, with `*payload` reading every byte
/// before the footer, when `bytes` ends in the crc32 of the rest.  False,
/// leaving `*payload` alone, on a mismatch or when `bytes` is too short to
/// hold a footer after a non-empty payload.
inline bool unseal(const std::vector<std::uint8_t>& bytes, BinaryReader* payload) {
  if (bytes.size() <= kSealBytes) return false;
  const std::size_t size = bytes.size() - kSealBytes;
  if (crc32(bytes.data(), size) != detail::load_le32(bytes.data() + size)) return false;
  *payload = BinaryReader(bytes.data(), size);
  return true;
}

}  // namespace wcdma::common
