// Versioned binary archive for simulator checkpoints (snapshot/restore).
//
// The service core's determinism contract ("a run checkpointed at frame k
// and resumed equals an uninterrupted run") needs a STABLE serialized form:
// fixed-width little-endian integers and doubles written as their IEEE-754
// bit patterns, so a snapshot taken on one toolchain restores bit-exactly on
// another.  No floating-point text round-trips, no host-endianness leaks.
//
// Each checkpointed type names its archive fields once, in archive order, in
// one field function
//
//   template <typename Self, typename Archive>
//   static void fields(Self& self, Archive& ar);
//
// which save() walks with a BinaryWriter (Self const) and load() with a
// BinaryReader.  Both archives speak the same vocabulary:
//
//   field(x)   a scalar at its own type's width (bool as one byte, double as
//              its bit pattern), a string behind a u64 length, a nested type
//              through its save()/load(), or a std::vector as a lane of fixed
//              shape: a u64 length the reader takes only at the
//              destination's length, then the elements;
//   vec(s)     a vector or deque of scalars of any length behind a u64
//              length (raw bytes in one copy);
//   expect(x)  a fingerprint or shape field: the writer writes x, the reader
//              reads one and refuses the archive unless it equals x;
//   check(p)   a refusal rule: the reader refuses unless p() holds for what
//              it has read (the writer never calls p);
//   blame(w)   names the first failing section for an error message.
//
// Archive::kLoads tells a field function which side it runs on, for the few
// fields whose archive form is not their member's (an enum, a narrowed
// index).  Adding a checkpointed field is one line in its type's function.
//
// BinaryReader fails SOFT: reads past the end (or a size prefix larger than
// the remaining payload) clear ok() instead of touching out-of-range memory,
// so a truncated or corrupted snapshot is a recoverable `restore() ==
// false`, never UB.  Every archive starts with a magic + version header
// (expect()ed on load) and ends with seal()'s crc32() footer, which unseal()
// checks, so a bit-flipped archive is refused by checksum before any field
// is parsed.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
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
  static constexpr bool kLoads = false;

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

  // --- The field vocabulary (see the file comment) -------------------------
  template <typename T>
  void field(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      boolean(v);
    } else if constexpr (std::is_same_v<T, double>) {
      f64(v);
    } else if constexpr (std::is_integral_v<T>) {
      append_le(static_cast<std::make_unsigned_t<T>>(v));
    } else {
      v.save(*this);
    }
  }
  void field(const std::string& s) { str(s); }
  template <typename T>
  void field(const std::vector<T>& lane) { vec(lane); }
  template <typename Seq>
  void vec(const Seq& s) {
    u64(s.size());
    if constexpr (std::is_same_v<Seq, std::vector<std::uint8_t>>) {
      bytes_.insert(bytes_.end(), s.begin(), s.end());  // raw bytes in one copy
    } else {
      for (const auto& x : s) field(x);
    }
  }
  template <typename T>
  void expect(const T& v) { field(v); }
  template <typename Pred>
  void check(Pred&&) {}
  template <typename Why>
  void blame(Why&&) {}

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
  static constexpr bool kLoads = true;

  BinaryReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit BinaryReader(const std::vector<std::uint8_t>& bytes)
      : BinaryReader(bytes.data(), bytes.size()) {}

  /// False once any read ran past the end, a size prefix was implausible,
  /// or an expect() or check() refused.  Callers check once at the end of
  /// a load: every read after a failure leaves its destination as it was
  /// (vec() empties it) and the getters return zeros/empties.
  bool ok() const { return ok_; }
  /// True when the whole payload was consumed (trailing garbage detector).
  bool at_end() const { return pos_ == size_; }
  /// What the first blame() after the failure named; empty if none did.
  const std::string& failure() const { return failure_; }

  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  std::int64_t i64() { return get<std::int64_t>(); }
  bool boolean() { return get<bool>(); }
  std::string str() { return get<std::string>(); }

  // --- The field vocabulary (see the file comment) -------------------------
  template <typename T>
  void field(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      if (take(1)) v = data_[pos_ - 1] != 0;
    } else if constexpr (std::is_same_v<T, double>) {
      std::uint64_t bits;
      if (read_le(bits)) std::memcpy(&v, &bits, sizeof(v));
    } else if constexpr (std::is_integral_v<T>) {
      std::make_unsigned_t<T> u;
      if (read_le(u)) v = static_cast<T>(u);
    } else {
      if (ok_ && !v.load(*this)) ok_ = false;
    }
  }
  void field(std::string& s) {
    const std::size_t n = seq(1);
    if (take(n)) s.assign(reinterpret_cast<const char*>(data_ + pos_ - n), n);
  }
  template <typename T>
  void field(std::vector<T>& lane) { sized_vec(lane); }
  /// Reads what BinaryWriter::vec() wrote, at any length the payload can
  /// hold; hands back nothing on failure, never a partial sequence.
  template <typename Seq>
  void vec(Seq& s) {
    using T = typename Seq::value_type;
    s.clear();
    const std::size_t n = seq(sizeof(T));
    if constexpr (std::is_same_v<Seq, std::vector<std::uint8_t>>) {
      if (take(n)) s.assign(data_ + pos_ - n, data_ + pos_);
    } else {
      for (std::size_t i = 0; i < n && ok_; ++i) s.push_back(get<T>());
    }
  }
  template <typename T>
  void expect(const T& v) {
    T got = v;
    field(got);
    if (ok_ && !(got == v)) ok_ = false;
  }
  template <typename Pred>
  void check(Pred&& holds) { if (ok_ && !holds()) ok_ = false; }
  /// After a failure, names it (a string, or a callable that makes one)
  /// unless an earlier blame() already did: placed after each section of a
  /// layout, it attributes the failure to the first section that failed.
  template <typename Why>
  void blame(Why&& why) {
    if (ok_ || !failure_.empty()) return;
    if constexpr (std::is_invocable_v<Why>) {
      failure_ = why();
    } else {
      failure_ = why;
    }
  }

  /// A lane of fixed shape: reads what field(vector) wrote into `v` only
  /// when its length prefix equals v.size().  Otherwise, or on a short
  /// read, returns false with ok() cleared and `v` unchanged.
  template <typename T>
  bool sized_vec(std::vector<T>& v) {
    return sized_vec(v, [this](T& x) {
      field(x);
      return true;
    });
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

  /// Loads `obj` through its field function into a copy and takes the copy
  /// only when every read and check passed, so a refused load leaves `obj`
  /// as it was.
  template <typename T>
  bool load_whole(T& obj, void (*fields)(T&, BinaryReader&)) {
    T next = obj;
    fields(next, *this);
    if (!ok_) return false;
    obj = std::move(next);
    return true;
  }

 private:
  template <typename T>
  T get() {
    T v{};
    field(v);
    return v;
  }
  template <typename U>
  bool read_le(U& out) {
    if (!take(sizeof(U))) return false;
    U v = 0;
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      v |= static_cast<U>(data_[pos_ - sizeof(U) + i]) << (8 * i);
    }
    out = v;
    return true;
  }

  /// Size prefix of a sequence; 0 (with ok() cleared) when the prefix can't
  /// fit in the remaining payload at `min_elem_bytes` each.
  std::size_t seq(std::size_t min_elem_bytes) {
    const std::uint64_t n = u64();
    // Divide instead of multiply: a hostile size prefix must not overflow.
    if (!ok_ || n > (size_ - pos_) / min_elem_bytes) {
      ok_ = false;
      return 0;
    }
    return static_cast<std::size_t>(n);
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
  std::string failure_;
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
