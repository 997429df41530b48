#include "proto/codec.h"

#include <array>
#include <bit>
#include <concepts>
#include <limits>
#include <type_traits>
#include <utility>

#include "common/bytes.h"

namespace rrmp::proto {
namespace {

// Each frame's wire layout is written once, as a `fields` overload that
// names its fields in wire order through an IO. Three IOs walk the same
// list: Writer<ByteWriter> encodes, Writer<ByteCounter> sizes, Reader
// decodes. The message is `const T&` for the writers and `T&` for the
// reader, so one list serves both directions.

/// Counts the bytes a ByteWriter would append, without writing them.
struct ByteCounter {
  std::size_t n = 0;

  void put_u8(std::uint8_t) { n += 1; }
  void put_u32(std::uint32_t) { n += 4; }
  void put_u64(std::uint64_t) { n += 8; }
  void put_varint(std::uint64_t v) { n += (std::bit_width(v | 1) + 6) / 7; }
  void put_bytes(std::span<const std::uint8_t> b) {
    put_varint(b.size());
    n += b.size();
  }
};

template <class Sink>
struct Writer {
  Sink out;

  void flag(bool v) { out.put_u8(v ? 1 : 0); }
  void u32(std::uint32_t v) { out.put_u32(v); }
  void u64(std::uint64_t v) { out.put_u64(v); }
  void varint(std::uint64_t v) { out.put_varint(v); }
  void blob(const SharedBytes& b) { out.put_bytes(b.span()); }
  void require(bool) {}

  template <class V, class F>
  void repeated(const V& v, F each) {
    out.put_varint(v.size());
    for (const auto& e : v) each(*this, e);
  }
  // Optional trailing fields are written only when non-empty / nonzero, so
  // their absence keeps the byte layout from before they existed.
  template <class V, class F>
  void trailing_repeated(const V& v, F each) {
    if (!v.empty()) repeated(v, each);
  }
  void trailing_varint(std::uint64_t v) {
    if (v != 0) out.put_varint(v);
  }
};

/// Never reads out of bounds (ByteReader) and rejects, on top of
/// truncation: a repeated count above kMaxRepeated or above the bytes left
/// (every element takes at least one; both checked before any resize), a
/// varint above its field's type, a failed `require`, a present-but-empty
/// trailing field, and trailing garbage.
struct Reader {
  ByteReader in;
  bool valid = true;

  void flag(bool& v) { v = in.get_u8() != 0; }
  void u32(std::uint32_t& v) { v = in.get_u32(); }
  void u64(std::uint64_t& v) { v = in.get_u64(); }
  void varint(std::uint64_t& v) { v = in.get_varint(); }
  void varint(std::uint32_t& v) {  // a u32 field carried as a varint
    std::uint64_t wide = in.get_varint();
    require(wide <= std::numeric_limits<std::uint32_t>::max());
    v = static_cast<std::uint32_t>(wide);
  }
  void blob(SharedBytes& b) { b = in.get_shared_bytes(); }
  void require(bool cond) { valid = valid && cond; }
  bool ok() const { return valid && in.ok(); }

  template <class V, class F>
  void repeated(V& v, F each) {
    std::uint64_t n = in.get_varint();
    require(n <= kMaxRepeated && n <= in.remaining());
    if (!ok()) return;
    v.resize(n);
    for (auto& e : v) {
      each(*this, e);
      if (!ok()) return;
    }
  }
  // Present only when bytes remain; an encoder never emits an empty one.
  template <class V, class F>
  void trailing_repeated(V& v, F each) {
    if (in.done()) return;
    repeated(v, each);
    require(!v.empty());
  }
  void trailing_varint(std::uint64_t& v) {
    if (in.done()) return;
    varint(v);
    require(v != 0);
  }
};

template <class M, class T>
concept Is = std::same_as<std::remove_const_t<M>, T>;

void message_id(auto& io, Is<MessageId> auto& id) {
  io.u32(id.source);
  io.u64(id.seq);
}

// Piggybacked receive cursors, the optional trailing block on Data and
// Session and the body of CreditAck.
constexpr auto cursor = [](auto& io, auto& c) {
  io.u32(c.source);
  io.varint(c.cursor);
};

// Data without its trailing cursor block. Handoff and Shed nest this form:
// nested Data has no length prefix, so a trailing block cannot follow it.
constexpr auto data_core = [](auto& io, auto& d) {
  message_id(io, d.id);
  io.blob(d.payload);
};

void fields(auto& io, Is<Data> auto& m) {
  data_core(io, m);
  io.trailing_repeated(m.cursors, cursor);
}
void fields(auto& io, Is<Session> auto& m) {
  io.u32(m.source);
  io.u64(m.highest_seq);
  io.trailing_repeated(m.cursors, cursor);
}
void fields(auto& io, Is<LocalRequest> auto& m) {
  message_id(io, m.id);
  io.u32(m.requester);
}
void fields(auto& io, Is<RemoteRequest> auto& m) {
  message_id(io, m.id);
  io.u32(m.requester);
}
void fields(auto& io, Is<Repair> auto& m) {
  message_id(io, m.id);
  io.blob(m.payload);
  io.flag(m.remote);
}
void fields(auto& io, Is<RegionalRepair> auto& m) {
  message_id(io, m.id);
  io.blob(m.payload);
  io.u32(m.relayer);
}
void fields(auto& io, Is<SearchRequest> auto& m) {
  message_id(io, m.id);
  io.u32(m.remote_requester);
}
void fields(auto& io, Is<SearchFound> auto& m) {
  message_id(io, m.id);
  io.u32(m.holder);
}
void fields(auto& io, Is<Handoff> auto& m) {
  io.repeated(m.messages, data_core);
}
void fields(auto& io, Is<Gossip> auto& m) {
  io.u32(m.from);
  io.repeated(m.beats, [](auto& beat_io, auto& h) {
    beat_io.u32(h.member);
    beat_io.u64(h.counter);
  });
}
void fields(auto& io, Is<History> auto& m) {
  io.u32(m.member);
  io.repeated(m.sources, [](auto& src_io, auto& s) {
    src_io.u32(s.source);
    src_io.u64(s.next_expected);
    src_io.repeated(s.bitmap, [](auto& word_io, auto& w) { word_io.u64(w); });
  });
}
void fields(auto& io, Is<BufferDigest> auto& m) {
  io.u32(m.member);
  io.u64(m.bytes_in_use);
  io.varint(m.window_outstanding);
  io.repeated(m.ranges, [](auto& range_io, auto& r) {
    range_io.u32(r.source);
    range_io.u64(r.first_seq);
    range_io.varint(r.count);
    range_io.require(r.count != 0);  // a well-formed digest has no empty run
  });
  // Fault-injection connectivity generation; 0 (never partitioned) is absent.
  io.trailing_varint(m.view_gen);
}
void fields(auto& io, Is<Shed> auto& m) {
  io.u32(m.from);
  data_core(io, m.message);
}
void fields(auto& io, Is<CreditAck> auto& m) {
  io.u32(m.member);
  io.u64(m.bytes_in_use);
  io.u64(m.budget_bytes);
  io.repeated(m.cursors, cursor);
  io.trailing_varint(m.view_gen);
}
void fields(auto& io, Is<Escalate> auto& m) {
  message_id(io, m.id);
  io.u32(m.requester);
  io.varint(m.hop);
}

template <class T>
std::size_t body_size(const T& m) {
  Writer<ByteCounter> io;
  fields(io, m);
  return io.out.n;
}

template <std::size_t I>
std::optional<Message> decode_as(Reader& io) {
  std::variant_alternative_t<I, Message> m;
  fields(io, m);
  if (!io.ok() || !io.in.done()) return std::nullopt;
  return Message{std::in_place_index<I>, std::move(m)};
}

std::optional<Message> decode_from(Reader io) {
  using Decoder = std::optional<Message> (*)(Reader&);
  static constexpr auto kDecoders = []<std::size_t... I>(
                                        std::index_sequence<I...>) {
    return std::array<Decoder, sizeof...(I)>{&decode_as<I>...};
  }(std::make_index_sequence<std::variant_size_v<Message>>{});
  std::size_t tag = io.in.get_u8();  // 0 when the input is empty
  if (tag == 0 || tag > kDecoders.size()) return std::nullopt;
  return kDecoders[tag - 1](io);
}

template <class T, MessageType tag>
constexpr bool kTagged = std::is_same_v<
    std::variant_alternative_t<static_cast<std::size_t>(tag) - 1, Message>, T>;

}  // namespace

// The tag is the variant index + 1, pinned here to each named wire tag.
MessageType type_of(const Message& m) {
  using enum MessageType;
  static_assert(std::variant_size_v<Message> == 15 && kTagged<Data, kData> &&
                kTagged<Session, kSession> &&
                kTagged<LocalRequest, kLocalRequest> &&
                kTagged<RemoteRequest, kRemoteRequest> &&
                kTagged<Repair, kRepair> &&
                kTagged<RegionalRepair, kRegionalRepair> &&
                kTagged<SearchRequest, kSearchRequest> &&
                kTagged<SearchFound, kSearchFound> &&
                kTagged<Handoff, kHandoff> && kTagged<Gossip, kGossip> &&
                kTagged<History, kHistory> &&
                kTagged<BufferDigest, kBufferDigest> && kTagged<Shed, kShed> &&
                kTagged<CreditAck, kCreditAck> &&
                kTagged<Escalate, kEscalate>);
  return static_cast<MessageType>(m.index() + 1);
}

const char* type_name(MessageType t) {
  static constexpr const char* kNames[] = {
      "DATA",       "SESSION",         "LOCAL_REQ",  "REMOTE_REQ",
      "REPAIR",     "REGIONAL_REPAIR", "SEARCH_REQ", "SEARCH_FOUND",
      "HANDOFF",    "GOSSIP",          "HISTORY",    "BUFFER_DIGEST",
      "SHED",       "CREDIT_ACK",      "ESCALATE"};
  static_assert(std::size(kNames) == std::variant_size_v<Message>);
  auto i = static_cast<std::size_t>(t);
  return i >= 1 && i <= std::size(kNames) ? kNames[i - 1] : "UNKNOWN";
}

std::vector<std::uint8_t> encode(const Message& m) {
  Writer<ByteWriter> io;
  io.out.reserve(encoded_size(m));
  io.out.put_u8(static_cast<std::uint8_t>(type_of(m)));
  std::visit([&io](const auto& v) { fields(io, v); }, m);
  return io.out.take();
}

std::optional<Message> decode(std::span<const std::uint8_t> bytes) {
  return decode_from(Reader{ByteReader(bytes)});
}

SharedBytes encode_shared(const Message& m) { return SharedBytes(encode(m)); }

std::optional<Message> decode_shared(const SharedBytes& wire) {
  return decode_from(Reader{ByteReader(wire)});
}

std::size_t encoded_size(const Message& m) {
  return 1 + std::visit([](const auto& v) { return body_size(v); }, m);
}

std::size_t encoded_size(const Data& d) { return 1 + body_size(d); }

}  // namespace rrmp::proto
