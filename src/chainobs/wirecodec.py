"""Codec for the small Bitcoin wire-message subset a network census needs.

Covers message framing plus the ``version``, ``verack``, ``getaddr``,
``addr``, ``ping`` and ``pong`` payloads.

Frame layout (24-byte header followed by the payload)::

    magic(4) | command(12, NUL-padded ASCII) | length(4, LE) | checksum(4)

``checksum`` is the first four bytes of SHA-256(SHA-256(payload)).  Integers
inside payloads are little-endian, except ports, which ride big-endian inside
26/30-byte network-address records (IPv4 stored as v4-mapped IPv6).
Variable-length counts use Bitcoin's CompactSize encoding; non-canonical
encodings are rejected on decode and never emitted.

Each fixed layout (frame header, the 80 bytes of ``version`` before the user
agent, address records, ping nonce) is one ``struct.Struct`` shared by its
encoder and decoder.  :func:`decode_header` judges a header from its 24 bytes
alone; a frame pump checks the length it returns against
``MAX_PAYLOAD_BY_COMMAND`` before buffering the payload, then hands the
payload and the header's checksum to :func:`check_payload`, the one checksum
test, which :func:`decode_message_prefix` applies too.  The frame decoders
keep only the 4 MiB frame limit.

:class:`AddrEntry` is a named tuple, iterable and equal to the plain tuple
``(last_seen, services, ip, port)``.  :func:`encode_addr_records` frames
entries that are already encoded (the simulated peer keeps its gossip that
way), and :func:`encode_addr` encodes each entry and ends in it, so the
count cap and the CompactSize prefix are written once.  :func:`decode_addr`
and the crawl's :func:`addr_keys` check an ``addr`` payload in one place;
``addr_keys`` returns each entry's 18 wire bytes of IP and port, the key by
which a crawl knows the endpoints it has queued.  :func:`encode_addr_key`
packs one and :func:`decode_addr_key` unpacks one; every entry is packed
through ``encode_addr_key``, so the key layout has one encoder and one decoder.

Everything here is a pure function over byte sequences: no sockets, no
clocks, safe from any number of threads.  The one shared state is the
checksum memo, the last ``bytes`` payload hashed and its checksum held as
one tuple that is read and replaced whole, so a thread never sees one
payload paired with another's checksum.  Decoders either
return a value or raise a :class:`CodecError` subclass; they never raise
anything else, regardless of input bytes.

``ip_to_bytes16`` and ``bytes16_to_ip`` are the one place where IP text and
the 16-byte wire form meet.  Canonical IP text is ``inet_ntop`` output
(RFC 5952: lowercase hex, longest zero run compressed), with v4-mapped
addresses written as a plain dotted quad.  Addresses in ``::/96``
(IPv4-compatible), which glibc prints as ``::1.2.3.4``, are written in
RFC 5952 form from their last two 16-bit words, as ``ipaddress`` prints them
(``::102:304``).  The standard library's ``ipaddress`` is the fallback for
text that ``inet_pton`` rejects but ``ipaddress`` accepts, such as the scoped
``fe80::1%eth0``.
"""

from __future__ import annotations

import hashlib
import ipaddress
import struct
from dataclasses import dataclass
from socket import AF_INET, AF_INET6, inet_ntop, inet_pton
from typing import NamedTuple, Sequence

MAINNET_MAGIC = b"\xf9\xbe\xb4\xd9"
SIMNET_MAGIC = b"\xfa\xce\xb0\x0c"

_HEADER = struct.Struct("<4s12sI4s")  # magic, command, length, checksum
HEADER_SIZE = _HEADER.size
MAX_PAYLOAD_SIZE = 4 * 1024 * 1024
MAX_COMMAND_SIZE = 12
MAX_ADDR_ENTRIES = 1000
MAX_USER_AGENT_BYTES = 256
# decode_version reads at most 344 bytes; the rest is room for fields newer peers append
MAX_VERSION_PAYLOAD_SIZE = 1024

# Modal protocol version on the measured network; what we speak when probing.
PROTOCOL_VERSION = 70015
DEFAULT_PORT = 8333

NODE_NETWORK = 1 << 0
NODE_BLOOM = 1 << 2
NODE_WITNESS = 1 << 3
NODE_NETWORK_LIMITED = 1 << 10


class CodecError(Exception):
    """Base class for every wire decode/encode failure."""


class BadMagicError(CodecError):
    pass


class BadChecksumError(CodecError):
    pass


class TruncatedError(CodecError):
    pass


class TrailingDataError(CodecError):
    """Bytes left over after a complete, valid structure."""


class OversizedPayloadError(CodecError):
    pass


class CommandTooLongError(CodecError):
    pass


class BadCommandError(CodecError):
    """Command field is not printable ASCII followed by NUL padding."""


class NonCanonicalError(CodecError):
    """CompactSize value encoded wider than necessary."""


class TooManyAddrEntriesError(CodecError):
    pass


class UserAgentTooLongError(CodecError):
    pass


_EMPTY_CHECKSUM = bytes.fromhex("5df6e0e2")  # of b"": verack, getaddr
# (payload, checksum) of the last bytes payload hashed.  With one probe at a
# time (the simnet, max_inflight=1) each side of an exchange checksums the
# same payload (one encodes the frame, the other decodes it, and a pong
# echoes its ping's nonce), so this entry serves most calls.  Under the TCP
# thread pool other probes' frames replace it between a ping and its pong,
# and nearly every non-empty payload is hashed.
_last_checksum = (b"", _EMPTY_CHECKSUM)


def checksum(payload: bytes) -> bytes:
    """First 4 bytes of double SHA-256 of the payload.

    A ``bytes`` payload equal to the last one hashed is not hashed again.
    Other buffers (``bytearray``, ``memoryview``) may change after they are
    hashed or compare by element rather than by byte, so they are always
    hashed, and anything else raises hashlib's ``TypeError``.
    """
    global _last_checksum
    if type(payload) is not bytes:
        return hashlib.sha256(hashlib.sha256(payload).digest()).digest()[:4]
    if not payload:
        return _EMPTY_CHECKSUM
    last = _last_checksum
    if payload == last[0]:
        return last[1]
    check = hashlib.sha256(hashlib.sha256(payload).digest()).digest()[:4]
    _last_checksum = (payload, check)
    return check


# --- CompactSize ---------------------------------------------------------


def encode_varint(value: int) -> bytes:
    if value < 0:
        raise ValueError("CompactSize encodes unsigned values only")
    if value < 0xFD:
        return struct.pack("<B", value)
    if value <= 0xFFFF:
        return struct.pack("<BH", 0xFD, value)
    if value <= 0xFFFFFFFF:
        return struct.pack("<BI", 0xFE, value)
    if value <= 0xFFFFFFFFFFFFFFFF:
        return struct.pack("<BQ", 0xFF, value)
    raise ValueError("value exceeds 64 bits")


def decode_varint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a CompactSize at ``offset``; returns (value, bytes consumed).

    Raises :class:`NonCanonicalError` when the value was encoded wider than
    the rules require, so decode(encode(n)) is the only accepted form.
    """
    if offset >= len(data):
        raise TruncatedError("empty CompactSize")
    first = data[offset]
    if first < 0xFD:
        return first, 1
    widths = {0xFD: (2, 0xFD), 0xFE: (4, 0x10000), 0xFF: (8, 0x100000000)}
    width, minimum = widths[first]
    end = offset + 1 + width
    if end > len(data):
        raise TruncatedError("CompactSize body cut short")
    value = int.from_bytes(data[offset + 1 : end], "little")
    if value < minimum:
        raise NonCanonicalError(f"{value} encoded with {width}-byte CompactSize")
    return value, 1 + width


# --- IP helpers ----------------------------------------------------------


V4_MAPPED_PREFIX = b"\x00" * 10 + b"\xff\xff"
_V4_COMPATIBLE_PREFIX = b"\x00" * 12
_LAST_TWO_WORDS = struct.Struct(">12x2H")


def ip_to_bytes16(ip: str) -> bytes:
    """Pack an IPv4/IPv6 text address into the 16-byte wire form.

    Accepts exactly what ``ipaddress.ip_address`` accepts (scope ids are
    dropped) and raises ValueError for anything else.
    """
    try:
        if ":" in ip:
            return inet_pton(AF_INET6, ip)
        return V4_MAPPED_PREFIX + inet_pton(AF_INET, ip)
    except (OSError, ValueError):
        # inet_pton rejects scoped addresses and embedded NULs; let
        # ipaddress decide, so both accept and reject the same text
        addr = ipaddress.ip_address(ip)
        if addr.version == 4:
            return V4_MAPPED_PREFIX + addr.packed
        return addr.packed


def bytes16_to_ip(data: bytes) -> str:
    """Unpack a 16-byte wire address to canonical text (v4-mapped -> dotted)."""
    if len(data) != 16:
        raise TruncatedError("IP field must be 16 bytes")
    head = data[:12]
    if head == V4_MAPPED_PREFIX:
        return inet_ntop(AF_INET, data[12:])
    if head == _V4_COMPATIBLE_PREFIX:
        # glibc would print ::a.b.c.d; the six leading zero words are the longest run
        hi, lo = _LAST_TWO_WORDS.unpack(data)
        if hi:
            return f"::{hi:x}:{lo:x}"
        return f"::{lo:x}" if lo else "::"
    return inet_ntop(AF_INET6, data)


def canonical_ip(ip: str) -> str:
    """Canonical text form: v4-mapped IPv6 becomes dotted quad, IPv6 compressed."""
    return bytes16_to_ip(ip_to_bytes16(ip))


# --- message framing -----------------------------------------------------


def _encode_command(command: str) -> bytes:
    if not command.isascii():
        raise BadCommandError(f"non-ASCII command {command!r}")
    if len(command) > MAX_COMMAND_SIZE:
        raise CommandTooLongError(command)
    if not command.isprintable():  # on ASCII text: exactly 0x20-0x7E
        raise BadCommandError(f"unprintable byte in command {command!r}")
    return command.encode("ascii")  # _HEADER NUL-pads it to 12 bytes


def _decode_command(field: bytes) -> str:
    name, _, padding = field.decode("latin-1").partition("\x00")  # one character per byte
    if padding.strip("\x00"):
        raise BadCommandError("bytes after first NUL must be NUL")
    if not (name.isascii() and name.isprintable()):
        raise BadCommandError("unprintable byte in command")
    return name


def encode_message(command: str, payload: bytes, magic: bytes) -> bytes:
    """Wrap ``payload`` in a framed message: header + payload."""
    if len(payload) > MAX_PAYLOAD_SIZE:
        raise OversizedPayloadError(f"{len(payload)} byte payload")
    return _HEADER.pack(magic, _encode_command(command), len(payload), checksum(payload)) + payload


def decode_header(data: bytes, magic: bytes) -> tuple[str, int, bytes]:
    """``(command, length, checksum)`` of the header starting ``data``; checksum unchecked."""
    if len(data) < HEADER_SIZE:
        raise TruncatedError(f"{len(data)} bytes is not a whole header")
    head, command, length, check = _HEADER.unpack_from(data)
    if head != magic:
        raise BadMagicError(head.hex())
    command = _decode_command(command)
    if length > MAX_PAYLOAD_SIZE:
        raise OversizedPayloadError(f"declared payload of {length} bytes")
    return command, length, check


def decode_message_prefix(data: bytes, magic: bytes) -> tuple[str, bytes, int] | None:
    """Try to decode one frame from the front of ``data``.

    Returns ``(command, payload, bytes_consumed)``, or None when more bytes
    are needed.  Errors that are already decidable from the available prefix
    (wrong magic, oversized length, bad checksum) raise immediately, which
    lets stream readers fail fast instead of buffering garbage.
    """
    if len(data) >= 4 and data[:4] != magic:
        raise BadMagicError(data[:4].hex())
    if len(data) < HEADER_SIZE:
        return None
    command, length, check = decode_header(data, magic)
    end = HEADER_SIZE + length
    if len(data) < end:
        return None
    payload = bytes(data[HEADER_SIZE:end])
    check_payload(command, payload, check)
    return command, payload, end


def check_payload(command: str, payload: bytes, check: bytes) -> None:
    """Raise :class:`BadChecksumError` unless ``check`` is the checksum of ``payload``."""
    if checksum(payload) != check:
        raise BadChecksumError(command or "<empty>")


def decode_message(data: bytes, magic: bytes) -> tuple[str, bytes]:
    """Decode exactly one complete frame; reject partial or trailing bytes."""
    result = decode_message_prefix(data, magic)
    if result is None:
        raise TruncatedError(f"{len(data)} bytes is not a complete frame")
    command, payload, consumed = result
    if consumed != len(data):
        raise TrailingDataError(f"{len(data) - consumed} bytes after frame")
    return command, payload


# --- payload structures --------------------------------------------------


# Ports ride big-endian in the last two bytes while every other field is
# little-endian; one struct format cannot mix byte orders, so the records
# carry the port as two raw bytes packed by _PORT.
_NET_ADDRESS = struct.Struct("<Q16s2s")
_ADDR_ENTRY = struct.Struct("<IQ18s")  # last_seen, services, key: IP and port bytes
_PORT = struct.Struct(">H")
_ADDR_KEY = struct.Struct("<12x18s")  # an _ADDR_ENTRY's key
# version payload: _VERSION_HEAD, CompactSize-prefixed user agent, _VERSION_TAIL
_VERSION_HEAD = struct.Struct("<iQq26s26sQ")  # version, services, time, receiver, sender, nonce
_VERSION_TAIL = struct.Struct("<iB")  # start height, relay flag
_PING = struct.Struct("<Q")  # nonce; pong echoes it

# Largest payload each known command can carry; other commands may use all
# of MAX_PAYLOAD_SIZE.
MAX_PAYLOAD_BY_COMMAND = {
    "addr": 3 + _ADDR_ENTRY.size * MAX_ADDR_ENTRIES, "version": MAX_VERSION_PAYLOAD_SIZE,
    "ping": _PING.size, "pong": _PING.size, "verack": 0, "getaddr": 0,
}


@dataclass(frozen=True)
class NetAddress:
    """26-byte network-address record as used inside ``version``."""

    services: int
    ip: str
    port: int

    def encode(self) -> bytes:
        return _NET_ADDRESS.pack(self.services, ip_to_bytes16(self.ip), _PORT.pack(self.port))

    @classmethod
    def decode(cls, record: bytes) -> "NetAddress":
        if len(record) != _NET_ADDRESS.size:
            raise TruncatedError(f"network address record must be {_NET_ADDRESS.size} bytes")
        services, ip, port = _NET_ADDRESS.unpack(record)
        return cls(services, bytes16_to_ip(ip), int.from_bytes(port, "big"))


NULL_ADDRESS = NetAddress(0, "::", 0)


class AddrEntry(NamedTuple):
    """One gossiped peer inside an ``addr`` message (30 bytes on the wire).

    A tuple, built in C: ``decode_addr`` makes one per entry, so it iterates
    and equals the plain tuple ``(last_seen, services, ip, port)``.
    """

    last_seen: int
    services: int
    ip: str
    port: int

    def encode(self) -> bytes:
        return _ADDR_ENTRY.pack(self.last_seen, self.services, encode_addr_key(self.ip, self.port))


@dataclass(frozen=True)
class VersionPayload:
    """Handshake metadata a peer advertises about itself.

    ``start_height`` may be negative on the wire; the decoder carries the
    value through and leaves judging it to the caller.
    """

    protocol_version: int
    services: int
    timestamp: int
    receiver: NetAddress
    sender: NetAddress
    nonce: int
    user_agent: str
    start_height: int
    relay: bool = False


def encode_version(payload: VersionPayload) -> bytes:
    ua = payload.user_agent.encode("utf-8")
    if len(ua) > MAX_USER_AGENT_BYTES:
        raise UserAgentTooLongError(f"{len(ua)} bytes")
    head = _VERSION_HEAD.pack(
        payload.protocol_version, payload.services, payload.timestamp,
        payload.receiver.encode(), payload.sender.encode(), payload.nonce,
    )
    tail = _VERSION_TAIL.pack(payload.start_height, 1 if payload.relay else 0)
    return head + encode_varint(len(ua)) + ua + tail


def decode_version(data: bytes) -> VersionPayload:
    """Decode a ``version`` payload.

    Trailing bytes beyond the relay flag are tolerated: newer protocol
    revisions append fields there and we only need the common prefix.
    """
    if len(data) < _VERSION_HEAD.size:
        raise TruncatedError("version payload cut short before the user agent")
    protocol_version, services, timestamp, receiver, sender, nonce = _VERSION_HEAD.unpack_from(data)
    ua_len, used = decode_varint(data, _VERSION_HEAD.size)
    if ua_len > MAX_USER_AGENT_BYTES:
        raise UserAgentTooLongError(f"{ua_len} bytes")
    ua_start = _VERSION_HEAD.size + used
    tail = data[ua_start + ua_len : ua_start + ua_len + _VERSION_TAIL.size]
    if len(tail) < _VERSION_TAIL.size - 1:  # only the relay flag may be missing
        raise TruncatedError("version payload cut short after the user agent")
    start_height, relay = _VERSION_TAIL.unpack(tail.ljust(_VERSION_TAIL.size, b"\x00"))
    return VersionPayload(
        protocol_version=protocol_version,
        services=services,
        timestamp=timestamp,
        receiver=NetAddress.decode(receiver),
        sender=NetAddress.decode(sender),
        nonce=nonce,
        user_agent=data[ua_start : ua_start + ua_len].decode("utf-8", errors="replace"),
        start_height=start_height,
        relay=relay != 0,
    )


def encode_addr(entries: Sequence[AddrEntry]) -> bytes:
    return encode_addr_records([entry.encode() for entry in entries])


def encode_addr_records(records: Sequence[bytes]) -> bytes:
    """An ``addr`` payload from entries already encoded by :meth:`AddrEntry.encode`."""
    if len(records) > MAX_ADDR_ENTRIES:
        raise TooManyAddrEntriesError(str(len(records)))
    body = b"".join(records)
    if len(body) != len(records) * _ADDR_ENTRY.size:
        raise ValueError(f"addr records must be {_ADDR_ENTRY.size} bytes each")
    return encode_varint(len(records)) + body


def _addr_records(data: bytes) -> bytes:
    """The entry records of an ``addr`` payload, after the count and length checks."""
    count, offset = decode_varint(data, 0)
    if count > MAX_ADDR_ENTRIES:
        raise TooManyAddrEntriesError(str(count))
    end = offset + count * _ADDR_ENTRY.size
    if end > len(data):
        raise TruncatedError("addr entry cut short")
    if end != len(data):
        raise TrailingDataError(f"{len(data) - end} bytes after addr entries")
    return data[offset:end]


def decode_addr(data: bytes) -> list[AddrEntry]:
    """The entries of an ``addr`` payload."""
    return [
        AddrEntry(last_seen, services, *decode_addr_key(key))
        for last_seen, services, key in _ADDR_ENTRY.iter_unpack(_addr_records(data))
    ]


def addr_keys(data: bytes) -> list[bytes]:
    """Each entry's 16-byte IP followed by its 2-byte port, with the checks of :func:`decode_addr`."""
    return [key for key, in _ADDR_KEY.iter_unpack(_addr_records(data))]


def encode_addr_key(ip: str, port: int) -> bytes:
    """An entry's 18-byte key: the 16-byte IP, then the port big-endian."""
    return ip_to_bytes16(ip) + _PORT.pack(port)


def decode_addr_key(key: bytes) -> tuple[str, int]:
    """The IP text and port of an entry's 18-byte key from :func:`addr_keys`."""
    return bytes16_to_ip(key[:16]), int.from_bytes(key[16:], "big")


def encode_ping(nonce: int) -> bytes:
    return _PING.pack(nonce)


def decode_ping(data: bytes) -> int:
    if len(data) < _PING.size:
        raise TruncatedError("ping nonce cut short")
    if len(data) > _PING.size:
        raise TrailingDataError("ping payload longer than 8 bytes")
    return _PING.unpack(data)[0]


# pong is byte-identical to ping: an echoed 64-bit nonce.
encode_pong = encode_ping
decode_pong = decode_ping
