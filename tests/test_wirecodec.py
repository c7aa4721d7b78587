"""Wire codec tests: framing, CompactSize, payload codecs, fuzz safety."""

import array
import hashlib
import ipaddress
import random
import struct
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainobs import wirecodec as wc
from helpers import addr_payload, addr_records, four_bytes, gossiped_ips, packed_ips

MAGIC = wc.MAINNET_MAGIC

# Independent double-SHA-256 oracle: same primitive, different implementation
# (OpenSSL via the cryptography package instead of hashlib's binding).
from cryptography.hazmat.primitives import hashes


def oracle_checksum(payload: bytes) -> bytes:
    first = hashes.Hash(hashes.SHA256())
    first.update(payload)
    second = hashes.Hash(hashes.SHA256())
    second.update(first.finalize())
    return second.finalize()[:4]


def test_empty_payload_checksum_matches_independent_oracle():
    expected = oracle_checksum(b"")
    assert expected == bytes.fromhex("5df6e0e2")
    frame = wc.encode_message("verack", b"", MAGIC)
    assert frame[20:24] == expected
    assert frame[16:20] == b"\x00\x00\x00\x00"  # payload_length = 0


# --- checksum memo: one (payload, checksum) pair, checked against the oracle ----


def _neighbour(payload: bytes, pick: int) -> bytes:
    """``payload`` with one byte changed: same length, different bytes."""
    if not payload:
        return payload
    i = pick % len(payload)
    return payload[:i] + bytes([payload[i] ^ (1 + pick % 255)]) + payload[i + 1 :]


@settings(max_examples=300)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["fresh", "repeat", "neighbour", "empty"]),
            st.binary(max_size=40),
            st.integers(0, 2**16),
            st.sampled_from([bytes, bytearray, memoryview]),
        ),
        max_size=40,
    )
)
@example([("fresh", b"\x07" * 8, 0, bytes), ("neighbour", b"", 0, bytes), ("repeat", b"", 1, bytes)])
def test_checksum_memo_agrees_with_the_oracle_over_any_sequence(steps):
    history = [b""]
    for kind, fresh, pick, wrap in steps:
        if kind == "fresh":
            payload = fresh
        elif kind == "repeat":
            payload = history[pick % len(history)]
        elif kind == "neighbour":
            payload = _neighbour(history[pick % len(history)], pick)
        else:
            payload = b""
        history.append(payload)
        assert wc.checksum(wrap(payload)) == oracle_checksum(payload)


def test_checksum_of_a_mutable_buffer_follows_its_current_bytes():
    buffer = bytearray(b"\x01" * 8)
    assert wc.checksum(buffer) == wc.checksum(bytes(buffer)) == oracle_checksum(b"\x01" * 8)
    buffer[0] ^= 0xFF  # the memo holds the old bytes
    assert wc.checksum(buffer) == oracle_checksum(bytes(buffer))
    view = memoryview(buffer)
    buffer[1] ^= 0xFF
    assert wc.checksum(view) == oracle_checksum(bytes(buffer))
    # a view of 4-byte items equals the bytes of its values, not its own bytes
    words = memoryview(array.array("I", [1, 0, 0, 0]))
    assert words == b"\x01\x00\x00\x00"
    assert wc.checksum(b"\x01\x00\x00\x00") == oracle_checksum(b"\x01\x00\x00\x00")
    assert wc.checksum(words) == oracle_checksum(words.tobytes())


@pytest.mark.parametrize("value", ["", "ab", 5, None, [1, 2]], ids=repr)
def test_checksum_of_a_non_buffer_raises_what_hashlib_raises(value):
    with pytest.raises(TypeError) as expected:
        hashlib.sha256(value)
    for primed in (b"", b"ab"):
        wc.checksum(primed)  # "" and "ab" must not match the memo's bytes
        with pytest.raises(TypeError) as raised:
            wc.checksum(value)
        assert str(raised.value) == str(expected.value)


def test_checksum_memo_is_right_from_many_threads():
    payloads = [[bytes([t, k]) * (4 + k) for k in range(3)] for t in range(8)]  # distinct per thread
    wanted = {p: oracle_checksum(p) for own in payloads for p in own}
    wrong = []

    def hash_own(own):
        for _ in range(2000):
            for payload in own:
                for _ in range(2):  # the second call may hit the memo
                    if wc.checksum(payload) != wanted[payload]:
                        wrong.append(payload)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so calls interleave
    try:
        threads = [threading.Thread(target=hash_own, args=(own,)) for own in payloads]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []


def test_getaddr_command_nul_padding():
    frame = wc.encode_message("getaddr", b"", MAGIC)
    assert frame[4:16] == b"getaddr" + b"\x00" * 5


def test_frame_round_trip():
    frame = wc.encode_message("ping", b"\x01" * 8, MAGIC)
    assert wc.decode_message(frame, MAGIC) == ("ping", b"\x01" * 8)


def test_decode_rejects_corrupted_checksum():
    frame = bytearray(wc.encode_message("verack", b"", MAGIC))
    frame[20] ^= 0xFF
    with pytest.raises(wc.BadChecksumError):
        wc.decode_message(bytes(frame), MAGIC)


def test_decode_rejects_wrong_magic():
    frame = wc.encode_message("verack", b"", wc.SIMNET_MAGIC)
    with pytest.raises(wc.BadMagicError):
        wc.decode_message(frame, MAGIC)


def test_decode_rejects_truncated_frame():
    frame = wc.encode_message("ping", b"\x00" * 8, MAGIC)
    with pytest.raises(wc.TruncatedError):
        wc.decode_message(frame[:-1], MAGIC)


def test_decode_rejects_oversized_payload_before_checksum():
    header = MAGIC + b"tx".ljust(12, b"\x00")
    header += struct.pack("<I", wc.MAX_PAYLOAD_SIZE + 1) + b"\x00\x00\x00\x00"
    with pytest.raises(wc.OversizedPayloadError):
        wc.decode_message(header, MAGIC)


def test_decode_rejects_trailing_bytes():
    frame = wc.encode_message("verack", b"", MAGIC) + b"\x00"
    with pytest.raises(wc.TrailingDataError):
        wc.decode_message(frame, MAGIC)


def test_command_too_long():
    with pytest.raises(wc.CommandTooLongError):
        wc.encode_message("thirteenchars", b"", MAGIC)


def test_bad_command_bytes():
    with pytest.raises(wc.BadCommandError):
        wc.encode_message("ver\x01", b"", MAGIC)
    # NUL in the middle of the command field
    frame = bytearray(wc.encode_message("verack", b"", MAGIC))
    frame[5] = 0
    frame[6] = ord("x")
    with pytest.raises(wc.BadCommandError):
        wc.decode_message(bytes(frame), MAGIC)


def _reference_encode_command(command):
    """The byte-by-byte command encoder that ``str.isascii``/``isprintable`` replaced."""
    try:
        raw = command.encode("ascii")
    except UnicodeEncodeError as exc:
        raise wc.BadCommandError(f"non-ASCII command {command!r}") from exc
    if len(raw) > wc.MAX_COMMAND_SIZE:
        raise wc.CommandTooLongError(command)
    if any(b < 0x20 or b > 0x7E for b in raw):
        raise wc.BadCommandError(f"unprintable byte in command {command!r}")
    return raw


def _reference_decode_command(field):
    """The byte-by-byte command decoder that ``str.isascii``/``isprintable`` replaced."""
    name, _, padding = field.partition(b"\x00")
    if padding.strip(b"\x00"):
        raise wc.BadCommandError("bytes after first NUL must be NUL")
    if any(b < 0x20 or b > 0x7E for b in name):
        raise wc.BadCommandError("unprintable byte in command")
    return name.decode("ascii")


def _command_outcome(function, argument):
    """What ``function(argument)`` returns, or the type and message of what it raises."""
    try:
        return "value", function(argument)
    except Exception as exc:
        return type(exc), str(exc)


def test_command_encoder_matches_the_byte_walk():
    names = [chr(c) for c in range(0x300)]
    names += [chr(c) for c in range(0xD800, 0xE000)]  # lone surrogates
    names += ["a" * 12, "a" * 13, "a" * 11 + "\x7f", "a" * 12 + "\x7f", "a" * 12 + "\xe9", "\ud800" * 13]
    names += ["ver" + chr(c) + "ck" for c in range(0x300)]
    for name in names:
        expected = _command_outcome(_reference_encode_command, name)
        assert _command_outcome(wc._encode_command, name) == expected, repr(name)


def test_command_decoder_matches_the_byte_walk():
    fields = []
    for position in range(wc.MAX_COMMAND_SIZE):
        for byte in range(256):
            named = bytearray(b"a" * position + b"\x00" * (wc.MAX_COMMAND_SIZE - position))
            named[position] = byte  # NUL padding after it: valid unless the byte sits inside it
            padded = bytearray(b"ver" + b"\x00" * (wc.MAX_COMMAND_SIZE - 3))
            padded[position] = byte  # a nonzero byte at position > 3 breaks the padding
            fields += [bytes(named), bytes(padded)]
    for field in fields:
        expected = _command_outcome(_reference_decode_command, field)
        assert _command_outcome(wc._decode_command, field) == expected, field


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: wc.bytes16_to_ip(bytes(15)), wc.TruncatedError, "must be 16 bytes"),
        (lambda: wc.NetAddress.decode(bytes(25)), wc.TruncatedError, "must be 26 bytes"),
        (lambda: wc.encode_message("v\u00e9rack", b"", MAGIC), wc.BadCommandError, "non-ASCII"),
        (
            lambda: wc.encode_message("tx", bytes(wc.MAX_PAYLOAD_SIZE + 1), MAGIC),
            wc.OversizedPayloadError,
            f"{wc.MAX_PAYLOAD_SIZE + 1} byte payload",
        ),
    ],
    ids=["ip-15-bytes", "net-address-25-bytes", "non-ascii-command", "oversized-payload"],
)
def test_codec_rejects_input_of_the_wrong_size_or_alphabet(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_payload_checksum_rule_is_stated_once():
    frame = wc.encode_message("verack", b"", MAGIC)
    command, length, check = wc.decode_header(frame, MAGIC)
    wc.check_payload(command, frame[wc.HEADER_SIZE :], check)  # passes
    for name, payload in (("addr", b"\x00"), ("", b"")):
        bad = bytearray(wc.encode_message(name, payload, MAGIC))
        bad[20] ^= 0xFF
        check = wc.decode_header(bytes(bad), MAGIC)[2]
        with pytest.raises(wc.BadChecksumError, match=f"^{name or '<empty>'}$"):
            wc.check_payload(name, payload, check)
        with pytest.raises(wc.BadChecksumError, match=f"^{name or '<empty>'}$"):
            wc.decode_message_prefix(bytes(bad), MAGIC)


def test_decode_message_prefix_incremental():
    frame = wc.encode_message("ping", wc.encode_ping(7), MAGIC)
    assert wc.decode_message_prefix(frame[:10], MAGIC) is None
    assert wc.decode_message_prefix(frame[:25], MAGIC) is None
    command, payload, consumed = wc.decode_message_prefix(frame + b"extra", MAGIC)
    assert (command, payload, consumed) == ("ping", wc.encode_ping(7), len(frame))


def test_decode_header_reads_what_encode_message_writes():
    frame = wc.encode_message("ping", wc.encode_ping(7), MAGIC)
    assert wc.decode_header(frame, MAGIC) == ("ping", 8, oracle_checksum(wc.encode_ping(7)))
    assert wc.decode_header(frame[: wc.HEADER_SIZE], MAGIC) == wc.decode_header(frame, MAGIC)


def test_decode_header_rejects_short_or_foreign_headers():
    frame = wc.encode_message("verack", b"", MAGIC)
    for size in range(wc.HEADER_SIZE):
        with pytest.raises(wc.TruncatedError):
            wc.decode_header(frame[:size], MAGIC)
    with pytest.raises(wc.BadMagicError):
        wc.decode_header(frame, wc.SIMNET_MAGIC)
    with pytest.raises(wc.BadCommandError):
        wc.decode_header(frame[:4] + b"ver\x01" + frame[8:], MAGIC)
    oversized = MAGIC + b"tx".ljust(12, b"\x00") + struct.pack("<I", wc.MAX_PAYLOAD_SIZE + 1) + bytes(4)
    with pytest.raises(wc.OversizedPayloadError):
        wc.decode_header(oversized, MAGIC)


# --- known commands: one table each way, checked against the full command path ---

KNOWN_COMMANDS = ("version", "verack", "getaddr", "addr", "ping", "pong")


def _reference_decode_header(data, magic):
    """``decode_header`` with every command field read by ``_decode_command``."""
    if len(data) < wc.HEADER_SIZE:
        raise wc.TruncatedError(f"{len(data)} bytes is not a whole header")
    head, field, length, check = struct.unpack_from("<4s12sI4s", data)
    if head != magic:
        raise wc.BadMagicError(head.hex())
    command = wc._decode_command(field)
    if length > wc.MAX_PAYLOAD_SIZE:
        raise wc.OversizedPayloadError(f"declared payload of {length} bytes")
    return command, length, check


def test_known_commands_are_the_payload_limit_keys():
    assert sorted(wc.MAX_PAYLOAD_BY_COMMAND) == sorted(KNOWN_COMMANDS)
    for name in KNOWN_COMMANDS:
        assert wc.decode_header(wc.encode_message(name, b"", MAGIC), MAGIC)[0] == name


def _spoiled(field: bytes, position: int, byte: int) -> bytes:
    return field[:position] + bytes([byte]) + field[position + 1 :]


known_fields = st.sampled_from(KNOWN_COMMANDS).map(lambda name: name.encode().ljust(wc.MAX_COMMAND_SIZE, b"\x00"))
command_fields = st.one_of(
    st.binary(min_size=wc.MAX_COMMAND_SIZE, max_size=wc.MAX_COMMAND_SIZE),
    known_fields,
    st.builds(_spoiled, known_fields, st.integers(0, wc.MAX_COMMAND_SIZE - 1), st.integers(0, 255)),
)
headers = st.one_of(
    st.binary(min_size=wc.HEADER_SIZE, max_size=wc.HEADER_SIZE),
    st.builds(
        lambda magic, field, length, check: magic + field + struct.pack("<I", length) + check,
        st.sampled_from([MAGIC, wc.SIMNET_MAGIC]),
        command_fields,
        st.one_of(st.integers(0, 2**32 - 1), st.sampled_from([0, 8, wc.MAX_PAYLOAD_SIZE, wc.MAX_PAYLOAD_SIZE + 1])),
        st.binary(min_size=4, max_size=4),
    ),
)


@settings(max_examples=1000)
@given(headers)
@example(MAGIC + b"ping\x00\x00\x00\x00\x00\x00\x00x" + bytes(8))  # a known name, then a byte after the NUL
@example(MAGIC + b"ping\x00\x00\x00\x00\x00\x00\x00\x00" + struct.pack("<I", wc.MAX_PAYLOAD_SIZE + 1) + bytes(4))
def test_decode_header_matches_the_full_command_path(header):
    for magic in (MAGIC, wc.SIMNET_MAGIC):
        expected = _command_outcome(lambda data: _reference_decode_header(data, magic), header)
        assert _command_outcome(lambda data: wc.decode_header(data, magic), header) == expected


@pytest.mark.parametrize("name", KNOWN_COMMANDS)
def test_known_command_frame_matches_the_full_command_path(name):
    for payload in (b"", b"\x01" * 8, bytes(range(200))):
        expected = struct.pack("<4s12sI4s", MAGIC, wc._encode_command(name), len(payload), oracle_checksum(payload))
        assert wc.encode_message(name, payload, MAGIC) == expected + payload


def test_other_commands_keep_every_check_and_error():
    names = ["tx", "", "Ping", "pin", "pingx", "ping ", " ping", "ping\x00", "verack\x00", "v\u00e9rack", "ver\x01"]
    names += ["\x7f", "\x00", "thirteenchars", "getaddr" * 2, "a" * 12, "a" * 11 + "\x7f", "addr\u0300", "\ud800"]
    for name in names:
        expected = _command_outcome(lambda n: _reference_encode_command(n).ljust(wc.MAX_COMMAND_SIZE, b"\x00"), name)
        assert _command_outcome(lambda n: wc.encode_message(n, b"", MAGIC)[4:16], name) == expected, repr(name)
    for name, error in [("thirteenchars", wc.CommandTooLongError), ("v\u00e9rack", wc.BadCommandError)]:
        with pytest.raises(error):
            wc.encode_message(name, b"", MAGIC)
    with pytest.raises(wc.BadCommandError, match="unprintable byte in command 'ver\\\\x01'"):
        wc.encode_message("ver\x01", b"", MAGIC)


def test_decode_message_prefix_checks_the_magic_of_any_prefix_once():
    frame = wc.encode_message("ping", wc.encode_ping(7), wc.SIMNET_MAGIC)
    for size in range(4):
        assert wc.decode_message_prefix(frame[:size], MAGIC) is None
    for size in range(4, len(frame) + 1):  # 4-23 bytes here, a whole header in decode_header
        with pytest.raises(wc.BadMagicError, match=f"^{wc.SIMNET_MAGIC.hex()}$"):
            wc.decode_message_prefix(frame[:size], MAGIC)


def test_decode_message_prefix_reads_a_frame_in_place():
    frames = wc.encode_message("verack", b"", MAGIC) + wc.encode_message("ping", wc.encode_ping(7), MAGIC)
    command, payload, consumed = wc.decode_message_prefix(memoryview(frames)[wc.HEADER_SIZE :], MAGIC)
    assert (command, payload, consumed) == ("ping", wc.encode_ping(7), len(frames) - wc.HEADER_SIZE)
    assert type(payload) is bytes


@settings(max_examples=300)
@given(
    command=st.sampled_from(["version", "verack", "addr", "ping", "pong", "getaddr", "tx"]),
    payload=st.binary(max_size=2048),
)
def test_round_trip_identity_property(command, payload):
    assert wc.decode_message(wc.encode_message(command, payload, MAGIC), MAGIC) == (command, payload)


# --- CompactSize -----------------------------------------------------------


@pytest.mark.parametrize(
    "value,encoded",
    [
        (0, "00"),
        (252, "fc"),
        (253, "fdfd00"),
        (0xFFFF, "fdffff"),
        (65536, "fe00000100"),
        (0xFFFFFFFF, "feffffffff"),
        (0x100000000, "ff0000000001000000"),
    ],
)
def test_varint_known_encodings(value, encoded):
    assert wc.encode_varint(value) == bytes.fromhex(encoded)
    assert wc.decode_varint(bytes.fromhex(encoded)) == (value, len(encoded) // 2)


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_varint_round_trip(value):
    encoded = wc.encode_varint(value)
    assert wc.decode_varint(encoded) == (value, len(encoded))


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=2**64 - 1))
def test_varint_length_monotone(a, b):
    small, large = min(a, b), max(a, b)
    assert len(wc.encode_varint(small)) <= len(wc.encode_varint(large))


@pytest.mark.parametrize("data", ["fd1000", "fefc000000", "ffffffffff00000000"])
def test_varint_non_canonical(data):
    with pytest.raises(wc.NonCanonicalError):
        wc.decode_varint(bytes.fromhex(data))


@pytest.mark.parametrize("first, width, least", [(0xFD, 2, 0xFD), (0xFE, 4, 0x10000), (0xFF, 8, 0x100000000)])
def test_varint_least_value_of_each_width(first, width, least):
    for value in (least, 2 ** (8 * width) - 1):
        encoded = bytes([first]) + value.to_bytes(width, "little")
        assert wc.decode_varint(b"\x00" + encoded, 1) == (value, 1 + width)
    with pytest.raises(wc.NonCanonicalError, match=f"^{least - 1} encoded with {width}-byte CompactSize$"):
        wc.decode_varint(bytes([first]) + (least - 1).to_bytes(width, "little"))
    with pytest.raises(wc.TruncatedError):
        wc.decode_varint(bytes([first]) + bytes(width - 1))


def test_varint_truncated():
    with pytest.raises(wc.TruncatedError):
        wc.decode_varint(b"")
    with pytest.raises(wc.TruncatedError):
        wc.decode_varint(b"\xfd\x00")


def test_varint_rejects_out_of_domain():
    with pytest.raises(ValueError):
        wc.encode_varint(-1)
    with pytest.raises(ValueError):
        wc.encode_varint(2**64)


# --- version ----------------------------------------------------------------


def _version(**overrides) -> wc.VersionPayload:
    fields = dict(
        protocol_version=wc.PROTOCOL_VERSION,
        services=wc.NODE_NETWORK | wc.NODE_WITNESS,
        timestamp=1_600_000_000,
        receiver=wc.NetAddress(1, "10.0.0.1", 8333),
        sender=wc.NULL_ADDRESS,
        nonce=0x1122334455667788,
        user_agent="/census:0.1/",
        start_height=0,
        relay=False,
    )
    fields.update(overrides)
    return wc.VersionPayload(**fields)


def test_version_round_trip_identity():
    payload = _version(protocol_version=70015, start_height=0)
    assert wc.decode_version(wc.encode_version(payload)) == payload


def test_version_types_are_named_tuples_equal_to_their_fields():
    address = wc.NetAddress(9, "2001:db8::1", 18333)
    assert address == (9, "2001:db8::1", 18333)
    assert wc.NetAddress.decode(address.encode()) == address
    services, ip, port = address
    assert (services, ip, port) == (address.services, address.ip, address.port)
    assert wc.NULL_ADDRESS == (0, "::", 0)
    payload = _version(relay=True)
    fields = (wc.PROTOCOL_VERSION, 9, 1_600_000_000, (1, "10.0.0.1", 8333), (0, "::", 0), 0x1122334455667788)
    assert payload == fields + ("/census:0.1/", 0, True)
    assert wc.VersionPayload._fields == (
        "protocol_version", "services", "timestamp", "receiver", "sender",
        "nonce", "user_agent", "start_height", "relay",
    )
    decoded = wc.decode_version(wc.encode_version(payload))
    assert decoded == payload
    assert (type(decoded.receiver), type(decoded.sender), decoded.relay) == (wc.NetAddress, wc.NetAddress, True)
    unrelayed = wc.VersionPayload(*payload[:-1])
    assert unrelayed.relay is False
    assert wc.decode_version(wc.encode_version(unrelayed)) == payload[:-1] + (False,)
    assert hash(payload) == hash(tuple(payload)) and len({payload, fields + ("/census:0.1/", 0, True)}) == 1


addresses = st.one_of(
    st.ip_addresses(v=4).map(str),
    st.ip_addresses(v=6).map(str),
)
net_addresses = st.builds(
    wc.NetAddress,
    services=st.integers(min_value=0, max_value=2**64 - 1),
    ip=addresses.map(wc.canonical_ip),
    port=st.integers(min_value=0, max_value=65535),
)


@settings(max_examples=200)
@given(
    st.builds(
        wc.VersionPayload,
        protocol_version=st.integers(min_value=-(2**31), max_value=2**31 - 1),
        services=st.integers(min_value=0, max_value=2**64 - 1),
        timestamp=st.integers(min_value=-(2**63), max_value=2**63 - 1),
        receiver=net_addresses,
        sender=net_addresses,
        nonce=st.integers(min_value=0, max_value=2**64 - 1),
        user_agent=st.text(max_size=60).filter(lambda s: len(s.encode()) <= 256),
        start_height=st.integers(min_value=-(2**31), max_value=2**31 - 1),
        relay=st.booleans(),
    )
)
def test_version_round_trip_property(payload):
    assert wc.decode_version(wc.encode_version(payload)) == payload


@pytest.mark.parametrize("overrides", [{}, {"start_height": 654_321, "relay": True}])
def test_version_bytes_follow_the_reference_layout(overrides):
    def net_address(services, ip16, port):
        return struct.pack("<Q", services) + ip16 + struct.pack(">H", port)  # the port is big-endian

    payload = _version(**overrides)
    user_agent = b"/census:0.1/"
    expected = b"".join(
        [
            struct.pack("<i", 70015),  # protocol version
            struct.pack("<Q", 1 | 8),  # services: NODE_NETWORK | NODE_WITNESS
            struct.pack("<q", 1_600_000_000),  # timestamp
            net_address(1, bytes(10) + b"\xff\xff" + bytes([10, 0, 0, 1]), 8333),  # receiver
            net_address(0, bytes(16), 0),  # sender
            struct.pack("<Q", 0x1122334455667788),  # nonce
            bytes([len(user_agent)]) + user_agent,  # a CompactSize below 0xfd is one byte
            struct.pack("<i", overrides.get("start_height", 0)),
            b"\x01" if overrides.get("relay") else b"\x00",
        ]
    )
    assert wc.encode_version(payload) == expected
    assert wc.decode_version(expected) == payload


def test_version_cut_anywhere_before_the_relay_flag_is_truncated():
    data = wc.encode_version(_version(relay=True))
    for size in range(len(data) - 1):
        with pytest.raises(wc.TruncatedError):
            wc.decode_version(data[:size])
    assert wc.decode_version(data[:-1]) == _version(relay=False)  # the relay flag is optional


def test_version_negative_start_height_is_carried_through():
    payload = _version(start_height=-5)
    assert wc.decode_version(wc.encode_version(payload)).start_height == -5


def test_version_user_agent_limit():
    with pytest.raises(wc.UserAgentTooLongError):
        wc.encode_version(_version(user_agent="x" * 257))
    # decode-side: splice an oversized length into otherwise valid bytes
    good = wc.encode_version(_version(user_agent=""))
    spliced = good[:80] + wc.encode_varint(300) + b"y" * 300 + good[81:]
    with pytest.raises(wc.UserAgentTooLongError):
        wc.decode_version(spliced)


def test_version_tolerates_trailing_bytes():
    data = wc.encode_version(_version()) + b"\x00\x01\x02"
    assert wc.decode_version(data).user_agent == "/census:0.1/"


# --- addr --------------------------------------------------------------------


def test_addr_round_trip_and_v4_mapping():
    entry = wc.AddrEntry(1_600_000_000, 1, "10.0.0.1", 8333)
    encoded = entry.encode()
    assert b"\x00" * 10 + b"\xff\xff" + bytes([10, 0, 0, 1]) in encoded
    assert wc.decode_addr(wc.encode_addr([entry])) == [entry]


def test_addr_entry_count_limit():
    entry = wc.AddrEntry(0, 0, "10.0.0.1", 8333)
    with pytest.raises(wc.TooManyAddrEntriesError):
        wc.encode_addr([entry] * 1001)
    data = wc.encode_varint(1001) + entry.encode() * 2
    with pytest.raises(wc.TooManyAddrEntriesError):
        wc.decode_addr(data)


def test_addr_entry_is_a_tuple_of_its_four_fields():
    entry = wc.AddrEntry(7, 9, "10.0.0.1", 8333)
    assert entry == (7, 9, "10.0.0.1", 8333)
    assert hash(entry) == hash((7, 9, "10.0.0.1", 8333))
    last_seen, services, ip, port = entry
    assert (last_seen, services, ip, port) == (entry.last_seen, entry.services, entry.ip, entry.port)
    with pytest.raises(AttributeError):
        entry.port = 1
    assert [type(e) for e in wc.decode_addr(wc.encode_addr([entry]))] == [wc.AddrEntry]


def test_addr_records_encode_as_their_entries_do():
    entries = [wc.AddrEntry(1, 2, "10.0.0.1", 8333), wc.AddrEntry(3, 4, "2001:db8::1", 0)]
    records = [entry.encode() for entry in entries]
    assert wc.encode_addr_records(records) == wc.encode_addr(entries)
    assert wc.encode_addr_records([]) == wc.encode_addr([]) == b"\x00"
    with pytest.raises(wc.TooManyAddrEntriesError):
        wc.encode_addr_records(records[:1] * 1001)
    with pytest.raises(ValueError, match="addr records must be 30 bytes each"):
        wc.encode_addr_records([records[0], records[1][:-1]])


def test_addr_truncated_and_trailing():
    entry = wc.AddrEntry(0, 0, "2001:db8::1", 8333)
    data = wc.encode_addr([entry])
    with pytest.raises(wc.TruncatedError):
        wc.decode_addr(data[:-1])
    with pytest.raises(wc.TrailingDataError):
        wc.decode_addr(data + b"\x00")


@settings(max_examples=200)
@given(
    st.lists(
        st.builds(
            wc.AddrEntry,
            last_seen=st.integers(min_value=0, max_value=2**32 - 1),
            services=st.integers(min_value=0, max_value=2**64 - 1),
            ip=addresses.map(wc.canonical_ip),
            port=st.integers(min_value=0, max_value=65535),
        ),
        max_size=30,
    )
)
def test_addr_round_trip_property(entries):
    assert wc.decode_addr(wc.encode_addr(entries)) == entries


@settings(max_examples=300)
@given(addr_records)
def test_decode_addr_equals_rendering_each_entry(records):
    expected = [(last_seen, services, wc.bytes16_to_ip(ip), port) for last_seen, services, ip, port in records]
    decoded = wc.decode_addr(addr_payload(records))
    assert decoded == expected
    assert [type(entry) for entry in decoded] == [wc.AddrEntry] * len(records)


@settings(max_examples=300)
@given(addr_records)
def test_addr_keys_are_the_ip_and_port_bytes_of_each_entry(records):
    assert wc.addr_keys(addr_payload(records)) == [ip + port.to_bytes(2, "big") for _, _, ip, port in records]


@settings(max_examples=300)
@given(addr_records)
def test_addr_entry_encodes_the_reference_layout(records):
    for last_seen, services, ip, port in records:
        entry = wc.AddrEntry(last_seen, services, wc.bytes16_to_ip(ip), port)
        assert entry.encode() == struct.pack("<IQ", last_seen, services) + ip + struct.pack(">H", port)


@settings(max_examples=500)
@given(st.binary(min_size=18, max_size=18))
@example(bytes(10) + b"\xff\xff" + bytes([10, 0, 0, 1]) + b"\x20\x8d")
@example(bytes(12) + bytes([1, 2, 3, 4]) + bytes(2))
def test_encode_addr_key_inverts_decode_addr_key(key):
    assert wc.encode_addr_key(*wc.decode_addr_key(key)) == key


@settings(max_examples=500)
@given(gossiped_ips.map(wc.bytes16_to_ip), st.integers(min_value=0, max_value=65535))
@example("10.0.0.1", 8333)  # IPv4
@example("2001:db8::1", 65535)  # IPv6
@example("fd87:d87e:eb43:1:2:3:4:5", 0)  # OnionCat
@example("::102:304", 1)  # ::/96
@example("::", 8333)
def test_decode_addr_key_inverts_encode_addr_key_on_canonical_endpoints(ip, port):
    assert wc.canonical_ip(ip) == ip
    key = wc.encode_addr_key(ip, port)
    assert len(key) == 18
    assert wc.decode_addr_key(key) == (ip, port)


_ENTRY = wc.AddrEntry(0, 0, "2001:db8::1", 8333).encode()


@pytest.mark.parametrize(
    "data, error",
    [
        (wc.encode_varint(1001) + _ENTRY * 2, wc.TooManyAddrEntriesError),  # over the cap
        (wc.encode_varint(2) + _ENTRY + _ENTRY[:-1], wc.TruncatedError),
        (wc.encode_varint(0) + _ENTRY, wc.TrailingDataError),
        (wc.encode_varint(1) + _ENTRY + b"\x00", wc.TrailingDataError),
        (b"", wc.TruncatedError),  # no CompactSize
        (b"\xfd\x01", wc.TruncatedError),  # CompactSize cut short
        (b"\xfd\x01\x00" + _ENTRY, wc.NonCanonicalError),
        (b"\xff" + (1).to_bytes(8, "little"), wc.NonCanonicalError),
    ],
    ids=["over-cap", "truncated", "trailing-after-none", "trailing", "empty", "short-count", "wide-count", "wide-count-8"],
)
def test_addr_keys_and_decode_addr_reject_a_malformed_payload_alike(data, error):
    with pytest.raises(error):
        wc.decode_addr(data)
    with pytest.raises(error):
        wc.addr_keys(data)


def _resized(payload, change):
    """``payload`` cut short by ``-change`` bytes, or padded with ``change`` NULs."""
    return payload[: len(payload) + change] if change < 0 else payload + bytes(change)


def _error_type(decode, data):
    try:
        decode(data)
    except wc.CodecError as exc:
        return type(exc)
    return None


@settings(max_examples=500)
@given(
    st.one_of(
        st.binary(max_size=100),
        st.tuples(addr_records, st.integers(-3, 3)).map(lambda pair: _resized(addr_payload(pair[0]), pair[1])),
    )
)
def test_addr_keys_and_decode_addr_raise_the_same_error(data):
    assert _error_type(wc.addr_keys, data) is _error_type(wc.decode_addr, data)


@settings(max_examples=500)
@given(packed_ips)
def test_unpacked_ip_text_is_already_canonical(packed):
    text = wc.bytes16_to_ip(packed)
    assert wc.canonical_ip(text) == text


# --- IP text <-> 16-byte wire form, against the ipaddress reference ------------


def reference_ip_to_bytes16(ip):
    addr = ipaddress.ip_address(ip)
    if addr.version == 4:
        return b"\x00" * 10 + b"\xff\xff" + addr.packed
    return addr.packed


def reference_bytes16_to_ip(data):
    addr = ipaddress.IPv6Address(data)
    mapped = addr.ipv4_mapped
    return str(mapped) if mapped is not None else str(addr)


def _outcome(convert, value):
    try:
        return convert(value)
    except ValueError:
        return ValueError


_octet_text = st.integers(0, 255).flatmap(
    lambda n: st.sampled_from([str(n), "0" + str(n), "00" + str(n), f"{n:03d}"])
)
_v4_text = st.lists(_octet_text, min_size=3, max_size=5).map(".".join)
_v6_text = st.one_of(
    st.ip_addresses(v=6).map(str),
    st.ip_addresses(v=6).map(lambda a: a.exploded),
    st.ip_addresses(v=6).map(lambda a: str(a).upper()),
    st.lists(st.integers(0, 0xFFFF).map("{:x}".format), min_size=1, max_size=9).map(":".join),
)
_ip_text_alphabet = "0123456789abcdefABCDEFx:.% \x00\n"
_ip_text = st.one_of(
    _v4_text,
    _v6_text,
    st.tuples(st.sampled_from(["::ffff:", "::", "64:ff9b::", "1:2:3:4:5:6:", "::ffff:0:"]), _v4_text).map(
        "".join
    ),
    st.tuples(_v6_text, st.text(max_size=6)).map(lambda pair: f"{pair[0]}%{pair[1]}"),  # scope ids
    st.tuples(st.one_of(_v4_text, _v6_text), st.integers(0, 40)).map(
        lambda pair: pair[0][: pair[1]] + "\x00" + pair[0][pair[1] :]  # embedded NUL
    ),
    st.text(alphabet=_ip_text_alphabet, max_size=45),
    st.text(max_size=20),
)


@settings(max_examples=500)
@given(_ip_text)
@example("fe80::1%eth0")
@example("::ffff:1.2.3.4%0")
@example("1.2.3.4\x00")
@example("01.2.3.4")
@example("::1.2.3.4")
@example("1:2:3:4:5:6:7::")
@example("::1:2:3:4:5:6:7:8")
def test_ip_to_bytes16_matches_ipaddress(text):
    assert _outcome(wc.ip_to_bytes16, text) == _outcome(reference_ip_to_bytes16, text)


def test_ip_to_bytes16_matches_ipaddress_on_mutated_addresses():
    rng = random.Random(4291)
    seeds = [
        "1.2.3.4", "255.255.255.255", "::", "::1", "2001:db8::8:800:200c:417a", "::ffff:10.0.0.1",
        "fe80::1%eth0", "1:2:3:4:5:6:7:8", "::1.2.3.4", "fd87:d87e:eb43::1", "1:2:3:4:5:6:1.2.3.4",
    ]
    for _ in range(20_000):
        text = list(rng.choice(seeds))
        for _ in range(rng.randint(1, 3)):
            where = rng.randrange(len(text) + 1)
            action = rng.randrange(3)
            if action == 0:
                text.insert(where, rng.choice(_ip_text_alphabet))
            elif text and action == 1:
                del text[min(where, len(text) - 1)]
            elif text:
                text[min(where, len(text) - 1)] = rng.choice(_ip_text_alphabet)
        text = "".join(text)
        assert _outcome(wc.ip_to_bytes16, text) == _outcome(reference_ip_to_bytes16, text), text


_hextets = st.lists(
    st.one_of(st.just(0), st.just(0), st.just(0xFFFF), st.integers(0, 0xFFFF)), min_size=8, max_size=8
)
_wire_ips = st.one_of(
    st.binary(min_size=16, max_size=16),
    _hextets.map(lambda words: struct.pack(">8H", *words)),  # zero runs of every length and place
    four_bytes.map(lambda b: b"\x00" * 12 + b),  # IPv4-compatible ::/96
    four_bytes.map(lambda b: b"\x00" * 10 + b"\xff\xff" + b),  # IPv4-mapped ::ffff:0:0/96
    st.binary(min_size=1, max_size=4).map(lambda b: b.rjust(16, b"\x00")),  # inside ::/96 near ::
)


@settings(max_examples=500)
@given(_wire_ips)
@example(b"\x00" * 16)
@example(b"\x00" * 15 + b"\x01")
@example(b"\x00" * 10 + b"\xff\xff" + b"\x00" * 4)
def test_bytes16_to_ip_matches_ipaddress(data):
    assert wc.bytes16_to_ip(data) == reference_bytes16_to_ip(data)


def test_bytes16_to_ip_compresses_like_ipaddress_for_every_zero_pattern():
    # RFC 5952 ties (two zero runs of equal length) and single zero hextets
    rng = random.Random(5952)
    for mask in range(256):
        for _ in range(4):
            words = [0 if mask >> i & 1 else rng.randrange(1, 0x10000) for i in range(8)]
            data = struct.pack(">8H", *words)
            assert wc.bytes16_to_ip(data) == reference_bytes16_to_ip(data)


def test_bytes16_to_ip_writes_every_v4_compatible_address_like_ipaddress():
    # ::/96 is written from its last two words: every hi with sampled lo, every lo under hi 0
    rng = random.Random(596)
    for hi in range(0x10000):
        for lo in (0, rng.randrange(1, 0x10000)):
            data = struct.pack(">12x2H", hi, lo)
            assert wc.bytes16_to_ip(data) == reference_bytes16_to_ip(data)
    for lo in range(0x10000):
        data = struct.pack(">12x2H", 0, lo)
        assert wc.bytes16_to_ip(data) == reference_bytes16_to_ip(data)


# --- ping/pong ----------------------------------------------------------------


def test_ping_pong_round_trip():
    assert wc.decode_ping(wc.encode_ping(0)) == 0
    assert wc.decode_pong(wc.encode_pong(2**64 - 1)) == 2**64 - 1
    with pytest.raises(wc.TruncatedError):
        wc.decode_ping(b"\x00" * 7)
    with pytest.raises(wc.TrailingDataError):
        wc.decode_ping(b"\x00" * 9)


# --- fuzz smoke (the full-size run lives in the acceptance suite) -------------


def test_decoders_raise_only_codec_errors_on_garbage():
    rng = random.Random(1234)
    for _ in range(20_000):
        blob = rng.randbytes(rng.randrange(0, 64))
        for decoder in (
            lambda d: wc.decode_message(d, MAGIC),
            lambda d: wc.decode_header(d, MAGIC),
            wc.decode_version,
            wc.decode_addr,
            wc.addr_keys,
            wc.decode_varint,
            wc.decode_ping,
        ):
            try:
                decoder(blob)
            except wc.CodecError:
                pass
