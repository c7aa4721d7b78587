"""Network classification, prefix tables, and share aggregation."""

import ipaddress
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainobs import enrich
from chainobs.enrich import IpMetadataTable
from chainobs.transport import Endpoint
from chainobs.wirecodec import V4_MAPPED_PREFIX, bytes16_to_ip, canonical_ip
from helpers import make_record, make_snapshot


# --- classification ------------------------------------------------------------


@pytest.mark.parametrize(
    "address,expected",
    [
        ("93.184.216.34", "ipv4"),
        ("::ffff:93.184.216.34", "ipv4"),
        ("2001:db8::1", "ipv6"),
        ("fd87:d87e:eb43::1234", "tor"),
        ("fd87:d87e:eb43:ffff::1", "tor"),
        ("fd87:d87f::1", "ipv6"),  # just outside the onion range
    ],
)
def test_classify_network(address, expected):
    assert enrich.classify_network(address) == expected


def test_exit_list_upgrades_to_tor():
    exits = frozenset({"2001:db8::1", "10.0.0.1"})
    assert enrich.classify_network("2001:db8::1", exits) == "tor"
    assert enrich.classify_network("10.0.0.1", exits) == "tor"
    assert enrich.classify_network("10.0.0.2", exits) == "ipv4"


def test_classify_accepts_endpoints_and_is_canonicalization_stable():
    assert enrich.classify_network(Endpoint.make("10.0.0.1", 8333)) == "ipv4"
    for raw in ("::FFFF:10.0.0.1", "2001:DB8:0:0::1", "fd87:d87e:eb43:0::9"):
        assert enrich.classify_network(raw) == enrich.classify_network(canonical_ip(raw))


def test_classify_rejects_non_addresses():
    with pytest.raises(ValueError):
        enrich.classify_network("not-an-ip")


def test_load_tor_exits(tmp_path):
    path = tmp_path / "exits.txt"
    path.write_text("# exits\n10.0.0.1\n2001:db8::5\n\n")
    assert enrich.load_tor_exits(path) == frozenset({"10.0.0.1", "2001:db8::5"})


def test_v4_mapped_exit_entry_matches_canonical_endpoint(tmp_path):
    path = tmp_path / "exits.txt"
    path.write_text("::ffff:1.2.3.4\n2001:DB8:0::5\n")
    exits = enrich.load_tor_exits(path)
    assert exits == frozenset({"1.2.3.4", "2001:db8::5"})
    assert enrich.classify_network(Endpoint.make("1.2.3.4"), exits) == "tor"
    assert enrich.classify_network("::ffff:1.2.3.4", exits) == "tor"
    assert enrich.classify_network(Endpoint.make("2001:db8::5"), exits) == "tor"
    assert enrich.classify_network(Endpoint.make("1.2.3.5"), exits) == "ipv4"


def test_load_tor_exits_rejects_non_addresses(tmp_path):
    path = tmp_path / "exits.txt"
    path.write_text("10.0.0.1\nexit.example\n")
    with pytest.raises(ValueError):
        enrich.load_tor_exits(path)


@pytest.mark.parametrize(
    "content, line",
    [(b"10.0.0.1\n\nexit.example\n", 3), (b"10.0.0.1\n# caf\xe9\n10.0.0.2\n", 2)],
    ids=["not-an-address", "not-utf8"],
)
def test_exit_list_errors_name_the_file_and_the_line(tmp_path, content, line):
    path = tmp_path / "exits.txt"
    path.write_bytes(content)
    with pytest.raises(ValueError) as err:
        enrich.load_tor_exits(path)
    assert str(err.value).startswith(f"{path}: line {line}: ")


# --- prefix table -----------------------------------------------------------------


def test_longest_prefix_wins():
    table = IpMetadataTable(
        [("10.0.0.0/8", "US", 64500, "TestNet"), ("10.1.0.0/16", "DE", 64501, "TestNet2")]
    )
    assert table.lookup("10.1.2.3") == enrich.IpMetadata("DE", 64501, "TestNet2")
    assert table.lookup("10.2.2.3") == enrich.IpMetadata("US", 64500, "TestNet")


def test_lookup_without_covering_prefix_is_absent():
    table = IpMetadataTable([("10.0.0.0/8", "US", 64500, "TestNet")])
    assert table.lookup("192.168.0.1") is None
    assert table.lookup("2001:db8::1") is None


def test_lookup_handles_v4_mapped_and_ipv6_prefixes():
    table = IpMetadataTable(
        [("10.0.0.0/8", "US", 64500, "Org4"), ("2001:db8::/32", "DE", 64501, "Org6")]
    )
    assert table.lookup("::ffff:10.3.4.5").org == "Org4"
    assert table.lookup("2001:db8:1::9").org == "Org6"


def test_csv_loading_and_first_listed_priority(tmp_path):
    first = tmp_path / "a.csv"
    first.write_text("# prefix,country,asn,org\n10.0.0.0/8,US,64500,Alpha\n")
    second = tmp_path / "b.csv"
    second.write_text('10.0.0.0/8,DE,64501,Beta\n192.168.0.0/16,FR,64502,"Gamma, Inc"\n')
    table = IpMetadataTable.from_csv(first, second)
    assert table.lookup("10.5.5.5").org == "Alpha"  # first-listed file wins
    assert table.disagreements == 1
    assert table.lookup("192.168.1.1").org == "Gamma, Inc"
    assert len(table) == 2


@pytest.mark.parametrize(
    "content, line, reason",
    [
        (b"# prefix,country,asn,org\n10.0.0.0/8,US,64500,Alpha\n10.1.0.0/16,DE\n", 3, "not enough values"),
        (b'10.0.0.0/8,US,64500,"Alpha\nBeta"\n10.1.0.0/16,DE,AS1,Gamma\n', 3, "asn 'AS1' is not ASCII digits"),
        (b"10.0.0.0/8,US,64500,Alpha\n10.1.0.0/16,DE,64501,Caf\xe9\n", 2, "not UTF-8"),
        # a line ends at \n only, as in grep -n
        (b"10.0.0.0/8,US,1,A\r20.0.0.0/8,DE,x,B\n", 1, "carriage return inside a row"),
        (b'# crlf\r\n10.0.0.0/8,US,1,"A"\rB\r\n', 2, "carriage return inside a row"),
        *(
            (f"10.0.0.0/8,US,1,A\n20.0.0.0/8,DE,{asn},B\n".encode(), 2, f"asn {asn!r} is not ASCII digits")
            for asn in ("+7", "-5", "1_0", "٣")
        ),
    ],
    ids=[
        "short-row", "bad-asn-after-quoted-newline", "not-utf8", "lone-cr", "lone-cr-after-quote-in-crlf-file",
        "asn-plus", "asn-minus", "asn-underscore", "asn-arabic-indic",
    ],
)
def test_prefix_csv_errors_name_the_file_and_the_line(tmp_path, content, line, reason):
    path = tmp_path / "prefixes.csv"
    path.write_bytes(content)
    with pytest.raises(ValueError) as err:
        IpMetadataTable.from_csv(path)
    assert str(err.value).startswith(f"{path}: line {line}: {reason}")


def test_prefix_csv_with_crlf_endings_loads(tmp_path):
    path = tmp_path / "crlf.csv"
    path.write_bytes(
        b'# prefix,country,asn,org\r\n10.0.0.0/8,US,64500,"Alpha, Inc"\r\n20.0.0.0/8,DE,64501,Beta\r\n'
        b'30.0.0.0/8,FR,64502,"Gamma\rDelta"\r\n'  # a quoted carriage return is data
    )
    table = IpMetadataTable.from_csv(path)
    assert table.lookup("10.1.1.1") == enrich.IpMetadata("US", 64500, "Alpha, Inc")
    assert table.lookup("20.1.1.1") == enrich.IpMetadata("DE", 64501, "Beta")
    assert table.lookup("30.1.1.1") == enrich.IpMetadata("FR", 64502, "Gamma\rDelta")


def _linear_oracle(entries, ip):
    address = ipaddress.ip_address(ip)
    if address.version == 6 and address.ipv4_mapped is not None:
        address = address.ipv4_mapped
    best = None
    for network, meta in entries:
        if network.version == address.version and address in network:
            if best is None or network.prefixlen > best[0].prefixlen:
                best = (network, meta)
    return best[1] if best else None


def test_lookup_matches_linear_scan_oracle():
    rng = random.Random(31)
    entries = []
    seen = set()
    for _ in range(300):
        length = rng.randint(4, 30)
        base = rng.getrandbits(32) >> (32 - length) << (32 - length)
        prefix = f"{ipaddress.IPv4Address(base)}/{length}"
        if prefix in seen:
            continue
        seen.add(prefix)
        meta = enrich.IpMetadata(f"C{rng.randint(0, 50)}", rng.randint(1, 70000), f"org{rng.randint(0, 99)}")
        entries.append((ipaddress.ip_network(prefix), meta))
    table = IpMetadataTable((str(p), m.country, m.asn, m.org) for p, m in entries)
    for _ in range(10_000):
        ip = str(ipaddress.IPv4Address(rng.getrandbits(32)))
        assert table.lookup(ip) == _linear_oracle(entries, ip)


def test_lookup_matches_linear_scan_oracle_ipv6():
    rng = random.Random(32)
    entries = []
    for _ in range(80):
        length = rng.randint(16, 64)
        base = rng.getrandbits(128) >> (128 - length) << (128 - length)
        prefix = f"{ipaddress.IPv6Address(base)}/{length}"
        meta = enrich.IpMetadata("XX", rng.randint(1, 70000), f"org{rng.randint(0, 9)}")
        entries.append((ipaddress.ip_network(prefix), meta))
    table = IpMetadataTable((str(p), m.country, m.asn, m.org) for p, m in entries)
    for _ in range(2_000):
        # bias sampling toward prefixes so some queries actually match
        if rng.random() < 0.5:
            base = rng.choice(entries)[0].network_address
            ip = str(ipaddress.IPv6Address(int(base) + rng.getrandbits(16)))
        else:
            ip = str(ipaddress.IPv6Address(rng.getrandbits(128)))
        assert table.lookup(ip) == _linear_oracle(entries, ip)


# --- differential: text classify/lookup against the ipaddress versions ----------------


_REFERENCE_ONIONCAT = ipaddress.ip_network("fd87:d87e:eb43::/48")


def reference_canonical_ip(text):
    addr = ipaddress.ip_address(text)
    if addr.version == 6:
        addr = ipaddress.IPv6Address(addr.packed)  # drops a scope id
        if addr.ipv4_mapped is not None:
            addr = addr.ipv4_mapped
    return str(addr)


def reference_classify_network(text, tor_exits=frozenset()):
    ip = ipaddress.ip_address(text)
    if tor_exits and reference_canonical_ip(text) in tor_exits:
        return enrich.NET_TOR
    if ip.version == 6:
        if ip.ipv4_mapped is not None:
            return enrich.NET_IPV4
        if ip in _REFERENCE_ONIONCAT:
            return enrich.NET_TOR
        return enrich.NET_IPV6
    return enrich.NET_IPV4


def reference_lookup(table, text):
    ip = ipaddress.ip_address(text)
    if ip.version == 6 and ip.ipv4_mapped is not None:
        ip = ip.ipv4_mapped
    ip_int = int(ip)
    bits = ip.max_prefixlen
    for prefixlen in table._lengths[ip.version]:
        masked = ip_int >> (bits - prefixlen) << (bits - prefixlen) if prefixlen else 0
        found = table._buckets[(ip.version, prefixlen)].get(masked)
        if found is not None:
            return found
    return None


def _outcome(call, *args):
    try:
        return call(*args)
    except ValueError:
        return ValueError


def _random_address_text(rng):
    kind = rng.randrange(9)
    v4 = str(ipaddress.IPv4Address(rng.getrandbits(32)))
    v6 = ipaddress.IPv6Address(rng.getrandbits(128))
    if kind == 0:
        return v4
    if kind == 1:
        return rng.choice(["::ffff:", "::FFFF:", "0:0:0:0:0:ffff:", "::"]) + v4  # mapped and ::/96
    if kind == 2:
        return str(v6)
    if kind == 3:
        return v6.exploded.upper()
    if kind == 4:  # OnionCat, and the /48s on either side of it
        head = rng.choice(["fd87:d87e:eb43", "fd87:d87e:eb42", "fd87:d87e:eb44", "FD87:D87E:EB43"])
        return head + ":" + ":".join(f"{rng.getrandbits(16):x}" for _ in range(5))
    if kind == 5:
        return f"{v6}%{rng.choice(['eth0', '1', 'x y'])}"  # scoped
    if kind == 6:
        return str(ipaddress.IPv6Address(rng.getrandbits(32)))  # inside ::/96
    if kind == 7:
        return rng.choice([v4, str(v6)])[: rng.randint(0, 12)] + rng.choice(["", ".", ":", "%", "\x00", "g"])
    return rng.choice(["", "not-an-ip", "1.2.3", "01.2.3.4", "::1::", "1.2.3.4\x00"])


def _random_table(rng):
    entries = []
    for _ in range(rng.randint(1, 60)):
        if rng.random() < 0.6:
            length = rng.randint(0, 32)
            net = ipaddress.ip_network((rng.getrandbits(32) >> (32 - length) << (32 - length), length))
        else:
            length = rng.randint(0, 128)
            base = rng.choice([rng.getrandbits(128), int(_REFERENCE_ONIONCAT.network_address), 0xFFFF << 32])
            net = ipaddress.ip_network((base >> (128 - length) << (128 - length), length))
        entries.append((str(net), f"C{rng.randrange(9)}", rng.randrange(1, 70000), f"org{rng.randrange(9)}"))
    return IpMetadataTable(entries)


def test_classify_and_lookup_match_ipaddress_reference_on_random_inputs():
    rng = random.Random(5952)
    for _ in range(25):
        table = _random_table(rng)
        addresses = [_random_address_text(rng) for _ in range(400)]
        valid = [a for a in addresses if _outcome(reference_canonical_ip, a) is not ValueError]
        exits = frozenset(reference_canonical_ip(a) for a in rng.sample(valid, min(len(valid), 20)))
        for text in addresses:
            assert _outcome(enrich.classify_network, text) == _outcome(reference_classify_network, text)
            assert _outcome(enrich.classify_network, text, exits) == _outcome(
                reference_classify_network, text, exits
            )
            assert _outcome(table.lookup, text) == _outcome(reference_lookup, table, text)


def _packed_with_head(head):
    return st.binary(min_size=16 - len(head), max_size=16 - len(head)).map(lambda tail: head + tail)


_packed_addresses = st.one_of(
    _packed_with_head(V4_MAPPED_PREFIX),
    _packed_with_head(bytes(12)),  # ::/96
    *(_packed_with_head(bytes.fromhex(head)) for head in ("fd87d87eeb42", "fd87d87eeb43", "fd87d87eeb44")),
    st.binary(min_size=16, max_size=16),
)


@settings(max_examples=300)
@given(
    packed=st.lists(_packed_addresses, min_size=1, max_size=12),
    port=st.integers(0, 65535),
    exit_flags=st.lists(st.booleans(), min_size=12, max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
def test_classify_and_lookup_on_endpoints_match_ipaddress_reference(packed, port, exit_flags, seed):
    """An Endpoint's canonical text is read as it is, and agrees with the reference on its text."""
    endpoints = [Endpoint(bytes16_to_ip(data), port) for data in packed]
    exits = frozenset(endpoint.ip for endpoint, flag in zip(endpoints, exit_flags) if flag)
    table = _random_table(random.Random(seed))
    for endpoint in endpoints:
        assert enrich.classify_network(endpoint) == reference_classify_network(endpoint.ip)
        assert enrich.classify_network(endpoint, exits) == reference_classify_network(endpoint.ip, exits)
        assert table.lookup(endpoint) == reference_lookup(table, endpoint.ip)


# --- share aggregation ----------------------------------------------------------------


def _table():
    return IpMetadataTable(
        [
            ("10.0.0.0/8", "US", 64500, "Alpha"),
            ("20.0.0.0/8", "DE", 64501, "Beta"),
        ]
    )


def test_annotate_looks_up_every_address_but_tor_class_ones():
    table = _table()
    exits = frozenset({"10.0.0.9"})
    assert enrich.annotate("10.0.0.1", table, exits) == ("ipv4", table.lookup("10.0.0.1"))
    assert enrich.annotate("192.168.0.1", table, exits) == ("ipv4", None)
    assert enrich.annotate("10.0.0.9", table, exits) == ("tor", None)  # covered, but an exit
    assert enrich.annotate(Endpoint.make("fd87:d87e:eb43::1"), table) == ("tor", None)


def test_share_counting_with_unknown_bucket():
    snapshot = make_snapshot(
        [
            make_record("10.0.0.1"),
            make_record("10.0.0.2"),
            make_record("20.0.0.1"),
            make_record("192.168.0.1"),
        ]
    )
    report = enrich.aggregate_shares(snapshot, _table())
    assert report.country == [("US", 0.5), ("DE", 0.25), ("unknown", 0.25)]
    assert report.org == [("Alpha", 0.5), ("Beta", 0.25), ("unknown", 0.25)]


def test_tor_nodes_form_their_own_bucket():
    snapshot = make_snapshot([make_record("10.0.0.1"), make_record("fd87:d87e:eb43::1")])
    report = enrich.aggregate_shares(snapshot, _table())
    assert ("tor", 0.5) in report.country
    assert ("tor", 0.5) in report.org


def test_shares_empty_when_no_active_nodes():
    snapshot = make_snapshot([make_record("10.0.0.1", status="discovered_inactive")])
    report = enrich.aggregate_shares(snapshot, _table())
    assert report.country == [] and report.org == [] and report.active_count == 0


def test_shares_sum_to_one_on_random_fixtures():
    rng = random.Random(41)
    for _ in range(30):
        records = [
            make_record(f"{rng.choice([10, 20, 30])}.{rng.randint(0, 255)}.{rng.randint(0, 255)}.{rng.randint(1, 254)}")
            for _ in range(rng.randint(1, 40))
        ]
        unique = list({r.address: r for r in records}.values())
        report = enrich.aggregate_shares(make_snapshot(unique), _table())
        assert abs(sum(share for _, share in report.country) - 1.0) <= 1e-12
        assert abs(sum(share for _, share in report.org) - 1.0) <= 1e-12
