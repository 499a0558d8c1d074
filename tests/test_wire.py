"""Wire framing tests.

Expected values are derived with hashlib/struct directly rather than through
the module under test, so a framing bug can't hide behind its own checksum.
"""

import hashlib
import json
import random
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btcrs import wire

FIXDIR = Path(__file__).resolve().parent.parent / "fixtures" / "wire"


def dsha4(payload: bytes) -> bytes:
    return hashlib.sha256(hashlib.sha256(payload).digest()).digest()[:4]


def test_checksum_empty_payload():
    # Known constant for the empty payload.
    assert wire.checksum(b"") == bytes.fromhex("5df6e0e2")
    assert dsha4(b"") == bytes.fromhex("5df6e0e2")


def test_frame_layout_by_hand():
    payload = b"\x01" + struct.pack("<I", 2) + bytes(32)
    frame = wire.serialize("getdata", payload)
    assert frame[:4] == b"\xf9\xbe\xb4\xd9"
    assert frame[4:16] == b"getdata" + b"\x00" * 5
    assert struct.unpack("<I", frame[16:20])[0] == len(payload)
    assert frame[20:24] == dsha4(payload)
    assert frame[24:] == payload
    assert len(frame) == 24 + len(payload)


def test_parse_rejects_garbage():
    with pytest.raises(wire.WireError):
        wire.parse(b"\x00" * 30)
    with pytest.raises(wire.WireError):
        wire.parse(b"\xf9\xbe\xb4\xd9short")
    # Truncated payload vs length field
    frame = wire.serialize("ping", b"12345678")
    with pytest.raises(wire.WireError):
        wire.parse(frame[:-1])


def test_varint_boundaries():
    for n in (0, 1, 0xFC, 0xFD, 0xFFFF, 0x10000, 0xFFFFFFFF, 0x100000000):
        enc = wire.encode_varint(n)
        dec, off = wire.decode_varint(enc)
        assert dec == n and off == len(enc)


def test_inventory_round_trip():
    h1, h2 = hashlib.sha256(b"a").digest(), hashlib.sha256(b"b").digest()
    frame = wire.serialize_inventory("inv", [(wire.INV_BLOCK, h1), (wire.INV_TX, h2)])
    msg = wire.parse(frame)
    assert msg.command == "inv"
    assert msg.checksum_ok
    assert msg.inventory == [(2, h1), (1, h2)]


@settings(max_examples=200)
@given(
    st.sampled_from(["inv", "getdata", "block", "tx", "version", "verack", "headers"]),
    st.binary(min_size=0, max_size=400),
)
def test_round_trip_any_command(command, payload):
    msg = wire.parse(wire.serialize(command, payload))
    assert msg.command == command
    assert msg.payload == payload
    assert msg.checksum_ok


def test_round_trip_10k_random_frames():
    rng = random.Random(0xBEEF)
    commands = ["inv", "getdata", "block", "tx", "version", "ping", "addr"]
    for _ in range(10_000):
        cmd = rng.choice(commands)
        payload = rng.randbytes(rng.randrange(0, 200))
        frame = wire.serialize(cmd, payload)
        msg = wire.parse(frame)
        assert (msg.command, msg.payload, msg.checksum_ok) == (cmd, payload, True)


def test_rewrite_getdata_preserves_length_and_reparses():
    rng = random.Random(7)
    for _ in range(300):
        items = [(wire.INV_BLOCK, rng.randbytes(32)) for _ in range(rng.randrange(1, 4))]
        frame = wire.serialize_inventory("getdata", items)
        victim_ix = rng.randrange(len(items))
        new_hash = rng.randbytes(32)
        out = wire.rewrite_getdata_hash(frame, items[victim_ix][1], new_hash)
        assert len(out) == len(frame)
        msg = wire.parse(out)
        assert msg.checksum_ok
        assert msg.inventory[victim_ix] == (wire.INV_BLOCK, new_hash)
        # untouched entries survive
        for i, entry in enumerate(items):
            if i != victim_ix:
                assert msg.inventory[i] == entry


def test_rewrite_touches_only_hash_slots():
    # the zero hash also starts two bytes into the first item's type field
    frame = wire.serialize_inventory("getdata", [(wire.INV_TX, bytes(32)), (wire.INV_BLOCK, bytes(32))])
    msg = wire.parse(wire.rewrite_getdata_hash(frame, bytes(32), b"\x11" * 32))
    assert msg.checksum_ok
    assert msg.inventory == [(wire.INV_TX, b"\x11" * 32), (wire.INV_BLOCK, bytes(32))]


def test_rewrite_rejects_missing_hash_and_non_getdata():
    frame = wire.serialize_inventory("getdata", [(wire.INV_BLOCK, bytes(32))])
    with pytest.raises(wire.WireError):
        wire.rewrite_getdata_hash(frame, b"\x01" * 32, bytes(32))
    inv = wire.serialize_inventory("inv", [(wire.INV_BLOCK, bytes(32))])
    with pytest.raises(wire.WireError):
        wire.rewrite_getdata_hash(inv, bytes(32), b"\x01" * 32)


@settings(max_examples=200)
@given(st.binary(min_size=1, max_size=300), st.integers(0, 2**32 - 1))
def test_corruption_always_detectable(payload, seed):
    frame = wire.serialize("block", payload)
    bad = wire.corrupt_block(frame, random.Random(seed))
    assert len(bad) == len(frame)
    msg = wire.parse(bad)
    assert not msg.checksum_ok
    assert msg.payload != payload


def test_shipped_fixtures_parse_as_documented():
    fixtures = sorted(FIXDIR.glob("*.hex"))
    assert fixtures, "wire fixtures missing"
    for hexfile in fixtures:
        frame = bytes.fromhex(hexfile.read_text().strip())
        expected = json.loads(hexfile.with_suffix(".json").read_text())
        msg = wire.parse(frame)
        assert msg.command == expected["command"]
        assert msg.checksum_ok == expected["checksum_ok"]
        assert len(msg.payload) == expected["payload_length"]
        assert frame[20:24].hex() == expected["checksum"]
        if "inventory" in expected:
            got = [[t, h.hex()] for t, h in msg.inventory]
            assert got == expected["inventory"]
