"""Bitcoin wire-format framing: the subset the delay attacks rewrite in flight.

A frame is `magic | command(12) | length(u32 LE) | checksum(4) | payload`.
The checksum is the first four bytes of SHA256(SHA256(payload)).  Only
``inv``/``getdata`` payloads (inventory vectors) and our block payloads are
interpreted; every other command is carried opaquely.

This is the byte-level reference: the simulator itself tampers with message
objects, and the tests hold those edits equal to the frame edits here.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field

MAGIC = b"\xf9\xbe\xb4\xd9"
HEADER_LEN = 24
INV_TX = 1
INV_BLOCK = 2


class WireError(ValueError):
    """Raised for frames that cannot be deframed at all."""


def checksum(payload: bytes) -> bytes:
    """First 4 bytes of double-SHA256; checksum(b"") == 5df6e0e2."""
    return hashlib.sha256(hashlib.sha256(payload).digest()).digest()[:4]


def encode_varint(n: int) -> bytes:
    if n < 0xFD:
        return struct.pack("<B", n)
    if n <= 0xFFFF:
        return b"\xfd" + struct.pack("<H", n)
    if n <= 0xFFFFFFFF:
        return b"\xfe" + struct.pack("<I", n)
    return b"\xff" + struct.pack("<Q", n)


def decode_varint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Return (value, new_offset)."""
    first = data[offset]
    if first < 0xFD:
        return first, offset + 1
    if first == 0xFD:
        return struct.unpack_from("<H", data, offset + 1)[0], offset + 3
    if first == 0xFE:
        return struct.unpack_from("<I", data, offset + 1)[0], offset + 5
    return struct.unpack_from("<Q", data, offset + 1)[0], offset + 9


@dataclass
class WireMessage:
    """A deframed message plus whatever structure we understand of it."""

    command: str
    payload: bytes
    checksum_ok: bool = True
    # (type, hash) pairs, filled in for inv/getdata frames only.
    inventory: list[tuple[int, bytes]] = field(default_factory=list)

    @property
    def is_inventory(self) -> bool:
        return self.command in ("inv", "getdata")


def serialize(command: str, payload: bytes) -> bytes:
    cmd = command.encode("ascii")
    if len(cmd) > 12:
        raise WireError(f"command too long: {command!r}")
    return MAGIC + cmd.ljust(12, b"\x00") + struct.pack("<I", len(payload)) + checksum(payload) + payload


def serialize_inventory(command: str, items: list[tuple[int, bytes]]) -> bytes:
    """Build an inv/getdata frame from (type, 32-byte hash) pairs."""
    payload = encode_varint(len(items))
    for inv_type, h in items:
        if len(h) != 32:
            raise WireError(f"inventory hash must be 32 bytes, got {len(h)}")
        payload += struct.pack("<I", inv_type) + h
    return serialize(command, payload)


def _parse_inventory(payload: bytes) -> list[tuple[int, bytes]]:
    count, off = decode_varint(payload)
    items = []
    for _ in range(count):
        inv_type = struct.unpack_from("<I", payload, off)[0]
        items.append((inv_type, payload[off + 4 : off + 36]))
        off += 36
    if off != len(payload):
        raise WireError("trailing bytes after inventory vector")
    return items


def parse(data: bytes) -> WireMessage:
    """Deframe one message.  A stale checksum yields checksum_ok=False, not an error."""
    if len(data) < HEADER_LEN:
        raise WireError(f"frame shorter than header: {len(data)} bytes")
    if data[:4] != MAGIC:
        raise WireError("bad magic")
    command = data[4:16].rstrip(b"\x00").decode("ascii")
    (length,) = struct.unpack_from("<I", data, 16)
    payload = data[HEADER_LEN:]
    if len(payload) != length:
        raise WireError(f"length field {length} != payload size {len(payload)}")
    ok = data[20:24] == checksum(payload)
    msg = WireMessage(command, payload, checksum_ok=ok)
    if ok and msg.is_inventory:
        try:
            msg.inventory = _parse_inventory(payload)
        except (IndexError, struct.error, WireError):
            # Not a well-formed inventory vector; keep the payload opaque.
            msg.inventory = []
    return msg


def rewrite_getdata_hash(frame: bytes, old_hash: bytes, new_hash: bytes) -> bytes:
    """Swap one inventory hash inside a getdata frame, recomputing the checksum.

    Frame length is preserved exactly, so the rewrite is invisible to anyone
    who does not know the original request.
    """
    msg = parse(frame)
    if msg.command != "getdata":
        raise WireError(f"not a getdata frame: {msg.command}")
    if len(new_hash) != 32:
        raise WireError("replacement hash must be 32 bytes")
    # search the hash slots only: a match straddling a type field must not count
    i = next((i for i, (_, h) in enumerate(msg.inventory) if h == old_hash), None)
    if i is None:
        raise WireError("hash not present in the frame's inventory")
    idx = len(encode_varint(len(msg.inventory))) + 36 * i + 4
    payload = msg.payload[:idx] + new_hash + msg.payload[idx + 32 :]
    out = frame[:20] + checksum(payload) + payload
    assert len(out) == len(frame)
    return out


def corrupt_block(frame: bytes, rng) -> bytes:
    """Flip one payload byte of a block frame and leave the checksum stale.

    The recipient sees a checksum mismatch and discards the message; the
    header (and thus the frame length) is untouched.
    """
    msg = parse(frame)
    if msg.command != "block":
        raise WireError(f"not a block frame: {msg.command}")
    if not msg.payload:
        raise WireError("empty block payload")
    pos = rng.randrange(len(msg.payload))
    flipped = msg.payload[pos] ^ (1 + rng.randrange(255))
    payload = msg.payload[:pos] + bytes([flipped]) + msg.payload[pos + 1 :]
    return frame[:HEADER_LEN] + payload
