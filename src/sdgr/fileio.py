"""Key/ciphertext/parameter file formats.

Layout: magic "SDGR", version 0x01, p (4-byte big-endian), m (1 byte),
n (4-byte big-endian), lambda (4-byte big-endian), l1/8 (1 byte), payload,
and a trailing CRC-64/XZ checksum over everything before it.  The checksum
distinguishes file corruption from cryptographic rejection; decapsulation
itself never signals rejection.  A file longer than MAX_FILE_LEN is refused
before its checksum is computed, so a read costs bounded time and memory.
"""

from __future__ import annotations

from dataclasses import dataclass

MAGIC = b"SDGR"
VERSION = 1
HEADER_LEN = 4 + 1 + 4 + 1 + 4 + 4 + 1
# the largest file sdgr writes is a p41 private key: 19 + 4 * 123 + 8 = 519 bytes
MAX_FILE_LEN = 1024

_CRC64_POLY = 0xC96C5795D7870F42  # CRC-64/XZ, reflected


def _build_crc_table() -> list[int]:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ _CRC64_POLY
            else:
                crc >>= 1
        table.append(crc)
    return table


_CRC_TABLE = _build_crc_table()


def crc64(data: bytes) -> int:
    crc = 0xFFFFFFFFFFFFFFFF
    for byte in data:
        crc = _CRC_TABLE[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFFFFFFFFFF


class FileFormatError(Exception):
    pass


class ChecksumError(FileFormatError):
    pass


@dataclass(frozen=True)
class Header:
    p: int
    m: int
    n: int
    lam: int
    l1: int  # bits; 0 when not applicable

    def encode(self) -> bytes:
        return (
            MAGIC
            + bytes([VERSION])
            + self.p.to_bytes(4, "big")
            + bytes([self.m])
            + self.n.to_bytes(4, "big")
            + self.lam.to_bytes(4, "big")
            + bytes([self.l1 // 8])
        )


def decode_header(data: bytes) -> Header:
    if len(data) < HEADER_LEN:
        raise FileFormatError("file too short for header")
    if data[:4] != MAGIC:
        raise FileFormatError("bad magic bytes")
    if data[4] != VERSION:
        raise FileFormatError(f"unsupported version {data[4]}")
    p = int.from_bytes(data[5:9], "big")
    m = data[9]
    n = int.from_bytes(data[10:14], "big")
    lam = int.from_bytes(data[14:18], "big")
    l1 = data[18] * 8
    return Header(p=p, m=m, n=n, lam=lam, l1=l1)


def write_file(path, header: Header, payload: bytes) -> None:
    body = header.encode() + payload
    with open(path, "wb") as fh:
        fh.write(body + crc64(body).to_bytes(8, "big"))


def read_file(path) -> tuple[Header, bytes]:
    with open(path, "rb") as fh:
        data = fh.read(MAX_FILE_LEN + 1)
    if len(data) > MAX_FILE_LEN:
        raise FileFormatError(f"file longer than {MAX_FILE_LEN} bytes")
    if len(data) < HEADER_LEN + 8:
        raise FileFormatError("file truncated")
    body, trailer = data[:-8], data[-8:]
    if crc64(body) != int.from_bytes(trailer, "big"):
        raise ChecksumError("checksum mismatch")
    return decode_header(body), body[HEADER_LEN:]
