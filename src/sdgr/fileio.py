"""Key/ciphertext/parameter file formats.

Layout: magic "SDGR", version 0x01, p (4-byte big-endian), m (1 byte),
n (4-byte big-endian), lambda (4-byte big-endian), l1/8 (1 byte), payload,
and a trailing CRC-64/XZ checksum over everything before it.  The checksum
distinguishes file corruption from cryptographic rejection; decapsulation
itself never signals rejection.  A file longer than MAX_FILE_LEN is refused
before its checksum is computed, so a read costs bounded time and memory.

A file is written in place: opened without O_TRUNC, overwritten from its
first byte, and cut to length only when the old file was longer.  Opening
with O_TRUNC ("wb") would truncate a non-empty file to zero, and on ext4
(default auto_da_alloc) closing a file truncated that way and rewritten
forces a flush to disk, which costs more than the rest of an `sdgr encaps`
process.  The write is not atomic; a torn write (new bytes over part of the
old file, or the old tail not yet cut) fails the checksum and reads as a
FileFormatError.  Symlinks and hard links are written through.  `mode` is
the mode of a file this creates; an existing regular file first loses the
permission bits `mode` does not grant (so a private key written with 0o600
over a world-readable file is owner-only), and other files keep theirs.
"""

from __future__ import annotations

import os
import stat
import struct
from typing import NamedTuple

MAGIC = b"SDGR"
VERSION = 1
_HEADER = struct.Struct(">4sBIBIIB")  # the layout above, up to the payload
HEADER_LEN = _HEADER.size
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


class Header(NamedTuple):
    p: int
    m: int
    n: int
    lam: int
    l1: int  # bits; 0 when not applicable

    def encode(self) -> bytes:
        return _HEADER.pack(MAGIC, VERSION, self.p, self.m, self.n, self.lam, self.l1 // 8)


def decode_header(data: bytes) -> Header:
    if len(data) < HEADER_LEN:
        raise FileFormatError("file too short for header")
    magic, version, p, m, n, lam, l1_bytes = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise FileFormatError("bad magic bytes")
    if version != VERSION:
        raise FileFormatError(f"unsupported version {version}")
    return Header(p=p, m=m, n=n, lam=lam, l1=l1_bytes * 8)


def write_file(path, header: Header, payload: bytes, mode: int = 0o666) -> None:
    body = header.encode() + payload
    data = body + crc64(body).to_bytes(8, "big")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), mode)
    with open(fd, "wb") as fh:
        st = os.fstat(fd)
        if stat.S_ISREG(st.st_mode) and stat.S_IMODE(st.st_mode) & ~mode:
            os.fchmod(fd, stat.S_IMODE(st.st_mode) & mode)
        # ftruncate raises EINVAL on /dev/null and pipes, whose size reads 0
        longer = st.st_size > len(data)
        fh.write(data)
        if longer:
            fh.truncate()


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
