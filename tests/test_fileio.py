import pytest

from sdgr.fileio import (
    HEADER_LEN,
    MAGIC,
    MAX_FILE_LEN,
    ChecksumError,
    FileFormatError,
    Header,
    crc64,
    decode_header,
    read_file,
    write_file,
)


def test_crc64_check_value():
    # CRC-64/XZ check value for "123456789"
    assert crc64(b"123456789") == 0x995DC9BBDF1939FA
    assert crc64(b"") == 0


def test_header_roundtrip():
    h = Header(p=19, m=1, n=19, lam=2, l1=128)
    blob = h.encode()
    assert len(blob) == HEADER_LEN
    assert blob[:4] == MAGIC
    assert decode_header(blob) == h


def test_header_zero_l1():
    h = Header(p=41, m=1, n=41, lam=6, l1=0)
    assert decode_header(h.encode()) == h


def test_decode_header_errors():
    good = Header(p=3, m=1, n=3, lam=2, l1=0).encode()
    with pytest.raises(FileFormatError):
        decode_header(good[:10])
    with pytest.raises(FileFormatError):
        decode_header(b"XXXX" + good[4:])
    with pytest.raises(FileFormatError):
        decode_header(good[:4] + b"\x07" + good[5:])


def test_file_roundtrip(tmp_path):
    path = tmp_path / "k.bin"
    header = Header(p=19, m=1, n=19, lam=2, l1=192)
    payload = bytes(range(48))
    write_file(path, header, payload)
    back_header, back_payload = read_file(path)
    assert back_header == header
    assert back_payload == payload


def test_corruption_detected(tmp_path):
    path = tmp_path / "k.bin"
    write_file(path, Header(p=19, m=1, n=19, lam=2, l1=0), b"payload-bytes")
    data = bytearray(path.read_bytes())
    data[HEADER_LEN + 3] ^= 0x40
    path.write_bytes(bytes(data))
    with pytest.raises(ChecksumError):
        read_file(path)


def test_trailer_corruption_detected(tmp_path):
    path = tmp_path / "k.bin"
    write_file(path, Header(p=19, m=1, n=19, lam=2, l1=0), b"payload")
    data = bytearray(path.read_bytes())
    data[-1] ^= 0x01
    path.write_bytes(bytes(data))
    with pytest.raises(ChecksumError):
        read_file(path)


def test_truncated_file(tmp_path):
    path = tmp_path / "k.bin"
    path.write_bytes(b"SDGR\x01")
    with pytest.raises(FileFormatError):
        read_file(path)


def test_empty_payload(tmp_path):
    path = tmp_path / "k.bin"
    header = Header(p=3, m=1, n=3, lam=2, l1=0)
    write_file(path, header, b"")
    back_header, back_payload = read_file(path)
    assert back_header == header and back_payload == b""


def test_read_file_refuses_a_file_over_the_cap(tmp_path):
    path = tmp_path / "k.bin"
    header = Header(p=3, m=1, n=3, lam=2, l1=0)
    fill = MAX_FILE_LEN - HEADER_LEN - 8
    write_file(path, header, bytes(fill))  # exactly at the cap
    assert read_file(path) == (header, bytes(fill))
    write_file(path, header, bytes(fill + 1))
    with pytest.raises(FileFormatError, match="longer than"):
        read_file(path)
