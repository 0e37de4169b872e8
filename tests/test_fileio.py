import os
import stat

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
    assert blob.hex() == "53444752010000001301000000130000000210"  # the wire layout, frozen
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


@pytest.mark.parametrize("old_len", [0, 40, 48, 200])
def test_rewrite_leaves_no_stale_tail(tmp_path, old_len):
    """A rewrite over a longer, equal-length or shorter file reads back
    byte-exact: the in-place write cuts off what the old file had beyond it."""
    path = tmp_path / "k.bin"
    header = Header(p=19, m=1, n=19, lam=2, l1=128)
    write_file(path, Header(p=41, m=1, n=41, lam=6, l1=256), bytes([0xA5]) * old_len)
    payload = bytes(range(48))
    write_file(path, header, payload)
    body = header.encode() + payload
    assert path.read_bytes() == body + crc64(body).to_bytes(8, "big")
    assert read_file(path) == (header, payload)


def test_write_to_devnull():
    # /dev/null reads as size 0, and ftruncate on it raises EINVAL
    write_file(os.devnull, Header(p=19, m=1, n=19, lam=2, l1=0), bytes(100))


def test_write_never_truncates_to_zero(tmp_path, monkeypatch):
    calls = []
    real_open = os.open

    def spy(path, flags, *args, **kwargs):
        calls.append(flags)
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    path = tmp_path / "k.bin"
    for payload in (bytes(64), bytes(8)):
        write_file(path, Header(p=3, m=1, n=3, lam=2, l1=0), payload)
    assert len(calls) == 2 and not any(flags & os.O_TRUNC for flags in calls)


def test_mode_applies_to_new_files_only(tmp_path):
    header = Header(p=3, m=1, n=3, lam=2, l1=0)
    fresh, existing = tmp_path / "fresh.bin", tmp_path / "existing.bin"
    existing.write_bytes(bytes(300))
    existing.chmod(0o644)
    write_file(fresh, header, b"secret", mode=0o600)
    write_file(existing, header, b"secret", mode=0o600)
    assert stat.S_IMODE(fresh.stat().st_mode) & 0o077 == 0
    assert stat.S_IMODE(existing.stat().st_mode) == 0o600
    assert read_file(existing) == (header, b"secret")


def test_mode_never_changes_a_device(monkeypatch):
    # a stub that does not call through: a wrong build run as root must not
    # chmod the real /dev/null
    calls = []
    monkeypatch.setattr(os, "fchmod", lambda *args: calls.append(args))
    write_file(os.devnull, Header(p=19, m=1, n=19, lam=2, l1=0), bytes(100), mode=0o600)
    assert calls == []


def test_write_goes_through_links(tmp_path):
    """The file is written in place, so a symlink or a hard link to it sees
    the new contents instead of being replaced by a new file."""
    header = Header(p=3, m=1, n=3, lam=2, l1=0)
    target = tmp_path / "target.bin"
    write_file(target, header, bytes(100))
    (tmp_path / "sym.bin").symlink_to(target)
    os.link(target, tmp_path / "hard.bin")
    write_file(tmp_path / "sym.bin", header, b"via-symlink")
    assert read_file(tmp_path / "hard.bin") == (header, b"via-symlink")
    write_file(tmp_path / "hard.bin", header, b"via-hard-link")
    assert read_file(target) == (header, b"via-hard-link")
    assert (tmp_path / "sym.bin").is_symlink()
