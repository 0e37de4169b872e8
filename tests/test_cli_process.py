"""Every sdgr command in a real child process.

Each check runs `python -m sdgr.cli`, which runs the same `sys.exit(main())`
as the installed console script, with sdgr imported from this checkout's
src; the entry-point lookup is all the script adds, and CI runs `sdgr --help`
for that.  tests/test_cli.py repeats the commands in-process over more sets
and seeds.
"""

import re

import pytest

from sdgr.cli import EXIT_OK, EXIT_PARAM_MISMATCH, EXIT_USAGE
from sdgr.fileio import read_file, write_file
from sdgr.params import PARAM_SETS


@pytest.fixture(scope="session")
def sdgr(run_python):
    """Run `sdgr *args` in a child process."""
    return lambda *args: run_python("-m", "sdgr.cli", *args)


def _ok(result) -> str:
    assert result.returncode == EXIT_OK, result.stderr
    return result.stdout


def _decaps(sdgr, params, priv, ct):
    return sdgr("decaps", "--params", params, "--priv", priv, "--in", ct)


@pytest.fixture(scope="module", params=sorted(PARAM_SETS))
def kem_files(request, sdgr, tmp_path_factory):
    """One set's files, params at seed 1 and an unseeded key pair and
    ciphertext, and the key encaps printed."""
    d = tmp_path_factory.mktemp(request.param)
    params, priv, pub, ct = (str(d / f"{k}.bin") for k in ("params", "priv", "pub", "ct"))
    _ok(sdgr("params", "--set", request.param, "--seed", "1", "--out", params))
    _ok(sdgr("keygen", "--params", params, "--out", priv, "--pub", pub))
    key = _ok(sdgr("encaps", "--params", params, "--pub", pub, "--out", ct)).strip()
    return params, priv, ct, key


def test_help(sdgr):
    out = _ok(sdgr("--help"))
    assert out.startswith("usage: sdgr ") and "{params,keygen,encaps,decaps,kexdemo,solve-sdpd,bench}" in out


def test_usage_error_exits_1(sdgr):
    out = sdgr("encaps", "--params", "x", "--pub", "y", "--out", "z", "--l1", "128")
    assert out.returncode == EXIT_USAGE and out.stdout == ""
    assert "unrecognized arguments: --l1 128" in out.stderr


def test_decaps_prints_the_key_encaps_printed(kem_files, sdgr):
    params, priv, ct, key = kem_files
    assert re.fullmatch("[0-9a-f]{32}", key)
    assert _ok(_decaps(sdgr, params, priv, ct)) == f"{key}\n"


@pytest.mark.parametrize("kem_files", ["p19", "p23", "p31"], indirect=True)
def test_padding_bits_set_give_another_key(kem_files, sdgr, tmp_path):
    """The lowest padding bit of both ciphertext rows, clear in the honest
    encoding, set and re-sealed: decaps rejects the non-canonical encoding
    implicitly, exiting 0 with another key."""
    params, priv, ct, key = kem_files
    header, payload = read_file(ct)
    payload, size = bytearray(payload), len(payload) // 2
    for end in (size, 2 * size):
        assert not payload[end - 1] & 1
        payload[end - 1] |= 1
    bad = str(tmp_path / "ct.bin")
    write_file(bad, header, bytes(payload))
    other = _ok(_decaps(sdgr, params, priv, bad)).strip()
    assert re.fullmatch("[0-9a-f]{32}", other) and other != key


def test_key_pair_fixes_l1(sdgr, tmp_path):
    """At p41, keygen --l1 256 gives a 64-hex round trip; a ciphertext whose
    header l1 is re-sealed as 128 makes decaps exit 3 and print nothing
    (reading the ciphertext's l1 would print the key's first 32 hex digits)."""
    params, priv, pub, ct = (str(tmp_path / f"{k}.bin") for k in ("params", "priv", "pub", "ct"))
    _ok(sdgr("params", "--set", "p41", "--seed", "1", "--out", params))
    _ok(sdgr("keygen", "--params", params, "--out", priv, "--pub", pub, "--l1", "256"))
    key = _ok(sdgr("encaps", "--params", params, "--pub", pub, "--out", ct)).strip()
    assert re.fullmatch("[0-9a-f]{64}", key)
    assert _ok(_decaps(sdgr, params, priv, ct)) == f"{key}\n"
    header, payload = read_file(ct)
    write_file(ct, header._replace(l1=128), payload)
    out = _decaps(sdgr, params, priv, ct)
    assert out.returncode == EXIT_PARAM_MISMATCH and out.stdout == ""


def test_kexdemo(sdgr):
    assert _ok(sdgr("kexdemo", "--set", "p19")).endswith("\nkeys match\n")


def test_solve_sdpd(sdgr):
    lines = _ok(sdgr("solve-sdpd", "--set", "toy", "--seed", "1")).splitlines()
    assert "planted_witness_found=true" in lines and "csdp_key_recovered=true" in lines


def test_bench(sdgr):
    assert _ok(sdgr("bench", "--set", "p19")).endswith("\ncost_model_ok=true\n")
