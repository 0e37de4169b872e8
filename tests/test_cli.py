import hashlib
from dataclasses import replace

import numpy as np
import pytest

from sdgr import cli, fileio, games
from sdgr.cli import EXIT_CHECKSUM, EXIT_GUARD, EXIT_OK, EXIT_PARAM_MISMATCH, main
from sdgr.fileio import HEADER_LEN, MAX_FILE_LEN, Header, crc64, read_file, write_file
from sdgr.kem import rep_len, rep_ring
from sdgr.params import PARAM_SETS, make_params
from sdgr.skewring import SkewRing


def _make_files(tmp_path, l1="128", seed="42"):
    params = tmp_path / "params.bin"
    priv = tmp_path / "priv.bin"
    pub = tmp_path / "pub.bin"
    ct = tmp_path / "ct.bin"
    assert main(["params", "--set", "p19", "--seed", seed, "--out", str(params)]) == EXIT_OK
    assert (
        main(
            ["keygen", "--params", str(params), "--out", str(priv), "--pub", str(pub), "--l1", l1, "--seed", seed]
        )
        == EXIT_OK
    )
    return params, priv, pub, ct


def test_full_pipeline(tmp_path, capsys):
    params, priv, pub, ct = _make_files(tmp_path)
    assert (
        main(["encaps", "--params", str(params), "--pub", str(pub), "--out", str(ct), "--seed", "7"])
        == EXIT_OK
    )
    enc_key = capsys.readouterr().out.strip().splitlines()[-1]
    assert main(["decaps", "--params", str(params), "--priv", str(priv), "--in", str(ct)]) == EXIT_OK
    dec_key = capsys.readouterr().out.strip().splitlines()[-1]
    assert enc_key == dec_key
    assert len(enc_key) == 32  # 128-bit key, lowercase hex
    assert enc_key == enc_key.lower()


def test_corrupted_ciphertext_exits_2(tmp_path, capsys):
    params, priv, pub, ct = _make_files(tmp_path)
    assert (
        main(["encaps", "--params", str(params), "--pub", str(pub), "--out", str(ct), "--seed", "7"])
        == EXIT_OK
    )
    capsys.readouterr()
    data = bytearray(ct.read_bytes())
    data[HEADER_LEN + 5] ^= 0x10
    ct.write_bytes(bytes(data))
    assert main(["decaps", "--params", str(params), "--priv", str(priv), "--in", str(ct)]) == EXIT_CHECKSUM
    out = capsys.readouterr()
    assert out.out.strip() == ""  # no key printed
    assert "checksum" in out.err


def test_attacker_repaired_checksum_gives_wrong_key(tmp_path, capsys):
    params, priv, pub, ct = _make_files(tmp_path)
    assert (
        main(["encaps", "--params", str(params), "--pub", str(pub), "--out", str(ct), "--seed", "7"])
        == EXIT_OK
    )
    enc_key = capsys.readouterr().out.strip().splitlines()[-1]
    honest = ct.read_bytes()[:-8]
    flipped = bytearray(honest)
    flipped[HEADER_LEN + 5] ^= 0x10
    # a payload of the right length and one a byte short: both are rejected implicitly
    for body in (bytes(flipped), honest[:-1]):
        ct.write_bytes(body + crc64(body).to_bytes(8, "big"))
        assert main(["decaps", "--params", str(params), "--priv", str(priv), "--in", str(ct)]) == EXIT_OK
        dec_key = capsys.readouterr().out.strip()
        assert len(dec_key) == len(enc_key) and dec_key != enc_key


def test_oversized_ciphertext_exits_2(tmp_path, capsys, monkeypatch):
    params, priv, pub, ct = _make_files(tmp_path)
    write_file(ct, Header(p=19, m=1, n=19, lam=2, l1=128), bytes(4 << 20))  # CRC-valid, 4 MB
    capsys.readouterr()
    crc64_of_any_length = fileio.crc64

    def crc64_of_bounded_length(data):
        assert len(data) <= MAX_FILE_LEN, "the checksum ran over an oversized file"
        return crc64_of_any_length(data)

    monkeypatch.setattr(fileio, "crc64", crc64_of_bounded_length)
    code = main(["decaps", "--params", str(params), "--priv", str(priv), "--in", str(ct)])
    out = capsys.readouterr()
    assert code == EXIT_CHECKSUM
    assert out.out == "" and "longer than" in out.err


@pytest.mark.parametrize("name", sorted(PARAM_SETS))
def test_every_file_kind_fits_under_the_size_cap(tmp_path, capsys, name):
    files = {k: str(tmp_path / f"{k}.bin") for k in ("params", "priv", "pub", "ct")}
    assert main(["params", "--set", name, "--seed", "1", "--out", files["params"]]) == EXIT_OK
    assert main(["keygen", "--params", files["params"], "--out", files["priv"], "--pub", files["pub"],
                 "--l1", "256", "--seed", "2"]) == EXIT_OK
    assert main(["encaps", "--params", files["params"], "--pub", files["pub"], "--out", files["ct"],
                 "--l1", "256", "--seed", "3"]) == EXIT_OK
    assert main(["decaps", "--params", files["params"], "--priv", files["priv"], "--in", files["ct"]]) == EXIT_OK
    enc_key, dec_key = capsys.readouterr().out.strip().splitlines()[-2:]
    assert enc_key == dec_key
    sizes = {k: (tmp_path / f"{k}.bin").stat().st_size for k in files}
    elements = {"params": 1, "pub": 1, "ct": 2, "priv": 4}
    ring = SkewRing(*PARAM_SETS[name])
    assert sizes == {k: HEADER_LEN + count * rep_len(ring) + 8 for k, count in elements.items()}
    assert max(sizes.values()) <= MAX_FILE_LEN


P19 = SkewRing(19, 19)


def _swap(payload, index, element):
    """payload with its index-th ring element replaced by `element`."""
    size = rep_len(P19)
    return payload[: index * size] + rep_ring(element) + payload[(index + 1) * size :]


# file to re-seal with a valid CRC -> (header, payload) -> (header, payload)
HOSTILE_FILES = {
    "pub-short": {"pub": lambda h, pl: (h, pl[:-1])},
    "pub-long": {"pub": lambda h, pl: (h, pl + b"\x00")},
    "priv-gamma-zero": {"priv": lambda h, pl: (h, _swap(pl, 2, P19.zero()))},
    "priv-a-off-cn": {"priv": lambda h, pl: (h, _swap(pl, 1, P19.basis(19)))},
    "ct-l1-byte-1": {"ct": lambda h, pl: (replace(h, l1=8), pl)},
    "priv-l1-byte-2": {
        "priv": lambda h, pl: (replace(h, l1=16), pl),
        "ct": lambda h, pl: (replace(h, l1=0), pl),
    },
}


@pytest.mark.parametrize("case", sorted(HOSTILE_FILES))
def test_hostile_key_or_ciphertext_exits_3(tmp_path, capsys, case):
    params, priv, pub, ct = _make_files(tmp_path)
    encaps = ["encaps", "--params", str(params), "--pub", str(pub), "--out", str(ct), "--seed", "7"]
    assert main(encaps) == EXIT_OK
    capsys.readouterr()
    paths = {"priv": priv, "pub": pub, "ct": ct}
    for name, mangle in HOSTILE_FILES[case].items():
        write_file(paths[name], *mangle(*read_file(paths[name])))
    if "pub" in HOSTILE_FILES[case]:
        code = main(encaps)
    else:
        code = main(["decaps", "--params", str(params), "--priv", str(priv), "--in", str(ct)])
    out = capsys.readouterr()
    assert code == EXIT_PARAM_MISMATCH
    assert out.err.startswith("error:")
    assert "Traceback" not in out.err
    assert out.out == ""


def test_param_mismatch_exits_3(tmp_path, capsys):
    params, priv, pub, ct = _make_files(tmp_path)
    other = tmp_path / "other.bin"
    assert main(["params", "--set", "p23", "--seed", "1", "--out", str(other)]) == EXIT_OK
    capsys.readouterr()
    assert (
        main(["encaps", "--params", str(other), "--pub", str(pub), "--out", str(ct), "--seed", "7"])
        == EXIT_PARAM_MISMATCH
    )


def test_kexdemo(capsys):
    assert main(["kexdemo", "--set", "p19", "--seed", "13"]) == EXIT_OK
    out1 = capsys.readouterr().out
    assert "keys match" in out1
    assert main(["kexdemo", "--set", "p19", "--seed", "13"]) == EXIT_OK
    assert capsys.readouterr().out == out1  # reproducible transcript


def test_cli_secrets_do_not_replay_the_draws_of_h(capsys, monkeypatch):
    """One --seed feeds one generator: h is drawn first and the secrets after
    it, so no secret a repeats the C_n half of h."""
    seen = []
    real_challenge = games.sdpd_challenge

    def spy_challenge(gp, rng):
        inst, witness = real_challenge(gp, rng)
        seen.append((gp.h, witness[0]))
        return inst, witness

    class SpySession(cli.KexSession):
        def __init__(self, params, *args):
            super().__init__(params, *args)
            seen.append((params.h, self._secret.a))

    monkeypatch.setattr(games, "sdpd_challenge", spy_challenge)
    monkeypatch.setattr(cli, "KexSession", SpySession)
    assert main(["solve-sdpd", "--set", "toy", "--seed", "5"]) == EXIT_OK
    assert main(["kexdemo", "--set", "p19", "--seed", "13"]) == EXIT_OK
    assert len(seen) == 3
    for h, a in seen:
        n = h.ring.n
        assert not np.array_equal(a.coeffs[:n], h.coeffs[:n])


def test_solve_sdpd_toy(capsys):
    assert main(["solve-sdpd", "--set", "toy", "--seed", "5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "planted_witness_found=true" in out
    assert "csdp_key_recovered=true" in out


def test_solve_sdpd_guard(capsys):
    assert main(["solve-sdpd", "--set", "p19", "--seed", "5"]) == EXIT_GUARD
    assert "guard" in capsys.readouterr().err


def test_bench(capsys):
    assert main(["bench", "--set", "p19"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "product_field_adds=1444 model=1444" in out
    assert "product_field_muls=1444 model=1444" in out
    assert "adjunct_field_muls=0 model=0" in out
    assert "addition_field_adds=38 model=38" in out
    assert "cost_model_ok=true" in out


# SHAKE256 of each file the CLI writes for p19 (params and keygen at seed 42,
# encaps at seed 7); the wire format and every scheme output behind it are frozen
WIRE_KAT = {
    "params": "ad5cc2fdde73949f93b13742ecf5c31669ff8c96b6009a2375174b2820a82783",
    "priv": "b6c1be0ff92be668af17bc762b946090ea7a1b076d5c1bb15a807f776ae44f8f",
    "pub": "0d8352df0ac1361733cb8548b20ba2669d6957192f89467264d1754f5368d668",
    "ct": "96b9f1f7298d7fbc1230e02e25e3b4a3d8cb4b5757cf6ec6accb08f9470f7995",
}


def test_written_files_match_known_answers(tmp_path, capsys):
    params, priv, pub, ct = _make_files(tmp_path)
    assert main(["encaps", "--params", str(params), "--pub", str(pub), "--out", str(ct), "--seed", "7"]) == EXIT_OK
    files = {"params": params, "priv": priv, "pub": pub, "ct": ct}
    assert {k: hashlib.shake_256(path.read_bytes()).hexdigest(32) for k, path in files.items()} == WIRE_KAT


def test_missing_file_exits_1(tmp_path, capsys):
    missing = str(tmp_path / "nope.bin")
    assert main(["keygen", "--params", missing, "--out", "x", "--pub", "y"]) == 1


def test_unreadable_file_exits_1(tmp_path, capsys):
    code = main(["keygen", "--params", str(tmp_path), "--out", "x", "--pub", "y"])  # a directory
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err


def test_toy_warning(tmp_path, capsys):
    out = tmp_path / "toy.bin"
    assert main(["params", "--set", "toy", "--seed", "1", "--out", str(out)]) == EXIT_OK
    assert "desk-scale" in capsys.readouterr().err


def _keygen_exit(tmp_path, header, payload, capsys):
    path = tmp_path / "params.bin"
    write_file(path, header, payload)
    priv, pub = tmp_path / "priv.bin", tmp_path / "pub.bin"
    code = main(["keygen", "--params", str(path), "--out", str(priv), "--pub", str(pub)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, err


@pytest.mark.parametrize(
    "p,m,n,lam",
    [
        (19, 2, 19, 2),  # extension degree other than 1
        (2147483647, 1, 1, 7),  # beyond the exact-float64 bound
        (19, 1, 20, 2),  # n not in any parameter set
        (19, 1, 10**4, 2),  # a ring this size needs about 15 GB
        (21, 1, 21, 2),  # p not prime
        (19, 1, 19, 3),  # a non-residue, but not the canonical lambda
    ],
)
def test_unsupported_params_header_exits_3(tmp_path, capsys, monkeypatch, p, m, n, lam):
    def no_ring(*args, **kwargs):
        raise AssertionError("a ring was built from an unchecked header")

    monkeypatch.setattr(SkewRing, "__init__", no_ring)
    code, err = _keygen_exit(tmp_path, Header(p=p, m=m, n=n, lam=lam, l1=0), bytes(10), capsys)
    assert code == EXIT_PARAM_MISMATCH
    assert "unsupported parameters" in err


@pytest.fixture(scope="module")
def p19_h_payload():
    return rep_ring(make_params("p19", seed=3).h)


@pytest.mark.parametrize(
    "mangle",
    [
        lambda rep, ring: rep[:-1],  # payload one byte short
        lambda rep, ring: rep + b"\x00",  # payload one byte long
        lambda rep, ring: rep_ring(ring.one()),  # h supported on C_n only
    ],
    ids=["short", "long", "h-not-mixed"],
)
def test_malformed_params_payload_exits_3(tmp_path, capsys, p19_h_payload, mangle):
    payload = mangle(p19_h_payload, SkewRing(19, 19))
    code, err = _keygen_exit(tmp_path, Header(p=19, m=1, n=19, lam=2, l1=0), payload, capsys)
    assert code == EXIT_PARAM_MISMATCH
    assert "malformed params file" in err
