import pytest

from sdgr.cli import EXIT_CHECKSUM, EXIT_GUARD, EXIT_OK, EXIT_PARAM_MISMATCH, main
from sdgr.fileio import HEADER_LEN, Header, crc64, write_file
from sdgr.kem import rep_ring
from sdgr.params import make_params
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
    data = bytearray(ct.read_bytes())
    data[HEADER_LEN + 5] ^= 0x10
    body = bytes(data[:-8])
    ct.write_bytes(body + crc64(body).to_bytes(8, "big"))
    assert main(["decaps", "--params", str(params), "--priv", str(priv), "--in", str(ct)]) == EXIT_OK
    dec_key = capsys.readouterr().out.strip()
    assert dec_key != enc_key


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


def test_solve_sdpd_toy(capsys):
    assert main(["solve-sdpd", "--set", "toy", "--seed", "5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "planted_witness_found=true" in out
    assert "csdp_key_recovered=true" in out


def test_solve_sdpd_guard(capsys):
    assert main(["solve-sdpd", "--set", "p19", "--seed", "5"]) == EXIT_GUARD
    assert "guard" in capsys.readouterr().err


def test_bench(capsys):
    assert main(["bench", "--set", "p19", "--seed", "0"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "product_field_adds=1444 model=1444" in out
    assert "product_field_muls=1444 model=1444" in out
    assert "adjunct_field_muls=0 model=0" in out
    assert "addition_field_adds=38 model=38" in out
    assert "cost_model_ok=true" in out


def test_missing_file_exits_1(tmp_path, capsys):
    missing = str(tmp_path / "nope.bin")
    assert main(["keygen", "--params", missing, "--out", "x", "--pub", "y"]) == 1


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
