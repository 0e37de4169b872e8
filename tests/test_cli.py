import hashlib
import os

import numpy as np
import pytest

from sdgr import cli, costmodel, fileio, games
from sdgr.cli import EXIT_CHECKSUM, EXIT_GUARD, EXIT_OK, EXIT_PARAM_MISMATCH, EXIT_USAGE, main
from sdgr.fileio import HEADER_LEN, MAX_FILE_LEN, Header, crc64, read_file, write_file
from sdgr.kem import pack_bits, rep_len, rep_ring, unpack_bits
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
                 "--seed", "3"]) == EXIT_OK
    assert main(["decaps", "--params", files["params"], "--priv", files["priv"], "--in", files["ct"]]) == EXIT_OK
    enc_key, dec_key = capsys.readouterr().out.strip().splitlines()[-2:]
    assert enc_key == dec_key and len(enc_key) == 64
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


def _chunk_plus_p(payload, index):
    """payload with p added to the first chunk of its index-th ring element
    that stays below 2^w: it passes the CRC and reduces to the same element."""
    size, w = rep_len(P19), P19.field.coeff_bits
    chunks = unpack_bits(payload[index * size : (index + 1) * size], w, 2 * P19.size)
    chunks[np.argmax(chunks + P19.p < 1 << w)] += P19.p
    return payload[: index * size] + pack_bits(chunks, w) + payload[(index + 1) * size :]


def _padding_bit(payload):
    """payload with the last padding bit of its last ring element set."""
    return payload[:-1] + bytes([payload[-1] | 1])


# file to re-seal with a valid CRC -> (header, payload) -> (header, payload)
HOSTILE_FILES = {
    "pub-short": {"pub": lambda h, pl: (h, pl[:-1])},
    "pub-long": {"pub": lambda h, pl: (h, pl + b"\x00")},
    "pub-chunk-plus-p": {"pub": lambda h, pl: (h, _chunk_plus_p(pl, 0))},
    "pub-padding-bit": {"pub": lambda h, pl: (h, _padding_bit(pl))},
    **{
        f"priv-{name}-chunk-plus-p": {"priv": lambda h, pl, i=i: (h, _chunk_plus_p(pl, i))}
        for i, name in enumerate(("s", "a", "gamma", "pk"))
    },
    "priv-gamma-zero": {"priv": lambda h, pl: (h, _swap(pl, 2, P19.zero()))},
    "priv-a-off-cn": {"priv": lambda h, pl: (h, _swap(pl, 1, P19.basis(19)))},
    # unchecked, decaps would re-encrypt under this pk and print a wrong key
    "priv-pk-foreign": {"priv": lambda h, pl: (h, _swap(pl, 3, P19.one()))},
    "ct-l1-byte-1": {"ct": lambda h, pl: (h._replace(l1=8), pl)},
    # the key pair owns l1, so neither key may leave it unset; a ciphertext's
    # l1 is checked against the private key's in test_key_pair_fixes_l1
    "pub-l1-zero": {"pub": lambda h, pl: (h._replace(l1=0), pl)},
    "priv-l1-zero": {"priv": lambda h, pl: (h._replace(l1=0), pl)},
    "priv-l1-byte-2": {
        "priv": lambda h, pl: (h._replace(l1=16), pl),
        "ct": lambda h, pl: (h._replace(l1=0), pl),
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


def test_ciphertext_chunk_plus_p_gives_another_key(tmp_path, capsys):
    # p added to a chunk of either element passes the CRC and decodes to the
    # same ciphertext mod p, but is not its encoding: implicit rejection
    params, priv, pub, ct = _make_files(tmp_path)
    assert main(["encaps", "--params", str(params), "--pub", str(pub), "--out", str(ct), "--seed", "7"]) == EXIT_OK
    decaps = ["decaps", "--params", str(params), "--priv", str(priv), "--in", str(ct)]
    assert main(decaps) == EXIT_OK
    enc_key, dec_key = capsys.readouterr().out.split()[-2:]
    assert enc_key == dec_key
    header, payload = read_file(ct)
    for index in (0, 1):
        bad = _chunk_plus_p(payload, index)
        assert bad != payload
        write_file(ct, header, bad)
        assert main(decaps) == EXIT_OK
        dec_key = capsys.readouterr().out.strip()
        assert len(dec_key) == len(enc_key) and dec_key != enc_key


@pytest.mark.parametrize("l1", (128, 192, 256))
@pytest.mark.parametrize("name", sorted(PARAM_SETS))
def test_key_pair_fixes_l1(tmp_path, capsys, name, l1):
    """encaps and decaps take l1 from the key files: the honest round trip
    prints equal l1-bit keys, and a ciphertext re-sealed with another l1 (a
    shorter one would give a prefix of the key) exits 3 and prints nothing."""
    params, priv, pub, ct = (str(tmp_path / f"{k}.bin") for k in ("params", "priv", "pub", "ct"))
    assert main(["params", "--set", name, "--seed", "1", "--out", params]) == EXIT_OK
    assert main(["keygen", "--params", params, "--out", priv, "--pub", pub, "--l1", str(l1), "--seed", "2"]) == EXIT_OK
    assert read_file(pub)[0].l1 == read_file(priv)[0].l1 == l1
    capsys.readouterr()
    assert main(["encaps", "--params", params, "--pub", pub, "--out", ct, "--seed", "3"]) == EXIT_OK
    header, payload = read_file(ct)
    assert header.l1 == l1
    decaps = ["decaps", "--params", params, "--priv", priv, "--in", ct]
    assert main(decaps) == EXIT_OK
    enc_key, dec_key = capsys.readouterr().out.split()
    assert enc_key == dec_key and len(enc_key) == l1 // 4
    for other in (0, 128, 192, 256):
        if other != l1:
            write_file(ct, header._replace(l1=other), payload)
            assert main(decaps) == EXIT_PARAM_MISMATCH
            out = capsys.readouterr()
            assert out.out == "" and out.err.startswith("error:")


@pytest.mark.parametrize("command", ["params", "keygen", "encaps", "decaps", "kexdemo", "solve-sdpd", "bench"])
def test_encaps_and_decaps_take_no_l1_option(capsys, command):
    """Every command's --help exits 0, and only keygen takes --l1: the key
    pair fixes it, so neither encaps nor decaps can override it."""
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith(f"usage: sdgr {command} ")
    assert ("--l1" in out) == (command == "keygen")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["encaps", "--params", "x", "--pub", "y", "--out", "z", "--l1", "128"], "unrecognized arguments: --l1 128"),
        (["nosuchcmd"], "invalid choice: 'nosuchcmd'"),
        (["keygen", "--params", "x"], "the following arguments are required: --out, --pub"),
        (["params", "--set", "p19", "--seed", "abc", "--out", "x"], "invalid int value: 'abc'"),
    ],
)
def test_usage_errors_exit_1(capsys, argv, message):
    """An unknown command or option, or a missing or malformed argument,
    exits EXIT_USAGE with the usage line, not argparse's 2, which is
    EXIT_CHECKSUM here: a mistyped flag is not a corrupted file."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: sdgr") and message in captured.err


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
    # the parties agree at every set, seeded and from random.SystemRandom
    for name in sorted(PARAM_SETS):
        for seed in (["--seed", "1"], []):
            assert main(["kexdemo", "--set", name, *seed]) == EXIT_OK
            assert capsys.readouterr().out.endswith("\nkeys match\n")
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


# the exhaustive toy solve's witness count at each seed; every run finds
# the planted witness and recovers the CSDP key from each witness it lists
SOLVE_SDPD_WITNESSES = {1: 6, 2: 18, 3: 18, 4: 18, 5: 6}


@pytest.mark.parametrize("seed", sorted(SOLVE_SDPD_WITNESSES))
def test_solve_sdpd_toy(seed, capsys):
    assert main(["solve-sdpd", "--set", "toy", "--seed", str(seed)]) == EXIT_OK
    assert capsys.readouterr().out == (
        f"witnesses={SOLVE_SDPD_WITNESSES[seed]}\nplanted_witness_found=true\ncsdp_key_recovered=true\n"
    )


def test_solve_sdpd_guard(capsys):
    assert main(["solve-sdpd", "--set", "p19", "--seed", "5"]) == EXIT_GUARD
    assert "guard" in capsys.readouterr().err


def test_bench(capsys):
    # at every set: 4n^2 field additions and multiplications per product (the
    # twist costs f = 0), none per adjunct, and 2n additions per addition
    for name, (p, n) in sorted(PARAM_SETS.items()):
        assert main(["bench", "--set", name]) == EXIT_OK
        assert capsys.readouterr().out == (
            f"set={name} p={p} n={n} frobenius_mul_cost=0\n"
            f"product_field_adds={4 * n * n} model={4 * n * n}\n"
            f"product_field_muls={4 * n * n} model={4 * n * n}\n"
            "adjunct_field_muls=0 model=0\n"
            f"addition_field_adds={2 * n} model={2 * n}\n"
            "cost_model_ok=true\n"
        )


def test_bench_exits_1_when_a_count_misses_the_model(capsys, monkeypatch):
    model = costmodel.product_cost_model
    monkeypatch.setattr(costmodel, "product_cost_model", lambda n, f: (model(n, f)[0] + 1, model(n, f)[1]))
    assert main(["bench", "--set", "p19"]) == 1
    out = capsys.readouterr().out
    assert "product_field_adds=1444 model=1445\n" in out
    assert out.endswith("\ncost_model_ok=false\n")


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


def test_rewriting_shorter_files_in_place(tmp_path, capsys):
    """p41 files, then shorter p19 files and a shorter ciphertext, written to
    the same paths: each rewrite is cut to its own length, so every decaps
    reads the files just written and prints the key of the encaps before it.
    The 128-bit round re-keys, since the key pair fixes l1."""
    params, priv, pub, ct = (str(tmp_path / f"{k}.bin") for k in ("params", "priv", "pub", "ct"))
    keys = ["keygen", "--params", params, "--out", priv, "--pub", pub, "--seed", "2", "--l1"]
    assert main(["params", "--set", "p41", "--seed", "1", "--out", params]) == EXIT_OK
    assert main(keys + ["256"]) == EXIT_OK
    assert main(["encaps", "--params", params, "--pub", pub, "--out", ct, "--seed", "3"]) == EXIT_OK
    sizes = {path: os.path.getsize(path) for path in (params, priv, pub, ct)}
    assert main(["params", "--set", "p19", "--seed", "1", "--out", params]) == EXIT_OK
    for l1, seed in (("256", "4"), ("128", "5")):
        assert main(keys + [l1]) == EXIT_OK
        capsys.readouterr()
        assert main(["encaps", "--params", params, "--pub", pub, "--out", ct, "--seed", seed]) == EXIT_OK
        enc_key = capsys.readouterr().out.strip()
        assert main(["decaps", "--params", params, "--priv", priv, "--in", ct]) == EXIT_OK
        assert capsys.readouterr().out.strip() == enc_key
    assert all(os.path.getsize(path) < size for path, size in sizes.items())
    assert main(["encaps", "--params", params, "--pub", pub, "--out", os.devnull]) == EXIT_OK


def test_private_key_is_created_owner_only(tmp_path, capsys):
    old_umask = os.umask(0o022)
    try:
        _, priv, pub, _ = _make_files(tmp_path)
    finally:
        os.umask(old_umask)
    assert priv.stat().st_mode & 0o077 == 0
    assert pub.stat().st_mode & 0o777 == 0o644


def test_rekeying_makes_a_readable_private_key_owner_only(tmp_path, capsys):
    # a private key left world-readable (by cp, or by an older sdgr) loses
    # its group and other bits when keygen writes over it; the public key
    # keeps its mode
    _, priv, pub, _ = _make_files(tmp_path)
    priv.chmod(0o644)
    pub.chmod(0o644)
    _make_files(tmp_path, seed="43")
    assert priv.stat().st_mode & 0o777 == 0o600
    assert pub.stat().st_mode & 0o777 == 0o644


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
        lambda rep, ring: _chunk_plus_p(rep, 0),  # h's encoding with a chunk >= p
        lambda rep, ring: _padding_bit(rep),
    ],
    ids=["short", "long", "h-not-mixed", "chunk-plus-p", "padding-bit"],
)
def test_malformed_params_payload_exits_3(tmp_path, capsys, p19_h_payload, mangle):
    payload = mangle(p19_h_payload, SkewRing(19, 19))
    code, err = _keygen_exit(tmp_path, Header(p=19, m=1, n=19, lam=2, l1=0), payload, capsys)
    assert code == EXIT_PARAM_MISMATCH
    assert "malformed params file" in err


@pytest.mark.parametrize("l1", [8, 128, 256, 2040])
def test_params_header_with_an_l1_exits_3(tmp_path, capsys, p19_h_payload, l1):
    # a params file names no session-key length: its header l1 is 0
    code, err = _keygen_exit(tmp_path, Header(p=19, m=1, n=19, lam=2, l1=l1), p19_h_payload, capsys)
    assert code == EXIT_PARAM_MISMATCH
    assert "unsupported parameters" in err
    assert _keygen_exit(tmp_path, Header(p=19, m=1, n=19, lam=2, l1=0), p19_h_payload, capsys)[0] == EXIT_OK


def test_cli_import_leaves_games_and_costmodel_unloaded(run_python):
    """Only solve-sdpd and bench need games and costmodel, and only the
    pair_product oracle and the cost model need dihedral, so every other
    command's process start skips importing them; nor does it import
    dataclasses or build a dataclass (after numpy, which may load the module
    itself, as the check allows)."""
    code = (
        "import sys, numpy; before = 'dataclasses' in sys.modules; import sdgr.cli; "
        "sdgr_mods = sorted(m for m in sys.modules if m == 'sdgr' or m.startswith('sdgr.')); "
        "built = sorted({f'{v.__module__}.{v.__name__}' for m in sdgr_mods for v in vars(sys.modules[m]).values() "
        "if isinstance(v, type) and '__dataclass_fields__' in vars(v)}); "
        "print(sdgr_mods, built, before or 'dataclasses' not in sys.modules)"
    )
    out = run_python("-c", code)
    assert out.returncode == 0, out.stderr
    modules = ["sdgr"] + [f"sdgr.{m}" for m in ("cli", "field", "fileio", "kem", "kex", "params", "pke", "skewring")]
    assert out.stdout.strip() == f"{modules} [] True"
