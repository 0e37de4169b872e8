"""Command-line front end.

Commands: params, keygen, encaps, decaps, kexdemo, solve-sdpd, bench.
Every command but bench draws all its randomness from one generator, seeded
by --seed or, without one, by system entropy; bench checks the cost model on
fixed inputs and times nothing (perfbench/ is the benchmark).  keygen --l1
sets the session-key length; encaps and decaps read it from the key files.
Exit codes: 0 success, 1 usage error, unreadable file or failed self-check
(bench's counts miss the cost model, or kexdemo's keys differ), 2 checksum
failure, bad file format, or a file longer than 1024 bytes (sdgr writes none
that long), 3 a file that passes its checksum but does not fit the parameters,
4 solver guard violation.  Exit 3 covers: a params file that names no supported
parameter set, has a header l1 other than 0, or holds a malformed h; a key or
ciphertext header that differs from the params file's or whose l1 is not 128,
192 or 256, or a ciphertext's l1 other than the private key's; a params or key
payload that is not the canonical encoding of its elements (wrong length, a
coefficient chunk >= p, or a padding bit set); a private key whose a is not a
non-zero element of C_n or whose gamma is not a non-zero reversible element, or
whose pk is not the public value a * h * gamma of that secret.  A ciphertext
payload of any length under the file-size cap gets a key by implicit rejection.
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import List, Optional

from . import fileio, kem
from .kex import KexSession, SecretPair, public_value
from .field import find_lambda
from .params import PARAM_SETS, VALID_L1, Params, make_params, make_rng
from .skewring import SkewRing

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECKSUM = 2
EXIT_PARAM_MISMATCH = 3
EXIT_GUARD = 4


# -- file helpers --------------------------------------------------------------
# The header's m byte is the field's extension degree; the wire format keeps
# it, and the only supported value is 1.


class ParameterError(Exception):
    """A CRC-valid file whose header or payload does not fit the parameters."""


def _params_header(params: Params, l1: int = 0) -> fileio.Header:
    ring = params.ring
    return fileio.Header(p=ring.p, m=1, n=ring.n, lam=ring.field.lam, l1=l1)


def _load_params_file(path: str) -> Params:
    header, payload = fileio.read_file(path)
    p, n, lam = header.p, header.n, header.lam
    # checked before any ring is built: ring construction costs O(n^2) memory
    if header.m != 1 or header.l1 or (p, n) not in PARAM_SETS.values() or lam != find_lambda(p):
        raise ParameterError(f"unsupported parameters p={p}, m={header.m}, n={n}, lambda={lam}, l1={header.l1}")
    ring = SkewRing(p, n)
    try:
        return Params(ring=ring, h=kem.decode_elements(ring, payload, 1)[0])
    except ValueError as exc:
        raise ParameterError(f"malformed params file: {exc}") from exc


def _read_checked(path: str, params: Params, l1: int = 0) -> tuple[int, bytes]:
    """The l1 and payload of a key or ciphertext file whose header is exactly
    the one written for `params` and an l1 in VALID_L1, `l1` if given."""
    header, payload = fileio.read_file(path)
    if header.l1 not in VALID_L1 or header != _params_header(params, l1 or header.l1):
        raise ParameterError(f"{path}: header {header} does not match the parameters")
    return header.l1, payload


# -- commands ------------------------------------------------------------------


def cmd_params(args) -> int:
    if args.set == "toy":
        print("warning: toy parameters are desk-scale only", file=sys.stderr)
    params = make_params(args.set, seed=args.seed)
    header = _params_header(params)
    fileio.write_file(args.out, header, kem.rep_ring(params.h))
    print(f"wrote {args.out} (p={header.p}, m={header.m}, n={header.n}, lambda={header.lam})")
    return EXIT_OK


def cmd_keygen(args) -> int:
    params = _load_params_file(args.params)
    priv, pk_bytes = kem.kem_keygen(params, make_rng(args.seed))
    payload = (
        kem.rep_ring(priv.s)
        + kem.rep_ring(priv.sk.a)
        + kem.rep_ring(priv.sk.gamma)
        + pk_bytes
    )
    fileio.write_file(args.out, _params_header(params, args.l1), payload, mode=0o600)
    fileio.write_file(args.pub, _params_header(params, args.l1), pk_bytes)
    print(f"wrote {args.out} and {args.pub}")
    return EXIT_OK


def cmd_encaps(args) -> int:
    params = _load_params_file(args.params)
    l1, pk_bytes = _read_checked(args.pub, params)
    try:  # kem_encaps decodes pk_bytes, and raises ValueError unless they are rep(pk)
        ct, key = kem.kem_encaps(pk_bytes, params, make_rng(args.seed), l1=l1)
    except ValueError as exc:
        raise ParameterError(f"{args.pub}: malformed payload: {exc}") from exc
    fileio.write_file(args.out, _params_header(params, l1), ct)
    print(key.hex())
    return EXIT_OK


def cmd_decaps(args) -> int:
    params = _load_params_file(args.params)
    l1, payload = _read_checked(args.priv, params)
    try:
        s, a, gamma, pk = kem.decode_elements(params.ring, payload, 4)
        sk = SecretPair(a=a, gamma=gamma)
    except ValueError as exc:
        raise ParameterError(f"{args.priv}: malformed private key: {exc}") from exc
    if pk != public_value(params, sk):
        raise ParameterError(f"{args.priv}: pk is not the public value of the secret pair")
    # the ciphertext payload goes to kem_decaps unchecked: a wrong length is
    # rejected implicitly like any other bad ciphertext
    _, ct = _read_checked(args.infile, params, l1)
    key = kem.kem_decaps(kem.KemPrivate(s=s, sk=sk, pk=pk), ct, params, l1=l1)
    print(key.hex())
    return EXIT_OK


def cmd_kexdemo(args) -> int:
    rng = make_rng(args.seed)
    params = make_params(args.set, rng=rng)
    alice = KexSession(params, b"P_i", b"session-0", rng)
    bob = KexSession(params, b"P_j", b"session-0", rng)
    print(f"pk_i={kem.rep_ring(alice.message.pk).hex()}")
    print(f"pk_j={kem.rep_ring(bob.message.pk).hex()}")
    k_i = alice.derive(bob.message)
    k_j = bob.derive(alice.message)
    print(f"k_i={kem.rep_ring(k_i).hex()}")
    print(f"k_j={kem.rep_ring(k_j).hex()}")
    if k_i != k_j:
        print("keys DIFFER", file=sys.stderr)
        return 1
    print("keys match")
    return EXIT_OK


def cmd_solve_sdpd(args) -> int:
    from . import games  # imported here: no other command needs it at start-up

    rng = make_rng(args.seed)
    params = make_params(args.set, rng=rng)
    if games.sdpd_search_space(params.ring) > games.SEARCH_SPACE_GUARD:
        print("error: search space exceeds the desk-scale guard", file=sys.stderr)
        return EXIT_GUARD
    inst, witness = games.sdpd_challenge(params, rng)
    found = games.sdpd_bruteforce(inst)
    planted_found = any(a == witness[0] and g == witness[1] for a, g in found)
    print(f"witnesses={len(found)}")
    print(f"planted_witness_found={str(planted_found).lower()}")
    csdp_inst, k = games.csdp_challenge(params, rng)
    solutions = games.sdpd_bruteforce(
        games.SdpdInstance(params=params, pk=csdp_inst.pk1)
    )
    recovered = all(
        games.csdp_verify(csdp_inst, games.csdp_key_from_witness(csdp_inst, a, g))
        for a, g in solutions
    )
    print(f"csdp_key_recovered={str(recovered).lower()}")
    return EXIT_OK


def cmd_bench(args) -> int:
    from . import costmodel  # imported here: no other command needs it at start-up

    ring = SkewRing(*PARAM_SETS[args.set])
    rng = random.Random(1)
    a = ring.sample_ring(rng)
    b = ring.sample_ring(rng)

    f = costmodel.frobenius_mul_cost(ring.field)
    cf = costmodel.CountingField(ring.field)
    costmodel.counted_product(ring, cf, a, b)
    prod_adds, prod_muls = cf.count.adds, cf.count.muls
    cf.count.reset()
    costmodel.counted_adjunct(ring, cf, a)
    adj_muls = cf.count.muls
    cf.count.reset()
    costmodel.counted_addition(ring, cf, a, b)
    add_adds = cf.count.adds

    model_adds, model_muls = costmodel.product_cost_model(ring.n, f)
    checks = [
        ("product_field_adds", prod_adds, model_adds),
        ("product_field_muls", prod_muls, model_muls),
        ("adjunct_field_muls", adj_muls, costmodel.adjunct_cost_model(ring.n, f)),
        ("addition_field_adds", add_adds, costmodel.addition_cost_model(ring.n)),
    ]
    print(f"set={args.set} p={ring.p} n={ring.n} frobenius_mul_cost={f}")
    for label, counted, model in checks:
        print(f"{label}={counted} model={model}")
    ok = all(counted == model for _, counted, model in checks)
    print(f"cost_model_ok={str(ok).lower()}")
    return EXIT_OK if ok else 1


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        """Exit EXIT_USAGE, not argparse's 2 (EXIT_CHECKSUM); subcommand parsers are of this class too."""
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sdgr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    sets = sorted(PARAM_SETS)

    p = sub.add_parser("params", help="generate a parameter file with a public h")
    p.add_argument("--set", required=True, choices=sets)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("keygen", help="generate a KEM keypair")
    p.add_argument("--params", required=True)
    p.add_argument("--out", required=True, help="private key file (made owner-only: 0600)")
    p.add_argument("--pub", required=True, help="public key file")
    p.add_argument("--l1", type=int, default=128, choices=VALID_L1)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("encaps", help="encapsulate a session key")
    p.add_argument("--params", required=True)
    p.add_argument("--pub", required=True)
    p.add_argument("--out", required=True, help="ciphertext file")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_encaps)

    p = sub.add_parser("decaps", help="decapsulate a session key")
    p.add_argument("--params", required=True)
    p.add_argument("--priv", required=True)
    p.add_argument("--in", dest="infile", required=True, help="ciphertext file")
    p.set_defaults(func=cmd_decaps)

    p = sub.add_parser("kexdemo", help="run both sides of the key exchange in-process")
    p.add_argument("--set", required=True, choices=sets)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_kexdemo)

    p = sub.add_parser("solve-sdpd", help="exhaustive decomposition solver (toy scale)")
    p.add_argument("--set", default="toy", choices=sets)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_solve_sdpd)

    p = sub.add_parser("bench", help="check the cost model against counted field operations")
    p.add_argument("--set", required=True, choices=sets)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except fileio.FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECKSUM
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAM_MISMATCH
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
