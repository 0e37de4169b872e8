"""Independent references the tests cross-check the library against, each
defined once: products through SkewRing.naive_product, the loops the
vectorized code replaced, and the FO transform as it is stated."""

import numpy as np

from sdgr.kem import h1, h2, pack_bits, unpack_elements
from sdgr.pke import Ciphertext, decrypt, encrypt
from sdgr.skewring import SubspaceTag

# -- ring elements and products --------------------------------------------------


def cn_part(ring, a):
    """a with its C_n y part dropped."""
    c = a.coeffs.copy()
    c[ring.n :] = 0
    return ring.element(c)


def shift_to_cny(ring, a):
    """sum a_i x^i -> sum a_i x^i y, for a supported on C_n; on any z = z_C +
    z_Y y, the roll by n swaps the two halves."""
    return ring.element(np.roll(a.coeffs, ring.n, axis=0))


def halves(ring, z):
    """(z_C, z_Y) as elements of C_n, for z = z_C + z_Y y."""
    return cn_part(ring, z), cn_part(ring, shift_to_cny(ring, z))


def cross_oracle(ring, w, x):
    """w_C * x_Y + (w_Y * x_C) y through the naive product."""
    (w_c, w_y), (x_c, x_y) = halves(ring, w), halves(ring, x)
    return ring.naive_product(w_c, x_y) + shift_to_cny(ring, ring.naive_product(w_y, x_c))


def cross_operands_oracle(ring, a, g):
    """(u + v y, v + u y) for u = a G and v = a sigma(G), g = G y, through the
    naive product."""
    u = ring.naive_product(a, halves(ring, g)[1])
    v = ring.naive_product(a, halves(ring, g.adjunct())[1])
    return u + shift_to_cny(ring, v), v + shift_to_cny(ring, u)


def reduced(ring, rows):
    """pair_rows' unreduced rows, checked to be float64 integers within
    n(p-1)^2(1+lam), as canonical int64 coefficients in [0, p)."""
    assert rows.dtype == np.float64
    assert np.abs(rows).max() <= ring.n * (ring.p - 1) ** 2 * (1 + ring.field.lam)
    assert not np.count_nonzero(rows != np.rint(rows))
    return rows.astype(np.int64) % ring.p


def reference_predicates(ring, a):
    """(is_zero, classify, is_reversible) in the ndarray.any and
    np.array_equal forms the ring's count_nonzero predicates replaced."""
    c = a.coeffs
    has_cn, has_cny = bool(c[: ring.n].any()), bool(c[ring.n :].any())
    tags = {
        (False, False): SubspaceTag.ZERO,
        (True, False): SubspaceTag.CN_ONLY,
        (False, True): SubspaceTag.CNY_ONLY,
        (True, True): SubspaceTag.MIXED,
    }
    tail = c[ring.n + 1 :]
    return not c.any(), tags[has_cn, has_cny], not has_cn and np.array_equal(tail, tail[::-1])


def sample_pair(ring, rng) -> np.ndarray:
    """The reference for sample_pair_values: one pair's values, drawn as
    sample_cn then sample_gamma."""
    return ring.pair_values(ring.sample_cn(rng), ring.sample_gamma(rng))


def frobenius_ladder(f, a):
    """a -> a^p by square-and-multiply over the binary digits of p: the slow
    generic route that the conjugation fast path is cross-checked against."""
    r = f.one
    for bit in bin(f.p)[2:]:
        r = f.mul(r, r)
        if bit == "1":
            r = f.mul(r, a)
    return r


# -- schemes ----------------------------------------------------------------------


def naive_key(sk, x):
    """a * x * adjunct(gamma) for the secret pair sk = (a, gamma y), through
    the naive product."""
    ring = sk.a.ring
    return ring.naive_product(ring.naive_product(sk.a, x), sk.gamma.adjunct())


def naive_enc(params, m, pk, r):
    """Enc(pk, m; r) = (a h gamma, m + naive_key(r, pk)) through the naive product."""
    ring = params.ring
    return Ciphertext(c1=ring.naive_product(ring.naive_product(r.a, params.h), r.gamma), c2=m + naive_key(r, pk))


def reference_pack(values, width: int) -> bytes:
    """pack_bits' oracle for one row: one Python int of the concatenated
    width-bit values, shifted left by the zero padding."""
    pad = -len(values) * width % 8
    acc = 0
    for x in values:
        acc = acc << width | int(x)
    return (acc << pad).to_bytes((len(values) * width + pad) // 8, "big")


def rep_ciphertext(c):
    """rep(c1) || rep(c2) in one pack: the two rows of raw coefficients."""
    return pack_bits(np.stack((c.c1.coeffs.ravel(), c.c2.coeffs.ravel())), c.c1.ring.field.coeff_bits)


def decaps_by_re_encryption(priv, c_bytes, params, l1=128):
    """kem_decaps as the FO transform states it, the oracle of its c1-only
    check: decrypt the chunks reduced mod p, re-encrypt m under pk with
    H1's pair, and accept iff every chunk is the re-encryption's
    coefficient and no padding bit is set."""
    ring = params.ring
    try:
        chunks, padded = unpack_elements(ring, c_bytes, 2)
    except ValueError:
        return h2(priv.rep_s + c_bytes, l1)
    m = decrypt(chunks % ring.p, priv.sk.w)
    rep_m = pack_bits(m.ravel(), ring.field.coeff_bits)
    c = encrypt(m, priv.pk, h1(rep_m + priv.rep_pk, params).rows, params)
    if np.array_equal(chunks, c) and padded:
        return h2(rep_m + c_bytes, l1)
    return h2(priv.rep_s + c_bytes, l1)


# -- games ------------------------------------------------------------------------


def synthetic_division_valuation(ring, a):
    """Reference for unipotent_valuation: divide the one non-zero summand by
    (x - 1) one coefficient at a time until its value at x = 1 is non-zero."""
    n, p = ring.n, ring.p
    rows = [a.coefficient(i) for i in range(2 * n)]
    poly = rows[n:] if any(c != (0, 0) for c in rows[n:]) else rows[:n]
    v = 0
    while v < n:
        s0 = sum(c[0] for c in poly) % p
        s1 = sum(c[1] for c in poly) % p
        if (s0, s1) != (0, 0):
            return v
        # synthetic division by (x - 1): q_{i-1} = p_i + q_i, descending
        q = [(0, 0)] * len(poly)
        acc0 = acc1 = 0
        for i in range(len(poly) - 1, 0, -1):
            acc0 = (acc0 + poly[i][0]) % p
            acc1 = (acc1 + poly[i][1]) % p
            q[i - 1] = (acc0, acc1)
        poly = q
        v += 1
    return n


def bruteforce_loop(inst):
    """Reference for sdpd_bruteforce: every a against every h gamma, one
    skew product per pair, a outermost."""
    ring = inst.params.ring
    h_gammas = [(gamma, inst.params.h * gamma) for gamma in ring.iter_gamma()]
    found = []
    for a in ring.iter_cn():
        for gamma, hg in h_gammas:
            if a * hg == inst.pk:
                found.append((a, gamma))
    return found
