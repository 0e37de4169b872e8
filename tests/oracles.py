"""Independent references the tests cross-check the library against."""


def naive_key(sk, x):
    """a * x * adjunct(gamma) for the secret pair sk = (a, gamma y), through
    the naive product."""
    ring = sk.a.ring
    return ring.naive_product(ring.naive_product(sk.a, x), sk.gamma.adjunct())
