"""Public-key cryptography over a skew dihedral group ring.

Key exchange, probabilistic public-key encryption, an implicit-rejection
KEM, and an attack-game harness, all over the ring F_{q^2}^theta D_2n.
"""

from .field import FieldParams, QuadraticField, find_lambda
from .kem import KemPrivate, h1, h2, kem_decaps, kem_encaps, kem_keygen, rep_ring
from .kex import KexMessage, KexSession, SecretPair, kex_keygen, kex_shared
from .params import PARAM_SETS, Params, make_params
from .pke import Ciphertext, PkeKeypair, pke_dec, pke_enc, pke_gen
from .skewring import RingElement, SkewRing, SubspaceTag

__all__ = [
    "Ciphertext",
    "FieldParams",
    "KemPrivate",
    "KexMessage",
    "KexSession",
    "PARAM_SETS",
    "Params",
    "PkeKeypair",
    "QuadraticField",
    "RingElement",
    "SecretPair",
    "SkewRing",
    "SubspaceTag",
    "find_lambda",
    "h1",
    "h2",
    "kem_decaps",
    "kem_encaps",
    "kem_keygen",
    "kex_keygen",
    "kex_shared",
    "make_params",
    "pke_dec",
    "pke_enc",
    "pke_gen",
    "rep_ring",
]

__version__ = "0.1.0"
