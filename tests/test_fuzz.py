"""Property-based fuzzing of the parsers and of decapsulation on arbitrary bytes."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdgr.fileio import HEADER_LEN, FileFormatError, decode_header
from sdgr.kem import kem_decaps, kem_encaps, kem_keygen
from sdgr.params import VALID_L1


@pytest.fixture(scope="module")
def p19_kem(p19_params):
    priv, pk_bytes = kem_keygen(p19_params, random.Random(5))
    ct, _ = kem_encaps(pk_bytes, p19_params, random.Random(6))
    return priv, len(ct)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), l1=st.sampled_from(VALID_L1))
def test_kem_decaps_never_raises(p19_params, p19_kem, data, l1):
    priv, ct_len = p19_kem
    ct = data.draw(
        st.one_of(st.binary(max_size=2 * ct_len), st.binary(min_size=ct_len, max_size=ct_len))
    )
    assert len(kem_decaps(priv, ct, p19_params, l1=l1)) == l1 // 8


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.binary(max_size=2 * HEADER_LEN), st.binary(min_size=4).map(lambda b: b"SDGR\x01" + b)))
def test_decode_header_returns_or_raises_file_format_error(data):
    try:
        decode_header(data)
    except FileFormatError:
        pass
