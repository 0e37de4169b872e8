"""The public names that callers outside the package rely on still exist."""

import importlib.util
import random
from pathlib import Path

import pytest

import sdgr
import sdgr.games
from sdgr.fileio import Header
from sdgr.kem import KemPrivate, kem_keygen
from sdgr.kex import KexMessage, SecretPair, sample_secret_pair
from sdgr.params import GameParams, Params, make_params
from sdgr.pke import Ciphertext, PkeKeypair, pke_enc, pke_gen, sample_message
from sdgr.skewring import RingElement, SkewRing, SubspaceTag

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_all_names_resolve():
    for name in sdgr.__all__:
        assert hasattr(sdgr, name), name


def test_benchmark_layer_targets_exist():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    targets = workloads.layer_targets()
    assert targets
    for metric, owner, attr, _ in targets:
        assert callable(getattr(owner, attr, None)), metric


def _records(params):
    """Each value record twice, built apart from equal fields, and once with
    one field changed."""
    rng = random.Random(5)
    kp = pke_gen(params, rng)
    other = pke_gen(params, rng)
    ct = pke_enc(sample_message(params, rng), kp.pk, sample_secret_pair(params, rng), params)
    return [
        (
            Header(p=19, m=1, n=19, lam=2, l1=128),
            Header(p=19, m=1, n=19, lam=2, l1=128),
            Header(p=19, m=1, n=19, lam=2, l1=0),
        ),
        (
            KexMessage(party_id=b"A", session_id=b"s", pk=kp.pk),
            KexMessage(party_id=b"A", session_id=b"s", pk=RingElement(params.ring, kp.pk.coeffs.copy())),
            KexMessage(party_id=b"B", session_id=b"s", pk=kp.pk),
        ),
        (PkeKeypair(pk=kp.pk, sk=kp.sk), PkeKeypair(pk=kp.pk, sk=kp.sk), PkeKeypair(pk=other.pk, sk=kp.sk)),
        (
            Ciphertext(c1=ct.c1, c2=ct.c2),
            Ciphertext(c1=ct.c1, c2=RingElement(params.ring, ct.c2.coeffs.copy())),
            Ciphertext(c1=ct.c1, c2=ct.c1),
        ),
    ]


def test_value_records_are_immutable_and_compare_by_value(toy_params):
    for record, twin, changed in _records(toy_params):
        assert record == twin and hash(record) == hash(twin)
        assert record != changed
        for name in ("p", "pk", "c1", "l1", "party_id", "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert record == twin  # the refused writes changed nothing


def test_params_and_kem_private_are_immutable_and_compare_by_identity(toy_params):
    ring, h = toy_params.ring, toy_params.h
    params, same = Params(ring=ring, h=h), Params(ring=ring, h=h)
    assert isinstance(params, GameParams)
    assert params != same and params == params
    assert hash(params) == object.__hash__(params) and {params: 1}.get(same) is None
    game, game_same = GameParams(ring=ring, h=h), GameParams(ring=ring, h=h)
    assert game != game_same and game == game and game != params
    assert hash(game) == object.__hash__(game) and {game: 1}.get(game_same) is None
    assert GameParams(ring=ring, h=ring.one()).h == ring.one()  # on C_n only: Params refuses it
    priv, _ = kem_keygen(params, random.Random(6))
    # the secret pair compares by identity, so a twin's differs
    twin = KemPrivate(s=priv.s, sk=SecretPair.from_values(ring, priv.sk.values), pk=priv.pk)
    assert priv != twin and priv == priv
    assert priv.rep_pk == twin.rep_pk and priv.rep_s == twin.rep_s  # both encoded at construction
    rep_pk = priv.rep_pk
    for obj, names in (
        (params, ("ring", "h", "p", "extra")),
        (game, ("ring", "h", "extra")),
        (priv, ("s", "sk", "pk", "rep_pk", "rep_s", "extra")),
    ):
        for name in names:
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
    assert params.ring is ring and params.h is h and priv.rep_pk is rep_pk
    assert game.ring is ring and game.h is h
    assert not any(hasattr(obj, "__dict__") for obj in (params, game, priv))


def test_games_and_params_share_one_game_params():
    assert sdgr.games.GameParams is GameParams


def test_refused_writes_name_the_concrete_class(toy_params):
    ring = toy_params.ring
    priv, _ = kem_keygen(toy_params, random.Random(6))
    objects = {
        "Params": toy_params,
        "GameParams": GameParams(ring=ring, h=toy_params.h),
        "RingElement": toy_params.h,
        "SecretPair": priv.sk,
        "KemPrivate": priv,
    }
    for name, obj in objects.items():
        with pytest.raises(AttributeError, match=f"^{name} is immutable: cannot set 'h'$"):
            obj.h = None
        with pytest.raises(AttributeError, match=f"^{name} is immutable: cannot delete 'ring'$"):
            del obj.ring


def test_make_params_refuses_a_seed_and_an_rng_together():
    # one of the two would be silently ignored
    with pytest.raises(ValueError, match="not both"):
        make_params("toy", seed=1, rng=random.Random(1))
    seeded, drawn = make_params("toy", seed=1), make_params("toy", rng=random.Random(1))
    assert seeded.h.coeffs.tolist() == drawn.h.coeffs.tolist()


def test_kem_private_hashes_by_identity(toy_params):
    priv, _ = kem_keygen(toy_params, random.Random(6))
    assert hash(priv) == object.__hash__(priv)


def test_params_refuse_an_h_that_is_not_mixed(toy_params):
    ring = toy_params.ring
    for h in (ring.zero(), ring.one(), ring.basis(ring.n)):  # zero, C_n only, C_n y only
        with pytest.raises(ValueError, match="both C_n and C_n y"):
            Params(ring=ring, h=h)
    bad = SkewRing(3, 4)
    with pytest.raises(ValueError, match="p must divide n"):
        Params(ring=bad, h=bad.gen_public_element(random.Random(7)))
