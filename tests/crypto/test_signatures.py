"""Tests for the simulated signature oracle."""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.crypto.signatures import SignatureService, Signed, _freeze


def test_sign_then_verify():
    service = SignatureService()
    signature = service.sign("alice", ("msg", 1))
    assert service.verify(signature)


def test_forged_signature_fails():
    service = SignatureService()
    forged = Signed("alice", ("msg", 1))
    assert not service.verify(forged)


def test_replay_verifies():
    """Byzantine processes may replay signatures they saw — like real
    crypto, a genuine signature stays valid."""
    service = SignatureService()
    original = service.sign("alice", "content")
    replayed = Signed("alice", "content")
    assert service.verify(replayed)


def test_signer_identity_is_bound():
    service = SignatureService()
    service.sign("alice", "content")
    assert not service.verify(Signed("bob", "content"))


def test_unhashable_content_is_canonicalized():
    service = SignatureService()
    content = {"view": 1, "values": [1, 2, {3}]}
    signature = service.sign("alice", content)
    assert service.verify(signature)
    same = service.verify(Signed("alice", {"values": [1, 2, {3}], "view": 1}))
    assert same


# -- verification does not re-freeze hashable content ------------------------------

_ATOMS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.text(max_size=2),
    st.builds(Signed, st.sampled_from("ab"), st.integers(0, 2)),
)
_HASHABLE_CONTENT = st.recursive(
    _ATOMS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(tuple),
        st.frozensets(inner, max_size=3),
    ),
    max_leaves=8,
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_HASHABLE_CONTENT)
def test_hashable_content_is_its_own_canonical_form(content):
    """What lets ``verify`` look content up as it stands: everything a
    ``Signed`` can carry and stay hashable freezes to an equal value
    with an equal hash."""
    frozen = _freeze(content)
    assert frozen == content and hash(frozen) == hash(content)
    service = SignatureService()
    assert not service.verify(Signed("alice", content))
    assert service.verify(service.sign("alice", content))
    assert service.verify(Signed("alice", frozen))
    assert not service.verify(Signed("bob", content))


def test_a_list_signed_verifies_as_its_tuple_and_back():
    """Content holding a list / dict behaves as before: both spellings
    are one statement."""
    service = SignatureService()
    service.sign("alice", ["update", 1, ["v"], {"w": {2}}])
    assert service.verify(Signed("alice", ("update", 1, ("v",), {"w": {2}})))
    assert service.verify(
        Signed("alice", ("update", 1, ("v",), ((("w"), frozenset({2})),)))
    )
    assert not service.verify(Signed("alice", ["update", 1, ["v"], {"w": {3}}]))
    assert not service.verify(Signed("bob", ["update", 1, ["v"], {"w": {2}}]))


def test_verifying_a_new_view_ack_freezes_nothing(monkeypatch):
    """The authenticated path of a view change: a ``new_view_ack`` with
    an update proof is signed and validated — ack signature plus every
    proof signature — without one ``_freeze`` call: ``sign`` records
    hashable content as it stands, as ``verify`` looks it up, and
    freezes only content holding a list, set or dict."""
    from repro.consensus.messages import AckData, NewViewAck, update_statement
    from repro.consensus.validate import validate_new_view_ack
    from repro.core.constructions import threshold_rqs
    from repro.crypto import signatures

    calls = []
    shipped = signatures._freeze

    def counting(content):
        calls.append(content)
        return shipped(content)

    monkeypatch.setattr(signatures, "_freeze", counting)
    rqs = threshold_rqs(5, 1, 1, 0, 1)
    service = SignatureService()
    quorum = frozenset({1, 2, 3, 4})
    proof = tuple(
        service.sign(signer, update_statement(1, "v", 0)) for signer in (1, 2)
    )
    body = AckData(
        view=1, prep="v", prep_view=frozenset({0}),
        update={1: "v", 2: None},
        update_view={1: frozenset({0}), 2: frozenset()},
        update_q={(1, 0): (quorum,)},
        update_proof={(1, 0): proof},
    )
    ack = NewViewAck(body, service.sign(3, body.canonical()))
    assert calls == []

    assert validate_new_view_ack(service, rqs, 3, ack, expected_view=1)
    assert calls == []
    service.sign(3, ["update", 1, ["v"], 0])   # unhashable: frozen
    assert calls[0] == ["update", 1, ["v"], 0]  # at the top, recursing
    # A fabricated ack (never signed by 4) and a forged proof still fail.
    assert not validate_new_view_ack(
        service, rqs, 4, NewViewAck(body, Signed(4, body.canonical())), 1
    )
    forged = replace(
        body, update_proof={(1, 0): (proof[0], Signed(5, proof[1].content))}
    )
    assert not validate_new_view_ack(
        service, rqs, 3, NewViewAck(forged, service.sign(3, forged.canonical())), 1
    )
