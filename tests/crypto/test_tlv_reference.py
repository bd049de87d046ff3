"""The shared canonical codec against the test-only reference codec.

Over plain values and over the signed forms of every registered protocol
dataclass: the writer puts out the reference's bytes, the parser returns
the reference's values, and on truncated or bit-flipped input both parsers
reach the same accept/reject verdict.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bft.messages import BatchMsg, ClientRequest, PrePrepareMsg
from repro.crypto.encoding import CanonicalError, canonical_bytes, parse_canonical
from tests.crypto.tlv_oracle import reference_bytes, reference_parse
from tests.net.wire_oracle import REGISTRY, message_strategy, oracle_shape

PLAIN = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=12)
    | st.binary(max_size=12),
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=16,
)


def signed_form(message):
    """What gets signed or digested for ``message``.

    Types that define ``canonical_fields()`` are written as their signed
    ``__type__`` form; the rest are signed through plain field mappings,
    which the message's wire shape stands in for.
    """
    if callable(getattr(message, "canonical_fields", None)):
        return message
    return oracle_shape(message)


SIGNED = st.sampled_from(sorted(REGISTRY)).flatmap(message_strategy).map(signed_form)


def verdict(raw: bytes):
    """Both parsers' verdicts on ``raw``: a parsed value's repr, or a reject.

    ``repr`` compares NaNs (a bit flip can make one) and -0.0 exactly.
    """
    try:
        ours = ("ok", repr(parse_canonical(raw)))
    except CanonicalError:
        ours = ("reject",)
    try:
        theirs = ("ok", repr(reference_parse(raw)))
    except ValueError:
        theirs = ("reject",)
    return ours, theirs


@settings(max_examples=300, deadline=None)
@given(PLAIN)
def test_plain_values_match_the_reference(value):
    raw = canonical_bytes(value)
    assert raw == reference_bytes(value)
    assert parse_canonical(raw) == reference_parse(raw)


@pytest.mark.parametrize("name", sorted(REGISTRY))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_signed_forms_of_every_registered_type_match_the_reference(name, data):
    value = signed_form(data.draw(message_strategy(name)))
    raw = canonical_bytes(value)
    assert raw == reference_bytes(value)
    assert parse_canonical(raw) == reference_parse(raw)


@settings(max_examples=300, deadline=None)
@given(value=st.one_of(PLAIN, SIGNED), data=st.data())
def test_reject_parity_on_truncation_and_bit_flips(value, data):
    raw = canonical_bytes(value)
    cut = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
    ours, theirs = verdict(raw[:cut])
    assert ours == theirs == ("reject",)
    flipped = bytearray(raw)
    flipped[data.draw(st.integers(0, len(raw) - 1))] ^= 1 << data.draw(st.integers(0, 7))
    ours, theirs = verdict(bytes(flipped))
    assert ours == theirs


def test_every_single_bit_flip_of_a_signed_preprepare():
    requests = tuple(
        ClientRequest(f"client-{i}", 1000 + i, bytes(range(40)), auth=b"a" * 8) for i in range(2)
    )
    message = PrePrepareMsg(
        view=1, seq=7, request_digest=b"d" * 32, batch=BatchMsg(requests=requests), sender="r0"
    )
    raw = canonical_bytes(message)
    assert raw == reference_bytes(message)
    for pos in range(len(raw)):
        for bit in range(8):
            flipped = bytearray(raw)
            flipped[pos] ^= 1 << bit
            ours, theirs = verdict(bytes(flipped))
            assert ours == theirs, (pos, bit)


@pytest.mark.parametrize("key", [None, True, False, 5, 1.5, b"k", [1], {"a": 1}], ids=repr)
def test_non_string_keys_are_rejected_like_the_reference(key):
    body = struct.pack(">I", 1) + reference_bytes(key) + reference_bytes(0)
    raw = b"M" + struct.pack(">I", len(body)) + body
    assert verdict(raw) == (("reject",), ("reject",))


@pytest.mark.parametrize(
    "value",
    [object(), {1: "x"}, {"a": [1, {2: 3}]}, float("nan"), [1.0, float("nan")]],
    ids=["object", "int-key", "nested-int-key", "nan", "nested-nan"],
)
def test_writer_refuses_what_the_reference_refuses(value):
    with pytest.raises((TypeError, ValueError)) as reference:
        reference_bytes(value)
    with pytest.raises(reference.type):
        canonical_bytes(value)
