"""Wire codec properties over every registered type.

* the compiled codec puts the oracle's bytes on the wire and decodes them
  back to an equal message;
* it refuses what the type hints refuse (a non-sequence in a tuple field);
* hostile datagrams — truncated, bit-flipped, wrongly shaped — fail only
  with :class:`WireCodecError`, which the TCP transport counts and drops
  without losing the connection.
"""

import asyncio
import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bft import messages as bft
from repro.crypto.encoding import canonical_bytes
from repro.itdos import messages as itdos
from repro.net.framing import encode_frame
from repro.net.wire import (
    WireCodecError,
    assert_wire_encodable,
    decode_datagram,
    decode_wire_payload,
    encode_datagram,
    encode_wire_payload,
)
from tests.net.test_tcp import eventually, make_pair
from tests.net.wire_oracle import (
    REGISTRY,
    any_message,
    message_strategy,
    oracle_bytes,
    oracle_shape,
    tuple_fields,
)

PLAIN = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=8)
    | st.binary(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)


# -- fidelity against the oracle ----------------------------------------------


@pytest.mark.parametrize("name", sorted(REGISTRY))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_every_type_encodes_like_the_oracle_and_round_trips(name, data):
    message = data.draw(message_strategy(name))
    wire = encode_wire_payload(message)
    assert wire == oracle_bytes(message)
    decoded = decode_wire_payload(wire)
    assert decoded == message
    assert type(decoded) is type(message)
    for field in tuple_fields(type(message)):
        assert isinstance(getattr(decoded, field), tuple)
    # Byte identity also covers auth, which dataclass equality ignores.
    assert encode_wire_payload(decoded) == wire


@settings(max_examples=100, deadline=None)
@given(value=PLAIN)
def test_plain_values_encode_like_the_oracle(value):
    assert encode_wire_payload(value) == canonical_bytes(value)
    assert_wire_encodable(value)


TUPLE_FIELDS = [(name, field) for name in sorted(REGISTRY) for field in tuple_fields(REGISTRY[name])]


@pytest.mark.parametrize("name,field", TUPLE_FIELDS)
@settings(max_examples=10, deadline=None)
@given(data=st.data(), scalar=st.one_of(st.integers(), st.text(max_size=4), st.none()))
def test_non_sequence_in_a_tuple_field_is_refused(name, field, data, scalar):
    shape = oracle_shape(data.draw(message_strategy(name)))
    shape["f"][field] = scalar
    with pytest.raises(WireCodecError):
        decode_wire_payload(canonical_bytes(shape))


def test_wrong_arity_in_a_fixed_tuple_is_refused():
    fill = bft.FillMsg(entries=(), sender="calc-e0")
    shape = oracle_shape(fill)
    shape["f"]["entries"] = [[None, [], "extra"]]
    with pytest.raises(WireCodecError):
        decode_wire_payload(canonical_bytes(shape))


def test_unhashable_type_name_is_a_codec_error():
    """Used to escape as ``TypeError`` and kill the inbound reader."""
    with pytest.raises(WireCodecError):
        decode_wire_payload(canonical_bytes({"__wire__": [1], "f": {}}))


# -- hostile datagrams ----------------------------------------------------------

ODD_VALUES = st.one_of(
    st.none(),
    st.integers(),
    st.text(max_size=6),
    st.binary(max_size=6),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    st.just({"__wire__": [1], "f": {}}),
    st.just({"__wire__": "NoSuchType", "f": {}}),
    st.just({"__wire__": "BatchMsg", "f": 5}),
    st.just({"__wire__": "ClientRequest", "f": {"client_id": [], "extra": 1}}),
)


def _paths(shape, prefix=()):
    """Every position in a generic shape, as a key path."""
    yield prefix
    if isinstance(shape, dict):
        for key, item in shape.items():
            yield from _paths(item, (*prefix, key))
    elif isinstance(shape, list):
        for index, item in enumerate(shape):
            yield from _paths(item, (*prefix, index))


def _replace(shape, path, value):
    if not path:
        return value
    head, rest = path[0], path[1:]
    if isinstance(shape, dict):
        return {**shape, head: _replace(shape[head], rest, value)}
    return [_replace(item, rest, value) if i == head else item for i, item in enumerate(shape)]


def _decodes_cleanly(body: bytes) -> bool:
    """True if the datagram decodes; False if it fails the declared way."""
    try:
        decode_datagram(body)
    except WireCodecError:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(message=any_message(), data=st.data())
def test_truncated_datagrams_are_codec_errors(message, data):
    body = encode_datagram("calc-e0", "calc-e1", message)
    cut = data.draw(st.integers(min_value=0, max_value=len(body) - 1))
    assert not _decodes_cleanly(body[:cut])


@settings(max_examples=300, deadline=None)
@given(message=any_message(), data=st.data())
def test_bit_flipped_datagrams_fail_only_as_codec_errors(message, data):
    body = bytearray(encode_datagram("calc-e0", "calc-e1", message))
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        bit = data.draw(st.integers(min_value=0, max_value=len(body) * 8 - 1))
        body[bit // 8] ^= 1 << (bit % 8)
    _decodes_cleanly(bytes(body))


@settings(max_examples=300, deadline=None)
@given(message=any_message(), data=st.data(), odd=ODD_VALUES)
def test_shape_mutated_datagrams_fail_only_as_codec_errors(message, data, odd):
    shape = oracle_shape(message)
    path = data.draw(st.sampled_from(list(_paths(shape))))
    mutated = canonical_bytes(_replace(shape, path, odd))
    header = encode_datagram("calc-e0", "calc-e1", None)[:-1]  # strip the None
    _decodes_cleanly(header + mutated)


def _hostile_bodies() -> list[bytes]:
    rng = random.Random(0x5EED)
    samples = [
        bft.PrePrepareMsg(
            view=0,
            seq=7,
            request_digest=b"\xaa" * 16,
            batch=bft.BatchMsg(
                requests=(bft.ClientRequest(client_id="c", timestamp=1, payload=b"op"),)
            ),
            sender="a",
            auth={"b": b"\x02" * 8},
        ),
        itdos.ChangeRequest(
            requester="c",
            requester_kind="singleton",
            requester_domain="",
            accused_domain="calc",
            accused=("calc-e2",),
            request_id=3,
        ),
    ]
    bodies = [
        b"",
        b"\x00\x01",
        encode_datagram("a", "b", None)[:-1] + canonical_bytes({"__wire__": [1], "f": {}}),
    ]
    for message in samples:
        body = encode_datagram("a", "b", message)
        bodies.append(body[: rng.randrange(len(body))])
        flipped = bytearray(body)
        flipped[rng.randrange(len(body))] ^= 1 << rng.randrange(8)
        bodies.append(bytes(flipped))
        shape = oracle_shape(message)
        shape["f"][dataclasses.fields(message)[0].name] = {"__wire__": "Nope", "f": {}}
        bodies.append(encode_datagram("a", "b", None)[:-1] + canonical_bytes(shape))
    return bodies


def test_hostile_datagrams_are_counted_and_the_connection_survives():
    bodies = _hostile_bodies()
    bad = sum(1 for body in bodies if not _decodes_cleanly(body))
    good = encode_datagram("a", "b", b"still-alive")

    async def scenario():
        loop = asyncio.get_running_loop()
        a, b, _ia, inbox_b, book = make_pair(loop)
        await b.start()
        _reader, writer = await asyncio.open_connection(*book["b"])
        for body in bodies:
            writer.write(encode_frame(body))
        writer.write(encode_frame(good))
        await writer.drain()
        await eventually(lambda: ("a", b"still-alive") in inbox_b)
        writer.close()
        await b.stop()
        return b.stats, inbox_b

    stats, inbox_b = asyncio.run(scenario())
    assert bad >= len(bodies) - 2  # a bit flip may land on a harmless byte
    assert stats["recv_dropped_bad_frame"] == bad
    assert inbox_b[-1] == ("a", b"still-alive")
