"""The codec's fixed nesting bound.

Both parsers (``parse_canonical`` and the wire's ``decode_wire_payload``)
accept containers nested exactly :data:`MAX_DEPTH` deep and reject one
level more with their :class:`CanonicalError` subclass. The verdict is a
counted constant, so it is the same however deep the caller's own stack
already is.
"""

import struct
import sys

import pytest

from repro.crypto.encoding import MAX_DEPTH, CanonicalError, canonical_bytes, parse_canonical
from repro.net.wire import WireCodecError, decode_wire_payload, encode_wire_payload


def nested_lists(levels: int) -> bytes:
    raw = b"N"
    for _ in range(levels):
        body = struct.pack(">I", 1) + raw
        raw = b"L" + struct.pack(">I", len(body)) + body
    return raw


def nested_maps(levels: int) -> bytes:
    value = None
    for _ in range(levels):
        value = {"k": value}
    return canonical_bytes(value)


def depth_of(value) -> int:
    depth = 0
    while isinstance(value, (list, dict)):
        value = value[0] if isinstance(value, list) else value["k"]
        depth += 1
    return depth


PARSERS = [
    pytest.param(parse_canonical, CanonicalError, id="parse_canonical"),
    pytest.param(decode_wire_payload, WireCodecError, id="decode_wire_payload"),
]
SHAPES = [pytest.param(nested_lists, id="lists"), pytest.param(nested_maps, id="maps")]


def stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def from_deep_stack(fn, headroom: int):
    """Call ``fn`` with only ``headroom`` frames left below the recursion limit."""
    target = sys.getrecursionlimit() - headroom

    def descend():
        return fn() if stack_depth() >= target else descend()

    return descend()


def verdict(parse, raw: bytes):
    try:
        return "ok", depth_of(parse(raw))
    except CanonicalError as exc:
        return "reject", type(exc)


def test_wire_errors_are_canonical_errors():
    assert issubclass(WireCodecError, CanonicalError)
    assert issubclass(CanonicalError, ValueError)


@pytest.mark.parametrize("parse, error", PARSERS)
@pytest.mark.parametrize("shape", SHAPES)
def test_nesting_at_the_bound_decodes(parse, error, shape):
    assert depth_of(parse(shape(MAX_DEPTH))) == MAX_DEPTH


@pytest.mark.parametrize("parse, error", PARSERS)
@pytest.mark.parametrize("shape", SHAPES)
def test_one_level_past_the_bound_is_malformed(parse, error, shape):
    with pytest.raises(error, match="deeper"):
        parse(shape(MAX_DEPTH + 1))


@pytest.mark.parametrize("parse, error", PARSERS)
def test_far_past_the_bound_is_malformed_not_a_recursion_error(parse, error):
    with pytest.raises(error, match="deeper"):
        parse(nested_lists(1000))


@pytest.mark.parametrize("parse, error", PARSERS)
def test_verdict_does_not_depend_on_the_callers_stack(parse, error):
    inputs = [nested_lists(MAX_DEPTH), nested_lists(MAX_DEPTH + 1), nested_lists(1000)]
    shallow = [verdict(parse, raw) for raw in inputs]
    deep = [from_deep_stack(lambda: verdict(parse, raw), 3 * MAX_DEPTH) for raw in inputs]
    assert shallow == deep == [("ok", MAX_DEPTH), ("reject", error), ("reject", error)]


def test_a_registered_message_costs_two_levels():
    """A registered dataclass is written as an envelope around its fields
    mapping: two levels of the bound."""
    from repro.bft.messages import ClientRequest

    wrapped = ClientRequest("c", 1, b"x")
    for _ in range((MAX_DEPTH - 2) // 2):
        wrapped = [[wrapped]]
    assert decode_wire_payload(encode_wire_payload(wrapped)) == wrapped
    with pytest.raises(WireCodecError, match="deeper"):
        decode_wire_payload(encode_wire_payload([wrapped]))
