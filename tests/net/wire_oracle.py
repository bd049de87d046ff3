"""Test-only references for the wire codec.

* :func:`oracle_bytes` is the original two-step wire encoder: translate a
  payload into the generic ``{"__wire__": name, "f": {...}}`` shape, then
  run the test-only reference TLV writer (:mod:`tests.crypto.tlv_oracle`)
  over it, so the shared writer is never compared with itself. The
  compiled codec must put the same bytes on the wire.
* :func:`message_strategy` draws messages of one registered type, built
  field by field from the dataclass's type hints.
"""

import dataclasses
import types
import typing

from hypothesis import strategies as st

from repro.net.wire import registered_wire_types
from tests.crypto.tlv_oracle import reference_bytes

REGISTRY = registered_wire_types()
NAMES = {cls: name for name, cls in REGISTRY.items()}


def oracle_shape(value):
    name = NAMES.get(type(value))
    if name is not None:
        return {
            "__wire__": name,
            "f": {
                f.name: oracle_shape(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, (list, tuple)):
        return [oracle_shape(item) for item in value]
    if isinstance(value, dict):
        return {key: oracle_shape(item) for key, item in value.items()}
    return value


def oracle_bytes(value) -> bytes:
    return reference_bytes(oracle_shape(value))


def tuple_fields(cls) -> list[str]:
    """Fields whose hint is a tuple: the decoder must restore tuple-ness."""
    hints = typing.get_type_hints(cls)
    return [
        f.name
        for f in dataclasses.fields(cls)
        if typing.get_origin(hints[f.name]) is tuple or hints[f.name] is tuple
    ]


# Fields whose values a constructor validates.
_FIELD_OVERRIDES = {
    ("OpenRequest", "requester_kind"): st.sampled_from(["singleton", "domain"]),
}

_ATOMS = {
    int: st.integers(min_value=-(2**70), max_value=2**70),
    str: st.text(max_size=10),
    bytes: st.binary(max_size=24),
    bool: st.booleans(),
    float: st.floats(allow_nan=False),
    type(None): st.none(),
}


def _hint_strategy(hint):
    if hint in _ATOMS:
        return _ATOMS[hint]
    if hint in NAMES:
        return st.deferred(lambda: message_strategy(NAMES[hint]))
    if hint is tuple:  # untyped tuple: atoms or checkpoint-like messages
        return st.lists(
            st.one_of(_ATOMS[int], _ATOMS[bytes], message_strategy("CheckpointMsg")),
            max_size=2,
        ).map(tuple)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        return st.lists(_hint_strategy(args[0]), max_size=2).map(tuple)
    if origin is tuple:
        return st.tuples(*(_hint_strategy(arg) for arg in args))
    if origin is dict:
        return st.dictionaries(
            _hint_strategy(args[0]), _hint_strategy(args[1]), max_size=3
        )
    if origin in (typing.Union, types.UnionType):
        return st.one_of(*(_hint_strategy(arg) for arg in args))
    raise NotImplementedError(f"no strategy for {hint!r}")


_STRATEGIES: dict[str, st.SearchStrategy] = {}


def message_strategy(name: str) -> st.SearchStrategy:
    """Messages of the registered type ``name``, every field drawn."""
    strategy = _STRATEGIES.get(name)
    if strategy is None:
        cls = REGISTRY[name]
        hints = typing.get_type_hints(cls)
        fields = {}
        for f in dataclasses.fields(cls):
            override = _FIELD_OVERRIDES.get((name, f.name))
            fields[f.name] = override if override is not None else _hint_strategy(hints[f.name])
        strategy = st.builds(cls, **fields)
        _STRATEGIES[name] = strategy
    return strategy


def any_message() -> st.SearchStrategy:
    return st.sampled_from(sorted(REGISTRY)).flatmap(message_strategy)
