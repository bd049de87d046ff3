"""Payload-object ↔ bytes codec shared by both execution backends.

The simulator hands :class:`~repro.sim.process.Process` objects *Python
objects* (frozen protocol dataclasses); a TCP socket hands the peer bytes.
This module is the contract between the two: every payload a process may
legitimately put on the wire encodes to canonical bytes and decodes back
to an equal object, so

* the asyncio backend can carry the exact same protocol traffic, and
* the simulator can *assert* that no object-graph leakage crosses a
  process boundary (``Network.check_wire``) — a payload only a shared
  address space could deliver is a bug the real wire would surface as a
  crash, so the oracle surfaces it first.

The payload bytes are the canonical TLV scheme of
:mod:`repro.crypto.encoding`, with a registered dataclass written as the
mapping ``{"__wire__": <name>, "f": {<field>: <value>...}}`` (every field,
including ``auth`` material, which the *signed* canonical form deliberately
excludes — the wire must carry it). The codec is one-pass both ways:

* **encode** — each registered class compiles, once, an encoder that knows
  its sorted field keys and the constant envelope bytes around them, so a
  message costs one attribute fetch and one atom encoding per field;
* **decode** — the parser rebuilds registered dataclasses as it meets
  their envelopes, restoring tuple-typed fields with coercers compiled
  from the class's type hints, so a round-tripped message is ``==`` to the
  original and re-encodes byte-identically.

Every malformed input — truncated, bit-flipped, wrongly shaped — raises
:class:`WireCodecError` and nothing else: the payload comes from a peer
that may be Byzantine.

A datagram is a fixed binary address header around the payload bytes::

    src_len (2, big-endian) | dst_len (2) | src (utf-8) | dst (utf-8) | payload

so a multicast encodes its payload once and each member's datagram only
prepends its own header.
"""

from __future__ import annotations

import dataclasses
import operator
import struct
import typing
from typing import Any, Callable

_U32 = struct.Struct(">I")
_U32X2 = struct.Struct(">II")
_F64 = struct.Struct(">d")
_ADDRESS = struct.Struct(">HH")

# Tag bytes of the canonical TLV scheme, as ints (what ``raw[pos]`` yields).
_N, _T, _F, _I, _D, _S, _B, _L, _M = b"NTFIDSBLM"


class WireCodecError(ValueError):
    """Payload cannot cross a real process boundary."""


# -- encoding ----------------------------------------------------------------


def _enc_none(value: None) -> bytes:
    return b"N"


def _enc_bool(value: bool) -> bytes:
    return b"T" if value else b"F"


def _enc_int(value: int) -> bytes:
    body = str(value).encode("ascii")
    return b"I" + _U32.pack(len(body)) + body


def _enc_float(value: float) -> bytes:
    if value != value:
        raise WireCodecError("cannot encode NaN")
    return b"D" + _F64.pack(value)


def _enc_str(value: str) -> bytes:
    body = value.encode("utf-8")
    return b"S" + _U32.pack(len(body)) + body


def _enc_bytes(value: bytes) -> bytes:
    return b"B" + _U32.pack(len(value)) + bytes(value)


def _enc_sequence(value: list | tuple) -> bytes:
    body = b"".join([_ENCODERS[type(item)](item) for item in value])
    return b"L" + _U32X2.pack(len(body) + 4, len(value)) + body


def _enc_mapping(value: dict) -> bytes:
    parts = []
    for key in sorted(value):
        if not isinstance(key, str):
            raise WireCodecError(f"dict keys must be str, got {type(key).__name__}")
        item = value[key]
        parts.append(_enc_str(key) + _ENCODERS[type(item)](item))
    body = b"".join(parts)
    return b"M" + _U32X2.pack(len(body) + 4, len(value)) + body


#: Builtin encoders in canonical precedence order; subclasses resolve to the
#: first base they are an instance of (bool before int).
_BUILTIN_ENCODERS: tuple[tuple[type, Callable[[Any], bytes]], ...] = (
    (type(None), _enc_none),
    (bool, _enc_bool),
    (int, _enc_int),
    (float, _enc_float),
    (str, _enc_str),
    (bytes, _enc_bytes),
    (bytearray, _enc_bytes),
    (list, _enc_sequence),
    (tuple, _enc_sequence),
    (dict, _enc_mapping),
)


class _EncoderTable(dict):
    """``type -> encoder``; a miss resolves subclasses of the builtins."""

    def __missing__(self, cls: type) -> Callable[[Any], bytes]:
        for base, encoder in _BUILTIN_ENCODERS:
            if issubclass(cls, base):
                self[cls] = encoder
                return encoder
        raise WireCodecError(f"{cls.__name__} is not a registered wire type")


_ENCODERS = _EncoderTable(_BUILTIN_ENCODERS)


def _compile_encoder(cls: type, name: str) -> Callable[[Any], bytes]:
    """The envelope encoder of one registered dataclass."""
    names = sorted(f.name for f in dataclasses.fields(cls))
    keys = tuple(_enc_str(n) for n in names)
    # Outer mapping body: count 2, "__wire__" -> name, "f" -> fields mapping
    # (whose tag is the last constant byte before its own length prefix).
    head = _U32.pack(2) + _enc_str("__wire__") + _enc_str(name) + _enc_str("f") + b"M"
    outer_extra = len(head) + 8
    count = _U32.pack(len(names))
    if len(names) == 1:  # attrgetter of one name returns the bare value
        getter = operator.attrgetter(names[0])

        def values(value: Any) -> tuple:
            return (getter(value),)

    else:
        values = operator.attrgetter(*names)
    encoders = _ENCODERS

    def encode(value: Any) -> bytes:
        body = b"".join(
            [key + encoders[type(item)](item) for key, item in zip(keys, values(value))]
        )
        n = len(body)
        return b"".join(
            (b"M", _U32.pack(n + outer_extra), head, _U32.pack(n + 4), count, body)
        )

    return encode


# -- decoding ----------------------------------------------------------------

_WIRE_KEY = _enc_str("__wire__")
_FIELDS_KEY = _enc_str("f")


def _parse(raw: bytes, pos: int) -> tuple[Any, int]:
    """One canonical value at ``pos``; returns it and the position after it.

    Registered envelopes come back as their dataclasses. Out-of-range reads
    surface as ``IndexError``/``struct.error``, which the public entry
    points turn into :class:`WireCodecError`.
    """
    tag = raw[pos]
    if tag == _B or tag == _S or tag == _I:
        start = pos + 5
        end = start + _U32.unpack_from(raw, pos + 1)[0]
        if end > len(raw):
            raise WireCodecError("truncated canonical body")
        if tag == _B:
            return raw[start:end], end
        if tag == _S:
            return raw[start:end].decode("utf-8"), end
        return int(raw[start:end]), end
    if tag == _M or tag == _L:
        length, count = _U32X2.unpack_from(raw, pos + 1)
        if length < 4:
            raise WireCodecError("container body too short")
        end = pos + 5 + length
        if end > len(raw):
            raise WireCodecError("truncated canonical body")
        cursor = pos + 9
        if tag == _L:
            items = []
            for _ in range(count):
                item, cursor = _parse(raw, cursor)
                items.append(item)
            if cursor != end:
                raise WireCodecError("list body length mismatch")
            return items, end
        if count == 2 and raw.startswith(_WIRE_KEY, cursor):
            name, after = _parse(raw, cursor + len(_WIRE_KEY))
            if raw.startswith(_FIELDS_KEY, after):
                fields, cursor = _parse(raw, after + len(_FIELDS_KEY))
                if cursor != end:
                    raise WireCodecError("dict body length mismatch")
                return _rebuild(name, fields), end
        mapping = {}
        for _ in range(count):
            # Keys are strings: parse them inline, not through a call.
            if raw[cursor] != _S:
                raise WireCodecError("dict key is not a string")
            start = cursor + 5
            cursor = start + _U32.unpack_from(raw, cursor + 1)[0]
            if cursor > end:
                raise WireCodecError("truncated dict key")
            mapping[raw[start:cursor].decode("utf-8")], cursor = _parse(raw, cursor)
        if cursor != end:
            raise WireCodecError("dict body length mismatch")
        return mapping, end
    if tag == _N:
        return None, pos + 1
    if tag == _T:
        return True, pos + 1
    if tag == _F:
        return False, pos + 1
    if tag == _D:
        return _F64.unpack_from(raw, pos + 1)[0], pos + 9
    raise WireCodecError(f"unknown canonical tag {raw[pos:pos + 1]!r}")


def _rebuild(name: Any, fields: Any) -> Any:
    """Instantiate the registered dataclass an envelope names."""
    decoder = _DECODERS.get(name) if type(name) is str else None
    if decoder is None:
        raise WireCodecError(f"unknown wire type {name!r}")
    if type(fields) is not dict:
        raise WireCodecError(f"wire type {name!r}: fields is not a dict")
    return decoder(fields)


def _same(value: Any) -> Any:
    return value


def _coercer(hint: Any) -> Callable[[Any], Any] | None:
    """Restore the tuples the canonical encoding flattens to lists.

    ``None`` for hints that need no restoration: unions (e.g. the
    ``dict[str, bytes] | bytes | None`` auth) and atoms pass through, and
    nested envelopes were already rebuilt by the parser.
    """
    if typing.get_origin(hint) is not tuple and hint is not tuple:
        return None
    args = typing.get_args(hint)

    def sequence(value: Any) -> list | tuple:
        if not isinstance(value, (list, tuple)):
            raise WireCodecError(f"expected sequence for {hint}, got {type(value).__name__}")
        return value

    if not args:
        return lambda value: tuple(sequence(value))
    if len(args) == 2 and args[1] is Ellipsis:
        inner = _coercer(args[0]) or _same
        return lambda value: tuple([inner(item) for item in sequence(value)])
    inners = [_coercer(arg) or _same for arg in args]

    def fixed(value: Any) -> tuple:
        if len(sequence(value)) != len(inners):
            raise WireCodecError(f"expected {len(inners)}-tuple for {hint}, got {len(value)} items")
        return tuple([inner(item) for inner, item in zip(inners, value)])

    return fixed


def _compile_decoder(cls: type, name: str) -> Callable[[dict], Any]:
    """Build ``cls`` from a parsed fields mapping.

    An absent field takes the dataclass default; a key naming no field is
    ignored.
    """
    field_names = frozenset(f.name for f in dataclasses.fields(cls))
    # PEP 563 modules store hints as strings; resolve them once, here.
    hints = typing.get_type_hints(cls)
    coercers = [
        (field, coerce)
        for field in sorted(field_names)
        if (coerce := _coercer(hints.get(field))) is not None
    ]

    def decode(fields: dict) -> Any:
        if not fields.keys() <= field_names:
            fields = {key: value for key, value in fields.items() if key in field_names}
        for field, coerce in coercers:
            if field in fields:
                fields[field] = coerce(fields[field])
        try:
            return cls(**fields)
        except (TypeError, ValueError) as exc:
            raise WireCodecError(f"cannot rebuild {name}: {exc}") from exc

    return decode


# -- registry ----------------------------------------------------------------

_REGISTRY: dict[str, type] = {}
_DECODERS: dict[str, Callable[[dict], Any]] = {}


def register_wire_type(cls: type, name: str | None = None) -> type:
    """Register a frozen-dataclass payload type for wire transfer.

    Compiles the type's encoder and decoder. Idempotent for the same class;
    a different class under an existing name is a deployment bug and raises.
    """
    wire_name = name or cls.__name__
    existing = _REGISTRY.get(wire_name)
    if existing is not None and existing is not cls:
        raise ValueError(f"wire type {wire_name!r} already registered")
    _REGISTRY[wire_name] = cls
    _ENCODERS[cls] = _compile_encoder(cls, wire_name)
    _DECODERS[wire_name] = _compile_decoder(cls, wire_name)
    return cls


def registered_wire_types() -> dict[str, type]:
    return dict(_REGISTRY)


# -- public codec --------------------------------------------------------------

#: What a malformed payload can raise inside the parser or a constructor.
_MALFORMED = (ValueError, TypeError, IndexError, struct.error, RecursionError)


def encode_wire_payload(payload: Any) -> bytes:
    """Canonical bytes for one cross-process payload (object or plain value)."""
    try:
        return _ENCODERS[type(payload)](payload)
    except _MALFORMED as exc:
        raise WireCodecError(
            f"payload {type(payload).__name__} is not wire-encodable: {exc}"
        ) from exc


def decode_wire_payload(raw: bytes) -> Any:
    """Inverse of :func:`encode_wire_payload`; raises only :class:`WireCodecError`."""
    if type(raw) is not bytes:
        raw = bytes(raw)
    try:
        value, end = _parse(raw, 0)
    except WireCodecError:
        raise
    except _MALFORMED as exc:
        raise WireCodecError(f"malformed wire payload: {exc!r}") from exc
    if end != len(raw):
        raise WireCodecError(f"trailing bytes after wire payload at {end}")
    return value


def assert_wire_encodable(payload: Any) -> bytes:
    """Round-trip ``payload`` through the codec, raising on any infidelity.

    Checks both value equality (the protocol's view) and re-encode byte
    identity (covers ``auth`` material that dataclass ``==`` deliberately
    ignores). Returns the encoding so callers can reuse it.
    """
    wire = encode_wire_payload(payload)
    decoded = decode_wire_payload(wire)
    if decoded != payload and not (
        isinstance(payload, tuple) and list(payload) == decoded
    ):
        raise WireCodecError(
            f"payload {type(payload).__name__} does not round-trip: "
            f"{payload!r} != {decoded!r}"
        )
    again = encode_wire_payload(decoded)
    if again != wire:
        raise WireCodecError(
            f"payload {type(payload).__name__} re-encodes differently "
            "(auth or field-order infidelity)"
        )
    return wire


def encode_datagram(src: str, dst: str, payload: Any, wire: bytes | None = None) -> bytes:
    """One addressed frame body: who sent it, who it is for, the payload.

    ``wire`` is the payload's :func:`encode_wire_payload` bytes when the
    caller already holds them (a multicast encodes once for all members).
    """
    if wire is None:
        wire = encode_wire_payload(payload)
    source, destination = src.encode("utf-8"), dst.encode("utf-8")
    try:
        header = _ADDRESS.pack(len(source), len(destination))
    except struct.error as exc:
        raise WireCodecError(f"datagram address too long: {exc}") from exc
    return b"".join((header, source, destination, wire))


def decode_datagram(body: bytes) -> tuple[str, str, Any]:
    """Inverse of :func:`encode_datagram`; raises only :class:`WireCodecError`."""
    try:
        src_len, dst_len = _ADDRESS.unpack_from(body)
        split = _ADDRESS.size + src_len
        payload_at = split + dst_len
        if payload_at > len(body):
            raise WireCodecError("datagram address runs past its body")
        src = body[_ADDRESS.size : split].decode("utf-8")
        dst = body[split:payload_at].decode("utf-8")
    except (struct.error, UnicodeDecodeError) as exc:
        raise WireCodecError(f"malformed datagram header: {exc}") from exc
    return src, dst, decode_wire_payload(body[payload_at:])


def _register_builtin_types() -> None:
    """Register every payload type the protocol layers put on the wire."""
    from repro.bft import messages as bft
    from repro.itdos import messages as itdos
    from repro.recovery import messages as recovery

    for cls in (
        bft.ClientRequest,
        bft.BatchMsg,
        bft.PrePrepareMsg,
        bft.PrepareMsg,
        bft.CommitMsg,
        bft.BftReply,
        bft.CheckpointMsg,
        bft.PreparedCertificate,
        bft.ViewChangeMsg,
        bft.NewViewMsg,
        bft.StatusMsg,
        bft.FillMsg,
        bft.StateRequestMsg,
        bft.StateResponseMsg,
        itdos.SmiopRequest,
        itdos.SmiopReply,
        itdos.BodyRequest,
        itdos.BodyReply,
        itdos.ReadRequest,
        itdos.ReadReply,
        itdos.CommitFeed,
        itdos.ReadSyncRequest,
        itdos.ReadSyncResponse,
        itdos.GmShareEnvelope,
        itdos.OpenRequest,
        itdos.ProofItem,
        itdos.ChangeRequest,
        itdos.RekeyTick,
        itdos.ReadmitRequest,
        itdos.CoinMessage,
        recovery.RejoinPetition,
        recovery.QueueStateRequest,
        recovery.QueueStateResponse,
    ):
        register_wire_type(cls)


_register_builtin_types()
