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

The payload bytes are the canonical TLV of :mod:`repro.crypto.encoding`,
written and parsed by that module's one writer and one parser. This module
adds only what is wire-specific, and plugs it into them:

* **the envelope** — a registered dataclass is written as the mapping
  ``{"__wire__": <name>, "f": {<field>: <value>...}}`` (every field,
  including ``auth`` material, which the *signed* form deliberately
  excludes — the wire must carry it). Each registered class compiles, once,
  an encoder that knows its sorted field keys and the constant envelope
  bytes around them, and sits in the wire's own encoder table;
* **the rebuild** — the shared parser hands each envelope it meets to the
  class's compiled decoder, which restores tuple-typed fields with coercers
  compiled from the type hints, so a round-tripped message is ``==`` to the
  original and re-encodes byte-identically;
* **the datagram header** below.

Every malformed input — truncated, bit-flipped, wrongly shaped, or nested
deeper than :data:`repro.crypto.encoding.MAX_DEPTH` — raises
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

from repro.crypto.encoding import _U32, CanonicalError, _decode, _enc_str, _EncoderTable

_ADDRESS = struct.Struct(">HH")


class WireCodecError(CanonicalError):
    """Payload cannot cross a real process boundary."""


# -- encoding ----------------------------------------------------------------


def _unregistered(cls: type) -> Callable[[Any], bytes]:
    raise TypeError(f"{cls.__name__} is not a registered wire type")


#: The wire's writer: builtins as in the signed form, registered dataclasses
#: as their compiled envelope encoders, anything else refused.
_ENCODERS = _EncoderTable(_unregistered)


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


#: The shared parser's hook for registered envelopes.
_ENVELOPE = (_enc_str("__wire__"), _enc_str("f"), _rebuild)


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


def encode_wire_payload(payload: Any) -> bytes:
    """Canonical bytes for one cross-process payload (object or plain value)."""
    try:
        return _ENCODERS[type(payload)](payload)
    except (ValueError, TypeError, struct.error, RecursionError) as exc:
        raise WireCodecError(
            f"payload {type(payload).__name__} is not wire-encodable: {exc}"
        ) from exc


def decode_wire_payload(raw: bytes) -> Any:
    """Inverse of :func:`encode_wire_payload`; raises only :class:`WireCodecError`."""
    try:
        return _decode(raw, _ENVELOPE)
    except WireCodecError:
        raise
    except CanonicalError as exc:
        raise WireCodecError(f"malformed wire payload: {exc}") from exc


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
