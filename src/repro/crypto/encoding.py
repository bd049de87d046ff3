"""The canonical tag-length-value (TLV) codec: one writer and one parser.

Protocol messages must be signed, and signatures require a deterministic byte
representation. The scheme covers the JSON-ish value universe the protocols
use; every atom is tagged, so values of different types never collide, and
mappings are written with sorted keys, so structurally equal values always
encode identically::

    None N        True T        False F
    int   I | len (uint32 BE) | decimal ASCII
    float D | IEEE-754 double (BE)
    str   S | len | UTF-8            bytes B | len | octets
    list  L | len | count (uint32) | item...
    dict  M | len | count | (S-key value)... in sorted key order

This module holds the only writer and parser of that format. Signing,
digests, ITDOS payloads and the real wire (:mod:`repro.net.wire`) all use
them, and differ only in how an *object* is written:

* :func:`canonical_bytes` writes an object that defines ``canonical_fields()``
  as the mapping ``{"__type__": <class name>, **fields}`` — the signed form,
  which leaves ``auth`` material out;
* the wire builds its own :class:`_EncoderTable`, whose registered dataclasses
  are written as ``{"__wire__": <name>, "f": {<every field>}}``, and passes
  the parser an envelope hook that rebuilds those in place.

The parser enforces :data:`MAX_DEPTH` with a depth counter. Every malformed
input, over-deep ones included, raises a :class:`CanonicalError`.
"""

from __future__ import annotations

import struct
from typing import Any, Callable

#: Deepest container nesting a parser accepts. Measured maxima: signed forms
#: nest 3 deep, wire payloads 8 (a registered dataclass is 2 levels: its
#: envelope and its fields). The bound is a constant checked by counting, not
#: a caught RecursionError: where that fires depends on how deep the caller's
#: stack already is, so honest replicas (or the two backends) could reach
#: different verdicts on the same ordered payload. 32 leaves a wide margin
#: and keeps a parse within a few dozen interpreter frames.
MAX_DEPTH = 32

_U32 = struct.Struct(">I")
_U32X2 = struct.Struct(">II")
_F64 = struct.Struct(">d")

# Tag bytes as ints (what ``raw[pos]`` yields).
_N, _T, _F, _I, _D, _S, _B, _L, _M = b"NTFIDSBLM"


class CanonicalError(ValueError):
    """Bytes that are not one well-formed canonical value."""


# -- writing -----------------------------------------------------------------


def _enc_none(value: None) -> bytes:
    return b"N"


def _enc_bool(value: bool) -> bytes:
    return b"T" if value else b"F"


def _enc_int(value: int) -> bytes:
    body = str(value).encode("ascii")
    return b"I" + _U32.pack(len(body)) + body


def _enc_float(value: float) -> bytes:
    if value != value:
        # NaN != NaN would make signature verification ambiguous.
        raise ValueError("cannot canonically encode NaN")
    return b"D" + _F64.pack(value)


def _enc_str(value: str) -> bytes:
    body = value.encode("utf-8")
    return b"S" + _U32.pack(len(body)) + body


def _enc_bytes(value: bytes) -> bytes:
    return b"B" + _U32.pack(len(value)) + bytes(value)


class _EncoderTable(dict):
    """``type -> encoder`` for one way of writing objects.

    The sequence and mapping encoders look their items up in this same
    table, so the table decides how every nested object is written. A miss
    resolves subclasses of the builtins (bool before int), then asks
    ``fallback(cls)`` for an encoder; ``fallback`` raises :class:`TypeError`
    for a type the table cannot write.
    """

    def __init__(self, fallback: Callable[[type], Callable[[Any], bytes]]) -> None:
        super().__init__()
        self._fallback = fallback

        def sequence(value: list | tuple) -> bytes:
            body = b"".join([self[type(item)](item) for item in value])
            return b"L" + _U32X2.pack(len(body) + 4, len(value)) + body

        def mapping(value: dict) -> bytes:
            parts = []
            for key in sorted(value):
                if not isinstance(key, str):
                    raise TypeError(f"dict keys must be str, got {type(key).__name__}")
                item = value[key]
                parts.append(_enc_str(key) + self[type(item)](item))
            body = b"".join(parts)
            return b"M" + _U32X2.pack(len(body) + 4, len(value)) + body

        self._builtins = (
            (type(None), _enc_none),
            (bool, _enc_bool),
            (int, _enc_int),
            (float, _enc_float),
            (str, _enc_str),
            (bytes, _enc_bytes),
            (bytearray, _enc_bytes),
            (list, sequence),
            (tuple, sequence),
            (dict, mapping),
        )
        self.update(self._builtins)

    def __missing__(self, cls: type) -> Callable[[Any], bytes]:
        for base, encoder in self._builtins:
            if issubclass(cls, base):
                break
        else:
            encoder = self._fallback(cls)
        self[cls] = encoder
        return encoder


def _signed_form(cls: type) -> Callable[[Any], bytes]:
    return _enc_signed_form


def _enc_signed_form(value: Any) -> bytes:
    fields_fn = getattr(value, "canonical_fields", None)
    if not callable(fields_fn):
        raise TypeError(f"cannot canonically encode {type(value).__name__}")
    return _enc_signed_mapping({"__type__": type(value).__name__, **fields_fn()})


_SIGNING = _EncoderTable(_signed_form)
_enc_signed_mapping = _SIGNING[dict]


def canonical_bytes(value: Any) -> bytes:
    """Encode ``value`` into canonical bytes.

    Raises :class:`TypeError` for unsupported types and :class:`ValueError`
    for NaN floats. Dataclass-style objects may participate by defining
    ``canonical_fields()`` returning a dict.
    """
    return _SIGNING[type(value)](value)


# -- parsing -----------------------------------------------------------------

#: ``(tag_key, body_key, rebuild)``, both keys already encoded: a two-entry
#: mapping whose keys are exactly those is parsed as ``rebuild(tag, body)``.
_Envelope = tuple[bytes, bytes, Callable[[Any, Any], Any]]


def _parse(raw: bytes, pos: int, depth: int, envelope: _Envelope | None) -> tuple[Any, int]:
    """One canonical value at ``pos``; returns it and the position after it.

    ``depth`` counts the containers around ``pos``; a container at depth
    :data:`MAX_DEPTH` is malformed. ``envelope`` is ``None`` for plain
    values. Out-of-range reads surface as ``IndexError``/``struct.error``,
    which :func:`_decode` turns into :class:`CanonicalError`.
    """
    tag = raw[pos]
    if tag == _B or tag == _S or tag == _I:
        start = pos + 5
        end = start + _U32.unpack_from(raw, pos + 1)[0]
        if end > len(raw):
            raise CanonicalError("truncated canonical body")
        if tag == _B:
            return raw[start:end], end
        if tag == _S:
            return raw[start:end].decode("utf-8"), end
        return int(raw[start:end]), end
    if tag == _M or tag == _L:
        if depth >= MAX_DEPTH:
            raise CanonicalError(f"canonical value nests deeper than {MAX_DEPTH} containers")
        depth += 1
        length, count = _U32X2.unpack_from(raw, pos + 1)
        if length < 4:
            raise CanonicalError("container body too short")
        end = pos + 5 + length
        if end > len(raw):
            raise CanonicalError("truncated canonical body")
        cursor = pos + 9
        if tag == _L:
            items = []
            for _ in range(count):
                item, cursor = _parse(raw, cursor, depth, envelope)
                items.append(item)
            if cursor != end:
                raise CanonicalError("list body length mismatch")
            return items, end
        if envelope is not None and count == 2 and raw.startswith(envelope[0], cursor):
            tag_key, body_key, rebuild = envelope
            name, after = _parse(raw, cursor + len(tag_key), depth, envelope)
            if raw.startswith(body_key, after):
                body, cursor = _parse(raw, after + len(body_key), depth, envelope)
                if cursor != end:
                    raise CanonicalError("dict body length mismatch")
                return rebuild(name, body), end
        mapping = {}
        for _ in range(count):
            # Keys are strings: parse them inline, not through a call.
            if raw[cursor] != _S:
                raise CanonicalError("dict key is not a string")
            start = cursor + 5
            cursor = start + _U32.unpack_from(raw, cursor + 1)[0]
            if cursor > end:
                raise CanonicalError("truncated dict key")
            mapping[raw[start:cursor].decode("utf-8")], cursor = _parse(
                raw, cursor, depth, envelope
            )
        if cursor != end:
            raise CanonicalError("dict body length mismatch")
        return mapping, end
    if tag == _N:
        return None, pos + 1
    if tag == _T:
        return True, pos + 1
    if tag == _F:
        return False, pos + 1
    if tag == _D:
        return _F64.unpack_from(raw, pos + 1)[0], pos + 9
    raise CanonicalError(f"unknown canonical tag {raw[pos:pos + 1]!r}")


#: What an out-of-range read, a bad atom body or an envelope's ``rebuild``
#: can raise inside the parser.
_MALFORMED = (ValueError, TypeError, IndexError, struct.error)


def _decode(raw: bytes, envelope: _Envelope | None = None) -> Any:
    """Parse all of ``raw``; every failure raises :class:`CanonicalError`."""
    if type(raw) is not bytes:
        raw = bytes(raw)
    try:
        value, end = _parse(raw, 0, 0, envelope)
    except CanonicalError:
        raise
    except _MALFORMED as exc:
        raise CanonicalError(f"malformed canonical value: {exc!r}") from exc
    if end != len(raw):
        raise CanonicalError(f"trailing bytes after canonical value at {end}")
    return value


def parse_canonical(raw: bytes) -> Any:
    """Inverse of :func:`canonical_bytes` for the plain value universe.

    Objects encoded via ``canonical_fields()`` come back as dicts (including
    their ``__type__`` marker) — protocol layers re-hydrate those themselves.
    Raises :class:`CanonicalError` (a :class:`ValueError`) on malformed
    input, trailing bytes, or nesting deeper than :data:`MAX_DEPTH`.
    """
    return _decode(raw)
