"""One compact binary encoding of a :class:`CompilationResult`.

A result crosses three boundaries inside the sweep stack: the worker-pool
pipe, the disk tier and the cache peer's socket.  :func:`encode` turns it
into bytes once; those same bytes then travel every hop and land in every
tier unchanged, and :func:`decode` turns them back into a result that
serializes byte-identically to the original (``json.dumps(to_dict(),
sort_keys=True)`` is equal).  ``to_dict``/``from_dict`` remain the public
JSON edge (``full`` service replies, HTTP bodies, fuzz oracles).

Layout of an encoded result::

    b"RPRC" | SHA-256 of body (64 ASCII hex) | body
    body = zlib( header length (u32 LE) | header JSON | column bytes )

The bytes carry no version of their own: every copy lives under a job key,
and the key hashes in ``CACHE_SCHEMA`` (:mod:`repro.sweep.jobs`), which is
bumped on any layout change.

The header holds every non-schedule field (``to_dict(include_schedule=
False)``), the op count and one descriptor per :class:`ScheduledOp` field,
in field order.  A column is stored as one of:

``d`` / ``q``
    packed little-endian float64 / int64 values (``start``, ``duration``,
    ``min_start``, ``uid``, ``gate_index``);
``t``
    an intern table in the header plus one u32 index per op (``kind``,
    ``name``, ``note`` and whole ``qubits``/``cells`` tuples — a schedule
    of 48k ops has a few hundred distinct values of each);
``j``
    a plain JSON list in the header, the exact fallback for a column whose
    values do not fit its packed form (an int in a float column, a
    ``gate_index`` of None).

The digest covers the compressed body; callers at a trust boundary check
it with :func:`payload_checksum` (see :func:`split`) before decoding.
Packed columns hold the same small-integer idea as the grid's cell
addressing (:mod:`repro.arch.grid`): ops refer to table rows, not objects.
"""

from __future__ import annotations

import hashlib
import json
import struct
import sys
import zlib
from array import array
from operator import attrgetter
from typing import Any, Callable, List, Tuple, Union

from ..scheduling.events import Schedule, ScheduledOp
from .result import CompilationResult

MAGIC = b"RPRC"

_PREFIX = struct.Struct("<4s64s")
_HEADER_LEN = struct.Struct("<I")

#: zlib level: over the benchmark matrix, 1 encodes ~1.5x faster than the
#: default (6) for entries ~25% larger.
_LEVEL = 1

#: where :func:`decode` leaves the bytes a result was decoded from.
_ENCODED = "_encoded"

#: bound on a decompressed body.  Encoded bytes may come from a remote
#: peer, and a small zlib stream can inflate a thousandfold; a 16x16 Ising
#: schedule (72k ops) inflates to about 4.4 MB.
MAX_BODY_BYTES = 256 * 1024 * 1024

_BIG_ENDIAN = sys.byteorder == "big"
_INT64 = (-(2**63), 2**63 - 1)


class CodecError(ValueError):
    """The bytes are not an encoded result of this format."""


def payload_checksum(payload: Union[bytes, bytearray, memoryview, dict]) -> str:
    """SHA-256 hex digest of encoded bytes (a dict hashes as canonical JSON)."""
    if isinstance(payload, dict):
        payload = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def _as_cells(value: Any) -> tuple:
    return tuple(map(tuple, value))


def _same(value: Any) -> Any:
    return value


#: ``(field, packed kind, rebuild-from-JSON)`` in ScheduledOp field order.
_FIELDS: Tuple[Tuple[str, str, Callable[[Any], Any]], ...] = (
    ("uid", "q", _same),
    ("kind", "t", _same),
    ("name", "t", _same),
    ("qubits", "t", tuple),
    ("cells", "t", _as_cells),
    ("start", "d", _same),
    ("duration", "d", _same),
    ("min_start", "d", _same),
    ("gate_index", "q", _same),
    ("note", "t", _same),
)
assert tuple(f[0] for f in _FIELDS) == ScheduledOp.__slots__

#: one op as the tuple of its field values, in :data:`_FIELDS` order.
_ROW = attrgetter(*(name for name, _, _ in _FIELDS))

_ITEM = {"d": "d", "q": "q", "t": "I"}


def _packed(values: list, kind: str) -> Tuple[Any, bytes]:
    """``(descriptor extra, column bytes)``; raises TypeError if unpackable."""
    if kind == "d":
        if set(map(type, values)) - {float}:
            raise TypeError("not all floats")
        column, extra = array("d", values), None
    elif kind == "q":
        if set(map(type, values)) - {int} or (
            values and (min(values) < _INT64[0] or max(values) > _INT64[1])
        ):
            raise TypeError("not all int64")
        column, extra = array("q", values), None
    else:
        rows = {value: row for row, value in enumerate(dict.fromkeys(values))}
        column, extra = array("I", map(rows.__getitem__, values)), list(rows)
    if _BIG_ENDIAN:
        column.byteswap()
    return extra, column.tobytes()


def encode(result: CompilationResult) -> bytes:
    """The result as self-describing, checksummed bytes (see module doc)."""
    ops = result.schedule.ops
    columns = zip(*map(_ROW, ops)) if ops else [()] * len(_FIELDS)
    descriptors: List[list] = []
    chunks: List[bytes] = []
    for (name, kind, _), values in zip(_FIELDS, columns):
        values = list(values)
        try:
            extra, data = _packed(values, kind)
        except TypeError:  # unhashable or mistyped: keep the exact values
            descriptors.append([name, "j", values])
            continue
        descriptors.append([name, kind, extra])
        chunks.append(data)
    header = json.dumps(
        {
            "result": result.to_dict(include_schedule=False),
            "ops": len(ops),
            "columns": descriptors,
        },
        sort_keys=True,
    ).encode()
    body = zlib.compress(
        b"".join([_HEADER_LEN.pack(len(header)), header, *chunks]), _LEVEL
    )
    digest = payload_checksum(body).encode("ascii")
    return _PREFIX.pack(MAGIC, digest) + body


def split(blob: Union[bytes, memoryview]) -> Tuple[str, memoryview]:
    """``(digest, body)`` of an encoded result, without verifying it.

    A boundary check is ``payload_checksum(body) == digest``.  Raises
    :class:`CodecError` when the bytes do not start like an encoded result.
    """
    if len(blob) < _PREFIX.size:
        raise CodecError("encoded result is truncated")
    magic, digest = _PREFIX.unpack_from(blob)
    if magic != MAGIC:
        raise CodecError("not an encoded result")
    return digest.decode("ascii", "replace"), memoryview(blob)[_PREFIX.size:]


def decode(blob: bytes) -> CompilationResult:
    """Rebuild the result from :func:`encode` bytes (digest not checked).

    The result remembers ``blob`` (see :func:`encoded`), so a tier that
    promotes it re-uses these bytes instead of encoding again.  Raises
    :class:`CodecError` on malformed input.
    """
    _, body = split(blob)
    try:
        inflate = zlib.decompressobj()
        raw = memoryview(inflate.decompress(body, MAX_BODY_BYTES))
        if inflate.unconsumed_tail:
            raise CodecError(f"body inflates beyond {MAX_BODY_BYTES} bytes")
        if not inflate.eof or inflate.unused_data:
            raise CodecError("body is not one complete zlib stream")
        (size,) = _HEADER_LEN.unpack_from(raw)
        offset = _HEADER_LEN.size + size
        header = json.loads(bytes(raw[_HEADER_LEN.size:offset]))
        count = header["ops"]
        if len(header["columns"]) != len(_FIELDS):
            raise CodecError("the header does not describe every op field")
        columns = []
        for (name, kind, rebuild), (label, code, extra) in zip(
            _FIELDS, header["columns"]
        ):
            if label != name or code not in (kind, "j"):
                raise CodecError(f"unexpected column {label!r}:{code!r}")
            if code == "j":
                values = list(map(rebuild, extra))
            else:
                column = array(_ITEM[code])
                end = offset + count * column.itemsize
                column.frombytes(raw[offset:end])
                offset = end
                if _BIG_ENDIAN:
                    column.byteswap()
                if code == "t":
                    table = list(map(rebuild, extra))
                    values = list(map(table.__getitem__, column))
                else:
                    values = column
            if len(values) != count:
                raise CodecError(f"column {name!r} holds {len(values)} of {count} ops")
            columns.append(values)
        if offset != len(raw):
            raise CodecError("column section does not match the header")
        ops = list(map(ScheduledOp, *columns))
        result = CompilationResult.from_dict(header["result"], Schedule(ops))
    except CodecError:
        raise
    except (
        zlib.error, struct.error, KeyError, IndexError, TypeError, ValueError,
        RecursionError,
    ) as exc:
        raise CodecError(f"malformed encoded result: {type(exc).__name__}: {exc}") from exc
    setattr(result, _ENCODED, bytes(blob))
    return result


def encoded(result: CompilationResult) -> bytes:
    """The bytes ``result`` was decoded from, else a fresh :func:`encode`."""
    blob = getattr(result, _ENCODED, None)
    return blob if blob is not None else encode(result)
