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

:func:`decode` checks everything at once (the stream, the header, every
column's length, every table index against its table, the type of every
table and ``j`` value against its field) and then stops: it builds no
:class:`ScheduledOp`.  The result's schedule holds the checked columns
(:meth:`Schedule.from_columns`) and builds ops only when
:attr:`Schedule.ops` is read, so a reader of the fingerprint or the summary, of the remembered bytes
(:func:`encoded`), or the replay validator (which reads
:meth:`Schedule.columns`) never pays for them; ``full`` replies and
``to_dict()`` do.  :func:`encode` reads the same :meth:`Schedule.columns`,
so a compiled and a decoded schedule encode through one path.
"""

from __future__ import annotations

import hashlib
import json
import struct
import sys
import zlib
from array import array
from itertools import chain
from typing import Any, Callable, List, Tuple, Union

from ..scheduling.events import TABLE_FIELDS, Schedule, ScheduledOp, TableColumn
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


def _types_in(values, *allowed: type) -> bool:
    """Whether every value's type is one of ``allowed`` (a bool is not an
    int); one C-level pass."""
    return set(map(type, values)) <= set(allowed)


def _all_ints(values: list) -> bool:
    return _types_in(values, int)


def _all_str(values: list) -> bool:
    return _types_in(values, str)


def _all_times(values: list) -> bool:
    # an int time must still fit a float, as every time comparison does
    return _types_in(values, float, int) and all(
        abs(value) <= sys.float_info.max for value in values if type(value) is int
    )


def _all_gate_indices(values: list) -> bool:
    return _types_in(values, int, type(None))


def _all_qubit_tuples(values: list) -> bool:
    return _types_in(chain.from_iterable(values), int)


def _all_cell_tuples(values: list) -> bool:
    cells = set(chain.from_iterable(values))  # a cell recurs across rows
    return set(map(len, cells)) <= {2} and _types_in(chain.from_iterable(cells), int)


#: ``(field, packed kind, rebuild-from-JSON, accepts the rebuilt values)``
#: in ScheduledOp field order.
_FIELDS: Tuple[Tuple[str, str, Callable[[Any], Any], Callable[[list], bool]], ...] = (
    ("uid", "q", _same, _all_ints),
    ("kind", "t", _same, _all_str),
    ("name", "t", _same, _all_str),
    ("qubits", "t", tuple, _all_qubit_tuples),
    ("cells", "t", _as_cells, _all_cell_tuples),
    ("start", "d", _same, _all_times),
    ("duration", "d", _same, _all_times),
    ("min_start", "d", _same, _all_times),
    ("gate_index", "q", _same, _all_gate_indices),
    ("note", "t", _same, _all_str),
)
assert tuple(f[0] for f in _FIELDS) == ScheduledOp.__slots__
assert tuple(f[0] for f in _FIELDS if f[1] == "t") == TABLE_FIELDS

_ITEM = {"d": "d", "q": "q", "t": "I"}


def _packed(values, kind: str) -> Tuple[Any, bytes]:
    """``(descriptor extra, column bytes)``; raises TypeError if unpackable."""
    if kind == "t":
        if not isinstance(values, TableColumn):
            values = TableColumn.of(list(values))
            if not isinstance(values, TableColumn):
                raise TypeError("unhashable")
        column, extra = array("I", values.rows), list(values.table)
    elif kind == "d":
        if set(map(type, values)) - {float}:
            raise TypeError("not all floats")
        column, extra = array("d", values), None
    else:
        if set(map(type, values)) - {int} or (
            values and (min(values) < _INT64[0] or max(values) > _INT64[1])
        ):
            raise TypeError("not all int64")
        column, extra = array("q", values), None
    if _BIG_ENDIAN:
        column.byteswap()
    return extra, column.tobytes()


def encode(result: CompilationResult) -> bytes:
    """The result as self-describing, checksummed bytes (see module doc)."""
    descriptors: List[list] = []
    chunks: List[bytes] = []
    for (name, kind, _, _), values in zip(_FIELDS, result.schedule.columns()):
        try:
            extra, data = _packed(values, kind)
        except TypeError:  # unhashable or mistyped: keep the exact values
            descriptors.append([name, "j", list(values)])
            continue
        descriptors.append([name, kind, extra])
        chunks.append(data)
    header = json.dumps(
        {
            "result": result.to_dict(include_schedule=False),
            "ops": len(result.schedule),
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

    Every check happens here: the zlib stream, the header, each column's
    length, each table index within its table, and the type of each table
    and ``j`` value (see :data:`_FIELDS`; a bool is neither an int nor a
    float).  Malformed input raises :class:`CodecError` from this call,
    never later.  The ops are not built: the schedule is the checked
    columns, and only a read of its ``ops`` builds :class:`ScheduledOp`
    views of them.

    The result remembers ``blob`` (see :func:`encoded`), so a tier that
    promotes it re-uses these bytes instead of encoding again.
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
        for (name, kind, rebuild, accepts), (label, code, extra) in zip(
            _FIELDS, header["columns"]
        ):
            if label != name or code not in (kind, "j"):
                raise CodecError(f"unexpected column {label!r}:{code!r}")
            if code in ("j", "t"):
                # once per table value, not per op (a "j" column is rare)
                extra = list(map(rebuild, extra))
                if not accepts(extra):
                    raise CodecError(f"column {name!r} holds a value of the wrong type")
            if code == "j":
                values = extra
            else:
                column = array(_ITEM[code])
                end = offset + count * column.itemsize
                column.frombytes(raw[offset:end])
                offset = end
                if _BIG_ENDIAN:
                    column.byteswap()
                if code == "t":
                    if column and max(column) >= len(extra):
                        raise CodecError(f"column {name!r} indexes past its table")
                    values = TableColumn(extra, column)
                else:
                    values = column
            if len(values) != count:
                raise CodecError(f"column {name!r} holds {len(values)} of {count} ops")
            columns.append(values)
        if offset != len(raw):
            raise CodecError("column section does not match the header")
        schedule = Schedule.from_columns(columns)
        result = CompilationResult.from_dict(header["result"], schedule)
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
