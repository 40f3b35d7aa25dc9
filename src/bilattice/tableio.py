"""CSV and JSON bytes of a sweep table (``write_table``).

A table's values are floats, held as cells (see ``sweep.Table``): a
constant prefix per grid cell plus column arrays, some of them shared by
every cell.  ``write_table`` joins each distinct column object into one
value vector per table and renders it, up to 4096 values per numpy pass,
into a slot-major byte matrix: one row per character slot, one column per
value, 0 where a token leaves a slot empty (``_token_slots``).  A value's
12 significant digits come from exact integer arithmetic on the scaled
value; the values within 1e-3 of a rounding tie or next to a decade edge,
zeros, non-finite values and |x| outside [1e-33, 1e55) are formatted one
by one (``_token``), as is each cell's prefix.  The rows are then laid out
from those bytes a block of rows at a time: each column's slot rows, with
constant rows for the cell's lead and the separators, transposed to
row-major, and the 0 padding deleted from its bytes by one
``bytes.translate`` (``_row_blocks``).  The bytes are written
as they are laid out, and they are those of per-value ``f"{v:.12g}"``
(CSV) and of ``json.dumps(indent=1)`` over the rounded floats with NaN as
null (JSON).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .sweep import Table

_CHUNK = 4096        # values rendered per call; bounds the transient arrays
_BLOCK_ROWS = 1024   # rows laid out at a time; bounds the row-major copies
_NON_FINITE = {"nan": "null", "inf": "Infinity", "-inf": "-Infinity"}


def _json_number(s: str) -> str:
    """JSON token of a ``%.12g`` string: json.dumps(float(s)), NaN as null.

    For a finite float, json.dumps writes its repr.
    """
    return _NON_FINITE.get(s) or repr(float(s))


def _token(v, json_tokens: bool) -> str:
    """The token of one value: ``"%.12g" % v``, or its JSON number."""
    s = "%.12g" % v
    return _json_number(s) if json_tokens else s


# The renderer's certified range: 1e-33 <= |x| < 1e55, decimal exponents
# -33 ... 54, so that the scale 10^(11 - X) is a product of at most two
# powers of ten of at most 22 digits, each exact as a double.
_X_MIN, _X_MAX = -33, 54
_TIE_MARGIN = 1e-3   # least distance of the scaled value from a rounding tie
# The slots of a token, in order: the sign; the lead ('0.000'); digit 1, a
# point slot, digit 2, ..., a point slot, digit 12; for JSON, the positional
# zeros of 1e12 ... 1e16 as digits 13 to 16; the tail ('e+dd', or JSON's
# '.0').  A slot that a token does not use holds 0.
_LEAD_SLOTS, _TAIL_SLOTS = 5, 4
_DIGITS = 1 + _LEAD_SLOTS              # first digit slot; the points are between
_POINTS = slice(_DIGITS + 1, _DIGITS + 22, 2)


class _Glyphs(NamedTuple):
    """Lookup tables of one token kind, indexed by decimal exponent X as
    X - _X_MIN where not said otherwise."""

    decade: np.ndarray      # the double nearest 10^X, X = _X_MIN ... _X_MAX + 1
    mul: np.ndarray         # 10^k for k = 0 ... 22, else 1; index k + 22
    div: np.ndarray         # 10^-k for k = -22 ... -1, else 1; index k + 22
    digits: np.ndarray      # (3, 1000): the digit bytes of 000 ... 999
    zeros: np.ndarray       # (1000,): trailing zeros of a 3-digit group
    lead: np.ndarray        # (_LEAD_SLOTS, n_X): '0.' and zeros ahead of the digits
    int_digits: np.ndarray  # (n_X,): digits ahead of the point (0 after a lead)
    tail: np.ndarray        # (_TAIL_SLOTS, 2 n_X): the exponent, or JSON's
                            # '.0' at index n_X + X - _X_MIN for an integer
    width: int              # slots per token


def _slots(strings, width: int) -> np.ndarray:
    """ASCII strings as a (width, len(strings)) uint8 matrix, 0-padded."""
    text = "".join(s.ljust(width, "\0") for s in strings).encode("ascii")
    return np.frombuffer(text, np.uint8).reshape(len(strings), width).T


@functools.cache
def _glyphs(json_tokens: bool) -> _Glyphs:
    """The tables of ``%.12g`` tokens, or of JSON tokens, built on first use."""
    exact = [float("1e%d" % k) for k in range(23)]
    last_positional = 15 if json_tokens else 11
    leads, int_digits, tails = [], [], []
    for x in range(_X_MIN, _X_MAX + 1):
        positional = -4 <= x <= last_positional
        leads.append("0." + "0" * (-x - 1) if positional and x < 0 else "")
        int_digits.append(max(x + 1, 0) if positional else 1)
        tails.append("" if positional else "e%+03d" % x)
    # an integer value in positional notation: JSON writes '.0' after it
    tails += [".0" if json_tokens and t == "" else t for t in tails]
    groups = ["%03d" % q for q in range(1000)]
    return _Glyphs(
        decade=np.array([float("1e%d" % x) for x in range(_X_MIN, _X_MAX + 2)]),
        mul=np.array([1.0] * 22 + exact),
        div=np.array(exact[:0:-1] + [1.0] * 23),
        digits=np.ascontiguousarray(_slots(groups, 3)),
        zeros=np.array([3] + [3 - len(q.rstrip("0")) for q in groups[1:]]),
        lead=np.ascontiguousarray(_slots(leads, _LEAD_SLOTS)),
        int_digits=np.array(int_digits),
        tail=np.ascontiguousarray(_slots(tails, _TAIL_SLOTS)),
        width=_DIGITS + 23 + (4 if json_tokens else 0) + _TAIL_SLOTS,
    )


def _token_slots(values, json_tokens: bool) -> np.ndarray:
    """The tokens of float values as a slot-major uint8 matrix.

    Column i holds the bytes of value i's token (``%.12g``, or its JSON
    number with NaN as null) in order, with 0 in the slots it leaves empty.
    A finite value with 1e-33 <= |x| < 1e55 is rendered from its 12-digit
    significand m, which integer arithmetic gets exactly unless the scaled
    value sits near a rounding tie or a decade edge; those values, and
    every other one, take ``_token`` one by one.
    Every step is a numpy call over all the values, so the number of calls
    does not grow with their count.
    """
    g = _glyphs(json_tokens)
    x = np.asarray(values, dtype=float)
    ax = np.abs(x)
    fast = (ax >= 1e-33) & (ax < 1e55)
    ax = np.where(fast, ax, 1.0)
    # decimal exponent X: floor(E log10 2) from the binary exponent E (exact
    # for |E| < 1650), then one up where |x| >= 10^(X + 1)
    X = ((ax.view(np.int64) >> 52) - 1023) * 78913 >> 18
    X += ax >= g.decade.take(X + (1 - _X_MIN))
    # s = |x| 10^(11 - X), scaled twice by an exact power of at most 10^22
    # (each step rounds once, so |s - the exact value| < 3e-4)
    e = 11 - X
    step = np.maximum(np.minimum(e, 22), -22) + 22
    s = ax * g.mul.take(step) / g.div.take(step)
    step = e - step + 44
    s = s * g.mul.take(step) / g.div.take(step)
    m = np.rint(s)
    # certified: s is in the decade with room for its error, and far enough
    # from a half that it rounds as the exact value does, to m
    fast &= (s >= 1e11 + 1) & (s < 1e12 - 1) & (np.abs(s - m) < 0.5 - _TIE_MARGIN)
    # the four 3-digit groups of m, most significant first; m < 1e12, so
    # floor(m / 1000) is the exact quotient
    m = np.where(fast, m, 1e11)
    groups = np.empty((4, len(m)))
    for k in (3, 2, 1):
        q = np.floor(m / 1000)
        groups[k] = m - 1000 * q
        m = q
    groups[0] = m
    groups = groups.astype(np.int64)
    zeros = g.zeros.take(groups)
    # trailing zeros: those of the last group, and of each one before it
    # while every group after that one is 000
    trailing = zeros[3] + (groups[3] == 0) * (
        zeros[2] + (groups[2] == 0) * (zeros[1] + (groups[1] == 0) * zeros[0])
    )
    n_digits = 12 - trailing
    index = X - _X_MIN
    int_digits = g.int_digits.take(index)
    # the digits written: the significant ones, '0'-padded up to the point,
    # and the point after digit int_digits when a fraction follows it
    written = np.maximum(n_digits, int_digits)
    point = np.where(n_digits > int_digits, int_digits, 0)

    slots = np.zeros((g.width, len(x)), dtype=np.uint8)
    slots[0] = (x < 0) * np.uint8(ord("-"))   # a certified value is not 0 or NaN
    slots[1:_DIGITS] = g.lead.take(index, axis=1)
    digits = slots[_DIGITS:_DIGITS + 23:2]
    digits[...] = g.digits.take(groups, axis=1).transpose(1, 0, 2).reshape(12, -1)
    digits *= written > np.arange(12)[:, None]
    slots[_POINTS] = (point == np.arange(1, 12)[:, None]) * np.uint8(ord("."))
    if json_tokens:
        padded = written > np.arange(12, 16)[:, None]
        slots[_DIGITS + 23:-_TAIL_SLOTS] = padded * np.uint8(ord("0"))
    index += (n_digits <= int_digits) * len(g.int_digits)
    slots[-_TAIL_SLOTS:] = g.tail.take(index, axis=1)

    slow = np.flatnonzero(~fast)
    if len(slow):
        slots[:, slow] = _slots([_token(v, json_tokens) for v in x[slow].tolist()], g.width)
    return slots


def _rendered(parts, json_tokens: bool) -> list[np.ndarray]:
    """Each part's tokens as its own slot matrix.

    The parts, float arrays, are joined into one vector, which is rendered
    ``_CHUNK`` values per call of ``_token_slots`` (so that a table of many
    short columns costs few calls) into one slot matrix.  A part is its
    column slice of that matrix without the slice's all-zero slot rows.
    """
    values = np.concatenate(parts) if parts else np.empty(0)
    slots = np.empty((_glyphs(json_tokens).width, len(values)), np.uint8)
    for lo in range(0, len(values), _CHUNK):
        slots[:, lo:lo + _CHUNK] = _token_slots(values[lo:lo + _CHUNK], json_tokens)
    mats, start = [], 0
    for part in parts:
        mat = slots[:, start:start + len(part)]
        mats.append(mat[mat.any(axis=1)])
        start += len(part)
    return mats


class _Layout(NamedTuple):
    head: bytes   # ahead of a row's first value
    sep: bytes    # between two values of a row
    tail: bytes   # after a row's last value
    skip: int     # bytes dropped from the first row


_LAYOUTS = {
    "csv": _Layout(b"", b",", b"\n", 0),
    # json.dumps(indent=1): rows are joined by ',\n', which leads every row
    "json": _Layout(b",\n  [\n   ", b",\n   ", b"\n  ]", 2),
}


def _row_blocks(table: Table, fmt: str):
    """The table's rows as bytes, ``_BLOCK_ROWS`` rows at a time.

    The shapes are checked and every value is rendered (the columns by
    ``_rendered``, the prefixes by ``_token``) before the first block is
    returned.  A block is laid out slot-major from each column's slot rows
    over the block's rows and constant rows for the cell's lead (the row
    head and its prefix tokens) and the separators, then transposed to
    row-major.  No token, separator or head holds a 0 byte, so deleting the
    0 padding from the block's bytes (``bytes.translate``, one C pass)
    leaves the rows' bytes.
    """
    cells = [cell for cell in table.cells if cell.columns and len(cell.columns[0])]
    for prefix, columns in cells:
        n = len(columns[0])
        if len(prefix) + len(columns) != len(table.columns) or any(len(c) != n for c in columns):
            raise ValueError(
                f"a cell of {len(prefix)} prefix values and columns of lengths "
                f"{[len(c) for c in columns]} in a table of {len(table.columns)} columns"
            )
    # what to render: each distinct column object once, as parts[index[id]]
    parts, index = [], {}
    for cell in cells:
        for values in cell.columns:
            if id(values) not in index:
                index[id(values)] = len(parts)
                parts.append(np.asarray(values, dtype=float))
    json_tokens = fmt == "json"
    mats = _rendered(parts, json_tokens)
    layout = _LAYOUTS[fmt]
    leads = [
        layout.head + b"".join(_token(v, json_tokens).encode() + layout.sep for v in prefix)
        for prefix, _ in cells
    ]

    @functools.cache
    def constant(data: bytes, n: int) -> np.ndarray:
        """``data`` as slot rows, the same for each of n rows."""
        return np.broadcast_to(np.frombuffer(data, np.uint8)[:, None], (len(data), n))

    def blocks():
        skip = layout.skip
        for (_, columns), lead in zip(cells, leads):
            n = len(columns[0])
            sep = constant(layout.sep, n)
            sources = [constant(lead, n)]
            for column in columns:
                sources += [mats[index[id(column)]], sep]
            sources[-1] = constant(layout.tail, n)
            width = sum(map(len, sources))
            for lo in range(0, n, _BLOCK_ROWS):
                k = min(n - lo, _BLOCK_ROWS)
                # slot-major in Fortran order, so that its transpose is
                # row-major: each row's slots in order, as one contiguous run
                block = np.empty((width, k), np.uint8, order="F")
                rows = [src[:, lo:lo + k] for src in sources] if k < n else sources
                np.concatenate(rows, out=block)
                yield block.T.tobytes().translate(None, b"\0")[skip:]
                skip = 0

    return blocks()


def _payload(table: Table, fmt: str):
    """The table's bytes as an iterator of chunks: the head, the row blocks
    (see ``_row_blocks``) and the end.  The shapes are checked and the
    values rendered by the call, before any chunk is taken."""
    blocks = _row_blocks(table, fmt)
    if fmt == "csv":
        return itertools.chain([(",".join(table.columns) + "\n").encode()], blocks)
    # json.dumps(indent=1) of {"columns", "rows", "meta"}, the rows laid out here
    first = next(blocks, None)
    start, end = ("[\n", "\n ]") if first is not None else ("[", "]")
    head = json.dumps({"columns": table.columns}, indent=1)[:-2]
    meta = json.dumps({"meta": _jsonable(table.meta)}, indent=1)[2:]
    return itertools.chain(
        [f'{head},\n "rows": {start}'.encode()],
        [] if first is None else [first],
        blocks,
        [f"{end},\n{meta}\n".encode()],
    )


def write_table(table: Table, destination, fmt: str = "csv") -> None:
    """Serialize a sweep table as CSV or JSON (12 significant digits).

    Values are floats (see ``Table``).  Each distinct column object is
    rendered once per table, as one value vector (see ``_rendered``), and
    each cell's prefix value by value (``_token``); the rows are laid out
    from the rendered bytes a block of rows at a time (see ``_row_blocks``)
    and written as they are laid out.  The bytes are those of formatting
    every value of every row as ``f"{v:.12g}"`` (CSV) or of
    ``json.dumps(indent=1)`` over ``float(f"{v:.12g}")`` with NaN as null
    (JSON).  A misshapen table raises ``ValueError`` before anything is
    written.

    ``destination`` is a path or '-' for stdout.  The sweep's cell errors go,
    one JSON object per line, to a sidecar ``<dest>.errors.log`` next to a
    file (a stale sidecar is removed when there are none) or to stderr
    alongside stdout.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    chunks = _payload(table, fmt)
    errors = table.meta.get("errors") or []
    log = "".join(json.dumps(_jsonable(e)) + "\n" for e in errors)
    if destination in (None, "-"):
        for chunk in chunks:
            sys.stdout.write(chunk.decode("utf-8"))
        sys.stderr.write(log)
        return
    path = Path(destination)
    sidecar = Path(str(path) + ".errors.log")
    try:
        with path.open("wb") as out:
            for chunk in chunks:
                out.write(chunk)
    except OSError as exc:
        raise OSError(f"cannot write table to {path}: {exc}") from exc
    if log:
        sidecar.write_text(log, encoding="utf-8")
    else:
        sidecar.unlink(missing_ok=True)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float):
        if math.isnan(obj):
            return None   # JSON has no NaN; mirror CSV's 'nan' as null
        return float(f"{obj:.12g}")
    return obj
