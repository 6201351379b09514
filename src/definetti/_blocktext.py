"""The CSV text of ratio-scan blocks (``cli.cmd_ratio_scan``), as bytes.

An exact block is written by ``io.format_value``.  A log block prints each
float as its ``repr`` without calling it: ``_kernels.shortest_digits``
finds the digits of the three float columns stacked, in one pass, and
``_format_block`` lays them out by ``repr``'s rules in a character matrix,
four digits to a table lookup.  Each scan stream (the in-process loop, or a
worker) formats in one ``_Workspace``, allocated with its first block: the
kernel's scratch, which the layout reuses, and the matrix, whose NULs are
squeezed out into its own start.  So a block allocates nothing of its size
and its pages stay mapped: at N = 1e6 (2-core x86-64 VM) a block formats in
about 3.2 ms, and the two workers of a pooled scan take about 11,000 minor
page faults, where fresh temporaries for each block took 7 ms and 57,000 to
67,000.  The matrix leaves out the columns no row uses (a "-" where no
entry is negative, the region's last two where every row is "mid"), because
``_compact`` pays for each NUL it squeezes out.

Only ratio-scan imports this module, so no other command compiles it.
"""

from __future__ import annotations

import collections
import functools
from typing import NamedTuple

import numpy as np

from . import _kernels, harness, io

# the characters of a CSV row, at most: i (19 digits), three floats as long
# as "-1.2345678901234567e-308", "upper", four commas and the newline
ROW_MAX = 19 + 3 * 24 + 5 + 5
# _compact copies the matrix out in pieces this small, so that the copies
# come from the heap and not from fresh pages
_COMPACT_BYTES = 1 << 16
_U64 = np.uint64
_U8 = np.uint8
# the first four characters of each of REGION_NAMES, as one "<u4" each,
# and the fifth (NUL for "mid")
_REGION4 = np.array([int.from_bytes(name[:4].ljust(4, "\0").encode(), "little")
                     for name in harness.REGION_NAMES], "<u4")
_REGION5 = np.array([ord(name[4:5] or "\0") for name in harness.REGION_NAMES], np.uint8)
# indexed by [g // 4, n]: the "<u4" that keeps the characters of digits g
# to g + 3 (from the right, in a 4-digit lane) that lie within n digits
_LANE_MASKS = np.array([[(2**32 - 1) << 8 * (4 - min(max(n - g, 0), 4)) & (2**32 - 1)
                         for n in range(21)] for g in range(0, 20, 4)], "<u4")
# indexed by the biased exponent of a float64 2^E, E < 64: the digits of 2^E
_POW2_DIGITS = np.array([1] * 1023 + [len(str(2**e)) for e in range(64)], np.int64)


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """The four digit characters of each of 0..9999: as one "<u4" each,
    and as four uint8 rows, the thousands first.  Built on first use."""
    digits = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    chars = (digits + ord("0")).astype(np.uint8)
    return chars.view("<u4").ravel(), chars.T.copy()


# A workspace's rows for one block: views of their first entries, the three
# float columns stacked.  ``digits`` is the ``shortest_digits`` workspace,
# which reads x from its row 0 and returns d and e in its rows 0 and 1.  The
# layout's own rows are the kernel's scratch rows after those, free once it
# returns: n to ed as int64, pw to tmp as uint64.  Then five boolean rows.
_Rows = collections.namedtuple("_Rows", "digits n decpt u p wd expv ed pw whole frac q r tmp"
                                        " special neg sci exp_neg flag")


class _Workspace:
    """The buffers that format log scan blocks of up to ``rows`` rows,
    allocated once per scan stream; a shorter block uses views of them.

    * ``digits`` and ``flags``: the rows that ``rows`` names (``_Rows``),
      3 rows entries each;
    * ``chars``: the block's character matrix (``_format_block``), into
      whose start the CSV text is compacted.  A block with more than
      ``ROW_MAX`` columns (NUL padding in a float column that mixes
      notations) replaces it with a larger one.
    """

    def __init__(self, rows: int):
        self.digits = np.empty((_kernels.DIGIT_SLOTS, 3 * rows), np.uint64)
        self.flags = np.empty((5, 3 * rows), np.bool_)
        self.chars = np.empty(rows * ROW_MAX, np.uint8)

    def rows(self, m: int) -> _Rows:
        """The rows of the first m entries."""
        digits = self.digits[:, :m]
        signed = (row.view(np.int64) for row in digits[2:9])
        return _Rows(digits, *signed, *digits[9:], *self.flags[:, :m])


class _Field(NamedTuple):
    """The columns of one float column's CSV field besides its point: the
    widths of its "-" (0 where no entry is negative), of its digits left
    and right of the point and of the exponent's digits, with ``sci`` for
    the "e" and the exponent's sign; and the text of its NaN, infinities
    and zeros, as (row, bytes) pairs."""

    sign: int
    whole: int
    frac: int
    sci: bool
    exp: int
    texts: list

    @property
    def width(self) -> int:
        return self.sign + 1 + self.whole + self.frac + (2 + self.exp if self.sci else 0)


def _digit_count(x: np.ndarray, out: np.ndarray, tmp: np.ndarray, flag: np.ndarray) -> None:
    """out (int64) = the decimal digits of each uint64 in x, 1 for 0: those
    of 2^E, x's float64 exponent, plus one where x reaches the next power
    of ten.  Above 2^53 the conversion may round x up to 2^(E+1), never
    across a power of ten.  tmp (uint64) and flag (bool) are scratch."""
    np.copyto(tmp.view(np.float64), x, casting="unsafe")
    tmp >>= _U64(52)
    np.take(_POW2_DIGITS, tmp.view(np.int64), out=out, mode="clip")
    np.take(_kernels.POW10_U64, out, out=tmp, mode="clip")
    np.greater_equal(x, tmp, out=flag)
    out += flag


def _u32_col(mat: np.ndarray, col: int) -> np.ndarray:
    """Columns col..col+3 of the C-ordered uint8 matrix mat, as one
    unaligned "<u4" per row."""
    return np.ndarray(mat.shape[:1], "<u4", buffer=mat, offset=col, strides=mat.strides[:1])


def _digit_cols(x, runs, mat, scratch) -> None:
    """Write the decimal digits of the uint64 entries of x, right-aligned,
    into the C-ordered uint8 matrix mat: run (entries, col, w, length) puts
    those of x[entries] in columns col to col + w - 1 of the rows in turn,
    zero-filled to length (int64, one per entry) digits and NUL to the left
    of that; length None means w digits each.  x is consumed; scratch holds
    three uint64 buffers as long as x and a boolean one.  Four digits at a
    time, through a table of their characters, masked with ``_LANE_MASKS``
    where a lane reaches past some entry's length."""
    quads, digits = _digit_tables()
    q, r, buf, flag = scratch
    quad_chars, masks = buf.view("<u4").reshape(2, -1)
    shortest = [w if length is None else int(length[entries].min()) for entries, _, w, length in runs]
    for g in range(0, max(w for _, _, w, _ in runs), 4):   # g digits are written
        np.floor_divide(x, _U64(10_000), out=q)
        np.multiply(q, _U64(10_000), out=r)
        np.subtract(x, r, out=r)
        x, q = q, x
        quad = r.view(np.int64)
        if any(w - g >= 4 for _, _, w, _ in runs):
            np.take(quads, quad, out=quad_chars, mode="clip")
        for (entries, col, w, length), low in zip(runs, shortest):
            end = col + w - g   # the quad's digits end at this column
            if w - g >= 4 and low >= g + 4:
                np.copyto(_u32_col(mat, end - 4), quad_chars[entries])
            elif w - g >= 4:
                np.take(_LANE_MASKS[g // 4], length[entries], out=masks[entries], mode="clip")
                np.bitwise_and(quad_chars[entries], masks[entries], out=_u32_col(mat, end - 4))
            else:   # the last digits of a run that is not a multiple of 4 wide
                for j in range(max(w - g, 0)):
                    column = mat[:, end - 1 - j]
                    np.take(digits[3 - j], quad[entries], out=column, mode="clip")
                    if low <= g + j:   # NUL where g + j >= length
                        np.greater(length[entries], g + j, out=flag[entries])
                        column *= flag[entries].view(_U8)


def _repr_cols(columns, nan_texts, w: _Rows) -> list[_Field]:
    """Lay out ``repr`` of each float64 in the equal-length columns, stacked
    in w: the digits d 10^e of ``_kernels.shortest_digits`` as d.ddde-XX
    where decpt, e plus the digit count, is below -3 or above 16, else in
    fixed notation.  NaN, the infinities and the zeros take 1.0's place and
    go through ``repr`` one at a time (NaN as its column's nan_text).

    Leaves in w, per entry: whole and frac, the digits left and right of the
    point, with their counts wd and p; the exponent expv with its count ed
    (where some entry is in scientific notation); neg, sci and exp_neg.
    Returns each column's field.
    """
    n, decpt, u, p, wd, expv, ed = w.n, w.decpt, w.u, w.p, w.wd, w.expv, w.ed
    pw, whole, frac, tmp, special, sci, flag = w.pw, w.whole, w.frac, w.tmp, w.special, w.sci, w.flag
    tmp_i = tmp.view(np.int64)
    rows = len(columns[0])
    x = w.digits[0].view(np.float64)
    for j, column in enumerate(columns):
        x[j * rows:(j + 1) * rows] = column
    np.isfinite(x, out=special)
    np.equal(x, 0.0, out=flag)
    np.greater(special, flag, out=special)
    np.logical_not(special, out=special)
    entries = np.flatnonzero(special)
    x[entries] = 1.0
    np.less(x, 0.0, out=w.neg)
    d, e = _kernels.shortest_digits(x, w.digits)
    _digit_count(d, n, tmp, flag)
    np.add(e, n, out=decpt)
    np.add(decpt, 3, out=tmp_i)
    np.greater(tmp, _U64(19), out=sci)   # decpt < -3 or decpt > 16
    # u: the point stands -u digits from the right of d (1 - n in scientific)
    np.subtract(1, n, out=u)
    u -= e
    u *= sci
    u += e
    np.negative(u, out=p)
    np.maximum(p, 0, out=p)
    np.take(_kernels.POW10_U64, p, out=pw, mode="clip")   # d < 10^19
    np.divmod(d, pw, out=(whole, frac))
    np.maximum(u, 0, out=tmp_i)
    np.take(_kernels.POW10_U64, tmp_i, out=pw, mode="clip")
    whole *= pw
    # digits: right of the point -u, at least 1 in fixed notation; left of
    # it max(decpt, 1), 1 in scientific
    np.subtract(1, sci, out=tmp_i)
    np.maximum(p, tmp_i, out=p)
    np.multiply(decpt, tmp_i, out=wd)
    np.maximum(wd, 1, out=wd)
    any_sci = bool(sci.any())
    if any_sci:
        np.subtract(decpt, 1, out=expv)
        np.less(expv, 0, out=w.exp_neg)
        np.abs(expv, out=expv)
        np.greater_equal(expv, 100, out=ed)
        ed += 2
        ed *= sci
    texts = [[] for _ in columns]
    for entry in entries.tolist():
        j, row = divmod(entry, rows)
        value = float(columns[j][row])
        texts[j].append((row, nan_texts[j] if value != value else repr(value).encode()))
    fields = []
    for j, field_texts in enumerate(texts):
        part = slice(j * rows, (j + 1) * rows)
        has_sci = any_sci and bool(sci[part].any())
        field = _Field(int(w.neg[part].any()), int(wd[part].max()), int(p[part].max()), has_sci,
                       int(ed[part].max()) if has_sci else 0, field_texts)
        short = max((len(text) for _, text in field_texts), default=0) - field.width
        if short > 0:   # NUL columns left of the digits
            field = field._replace(whole=field.whole + short)
        fields.append(field)
    return fields


def _format_block(block: harness.RatioScan, ws: _Workspace | None = None):
    """CSV rows of one scan block, as bytes.  A log block is laid out in
    ws.chars (a fresh workspace when None) and returned as a view of it,
    good until ws formats the next block.

    The matrix has a row of characters per CSV row: i; then per float, a
    "-" column where some entry is negative, the digits left of the point,
    the point, those right of it, and "e", the exponent's sign and its
    digits where some entry is in scientific notation; the region, in 3
    columns where every row is "mid".  Each run of digits is right-aligned
    in its columns, zero-filled to its length and NUL left of that.  The
    text is the matrix without its NULs."""
    if not block.log_columns:
        fmt = io.format_value
        ratio_col = ("" if x is None else fmt(x) for x in block.ratio)
        regions = (harness.REGION_NAMES[c] for c in block.region.tolist())
        return "".join(map("{},{},{},{},{}\n".format, block.i.tolist(), map(fmt, block.a),
                           map(fmt, block.b), ratio_col, regions)).encode()
    rows = len(block.i)
    ws = _Workspace(rows) if ws is None else ws
    w = ws.rows(3 * rows)
    fields = _repr_cols((block.a, block.b, block.ratio), (b"nan", b"nan", b""), w)
    i_width = len(str(int(block.i[-1])))
    region_width = 3 if block.region.min() == block.region.max() == 1 else 5
    width = i_width + 1 + sum(field.width + 1 for field in fields) + region_width + 1
    if rows * width > len(ws.chars):
        ws.chars = np.empty(rows * width, np.uint8)
    mat = ws.chars[:rows * width].reshape(rows, width)
    # the floats: single-character columns, then the digit runs, then the
    # text of NaN, the infinities and the zeros over their fields
    col, runs, starts = i_width + 1, ([], [], []), []
    for j, field in enumerate(fields):
        part = slice(j * rows, (j + 1) * rows)
        starts.append(col)
        if field.sign:
            np.multiply(w.neg[part].view(_U8), _U8(ord("-")), out=mat[:, col])
        runs[0].append((part, col + field.sign, field.whole, w.wd))
        col += field.sign + field.whole
        point = w.flag[part]
        np.greater(w.p[part], 0, out=point)
        np.multiply(point.view(_U8), _U8(ord(".")), out=mat[:, col])
        runs[1].append((part, col + 1, field.frac, w.p))
        col += 1 + field.frac
        if field.sci:
            sci = w.sci[part].view(_U8)
            np.multiply(sci, _U8(ord("e")), out=mat[:, col])
            exp_sign = mat[:, col + 1]   # "+" or "-" where scientific
            np.multiply(w.exp_neg[part].view(_U8), _U8(2), out=exp_sign)
            exp_sign += _U8(ord("+"))
            exp_sign *= sci
            runs[2].append((part, col + 2, field.exp, w.ed))
            col += 2 + field.exp
        mat[:, col] = ord(",")
        col += 1
    scratch = (w.q, w.r, w.pw, w.flag)
    for x, kind in zip((w.whole, w.frac, w.expv.view(np.uint64)), runs):
        if kind:
            _digit_cols(x, kind, mat, scratch)
    for start, field in zip(starts, fields):
        for row, text in field.texts:
            mat[row, start:start + field.width] = 0
            mat[row, start:start + len(text)] = np.frombuffer(text, np.uint8)
    # i, its digits counted only where they vary in the block
    i = w.tmp[:rows]
    i[:] = block.i.view(np.uint64)
    length = None
    if len(str(int(block.i[0]))) < i_width:
        length = w.wd[:rows]
        _digit_count(i, length, w.pw[:rows], w.flag[:rows])
    _digit_cols(i, [(slice(0, rows), 0, i_width, length)], mat, [a[:rows] for a in scratch])
    mat[:, i_width] = ord(",")
    region = w.tmp[:rows].view(np.int64)
    region[:] = block.region
    np.take(_REGION4, region, out=_u32_col(mat, col), mode="clip")
    if region_width == 5:
        np.take(_REGION5, region, out=mat[:, col + 4], mode="clip")
    mat[:, -1] = ord("\n")   # after the region, whose 4 characters can reach it
    return _compact(ws.chars, rows * width)


def _compact(chars: np.ndarray, size: int) -> memoryview:
    """chars[:size] without its NULs, moved to the start of chars: a view.
    The NULs are few (a few to a row), and ``bytes.replace`` skips from
    one to the next with memchr."""
    view = memoryview(chars)
    end = 0
    for start in range(0, size, _COMPACT_BYTES):
        piece = bytes(view[start:min(start + _COMPACT_BYTES, size)]).replace(b"\0", b"")
        view[end:end + len(piece)] = piece
        end += len(piece)
    return view[:end]


def texts(plan, share=0, shares=1):
    """(CSV text, eps_mid) of each block of a share of the scan ``plan``;
    a log text is good until the next one is made."""
    rows, backend = plan[4], plan[6]
    ws = _Workspace(rows) if backend == "log" else None
    for block in harness._blocks(*plan, share, shares):
        yield _format_block(block, ws), block.eps_mid
