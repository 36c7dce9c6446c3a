"""Reading and writing graphs: weighted edge-list text and the graph6 format.

The text format is a ``n <count>`` header, at most MAX_VERTICES and checked
before anything is allocated, followed by ``i j w`` lines with exact weight
literals (integers, fractions ``p/q``, or decimal strings) read by the one
rule of ``pairgroup._exact``, which reads integers and ``p/q`` of up to 4300
characters with ``int()``, refuses a decimal exponent beyond +-4300 and a
value CPython cannot print.  Each distinct literal is converted once, and
the distinct values are ranked once into the vector's levels; the writers
print one text per level.  graph6 is supported bit-exactly for simple graphs
up to the same MAX_VERTICES, so output can be exchanged with the usual
canonical-labeling tools.  Its bit order is the transpose of the pair order,
so both codecs translate with stepped string slices and pack six bits a byte
through base64: a dense n = 3000 string parses and encodes in about 0.1 s
each, peaking near 82 MB resident (CPython 3.11).
"""

from __future__ import annotations

import binascii
from fractions import Fraction

from .pairgroup import _BITS, EdgeVector, _exact, _rank, _row_offsets

_G6_HEADER = ">>graph6<<"

MAX_VERTICES = 3000  #: largest ``n <count>`` accepted: a one-edge text at it peaks near 90 MB


class ParseError(ValueError):
    """Input text rejected; ``line`` is the 1-based offending line when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def parse_weighted(text: str) -> EdgeVector:
    """Parse a ``n <count>`` header plus ``i j w`` lines into an edge vector.

    ``#`` starts a comment, blank lines are skipped, and pairs not listed get
    weight 0.
    """
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    numbered = enumerate(lines, start=1)
    for top, line in numbered:
        fields = line.split()
        if fields:
            break
    else:
        raise ParseError("empty input: missing `n <count>` header")
    if len(fields) != 2 or fields[0] != "n":
        raise ParseError("expected header `n <count>`", top)
    try:
        n = int(fields[1])
    except ValueError:
        raise ParseError(f"bad vertex count: {fields[1]!r}", top) from None
    if n < 3:
        raise ParseError(f"need at least 3 vertices, got {n}", top)
    if n > MAX_VERTICES:
        raise ParseError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}", top)
    numbers = [-1] * (n * (n - 1) // 2)  # each pair's literal number; -1: not set
    start = [s - 1 for s in _row_offsets(n)]  # start[i] + j indexes numbers
    labels = {str(v): v for v in range(1, n + 1)}  # other spellings go to int()
    number_of: dict[str, int] = {}  # literal -> its number, in order of first use
    values: list[Fraction] = []  # each numbered literal's value
    for lineno, line in numbered:
        try:
            a, b, literal = line.split()
        except ValueError:
            if line.split():
                raise ParseError(f"expected `i j w`, got {line.strip()!r}", lineno) from None
            continue
        try:
            i, j = labels[a], labels[b]
        except KeyError:
            try:
                i, j = int(a), int(b)
            except ValueError:
                raise ParseError(f"bad vertex label in {line.strip()!r}", lineno) from None
            if not (1 <= i <= n and 1 <= j <= n):
                raise ParseError(f"vertex label out of range 1..{n}: ({i}, {j})", lineno)
        if i >= j:
            raise ParseError(f"need i < j, got ({i}, {j})", lineno)
        num = number_of.get(literal)
        if num is None:
            num = number_of[literal] = len(values)
            try:
                values.append(_exact(literal))
            except ValueError:
                raise ParseError(f"bad weight literal: {literal!r}", lineno) from None
        s = start[i] + j
        if numbers[s] >= 0:  # set by an earlier line, which is found again
            first = next(k for k in range(top + 1, lineno)
                         if [*map(int, lines[k - 1].split()[:2])] == [i, j])
            raise ParseError(f"duplicate pair ({i}, {j}), first set on line {first}", lineno)
        numbers[s] = num
    if -1 in numbers:
        values.append(Fraction(0))  # number -1, the pairs not listed
    return EdgeVector._from_ranks(n, *_rank(numbers, values))


def emit_weighted(x: EdgeVector) -> str:
    """Canonical text form: header plus the nonzero edges in pair order."""
    n, texts = x.n, x._strings()
    lines = [f"n {n}"]
    label = [f"{v} " for v in range(n + 1)]
    for i, s in enumerate(_row_offsets(n)[1:], start=1):
        row = label[i]
        for j, t in enumerate(texts[s + i : s + n], start=i + 1):  # row i's pairs
            if t != "0":
                lines.append(f"{row}{label[j]}{t}")
    return "\n".join(lines) + "\n"


def _encode_g6_size(n: int) -> bytes:
    if n <= 62:
        return bytes([63 + n])
    return bytes([126, 63 + (n >> 12), 63 + ((n >> 6) & 63), 63 + (n & 63)])


def _decode_g6_size(data: bytes) -> tuple[int, int]:
    """Return (n, number of size bytes consumed)."""
    if not data:
        raise ParseError("empty graph6 string")
    if data[0] == 126:  # then 3 size bytes, or a second 126 and 6 size bytes
        consumed = 8 if data[1:2] == b"~" else 4
        chunk = data[consumed // 4 : consumed]
        if len(data) < consumed or chunk.translate(None, _G6_DATA_BYTES):
            raise ParseError(f"malformed {consumed}-byte size field")
        return int(_g6_bits(chunk)[: 6 * len(chunk)], 2), consumed
    if not 63 <= data[0] <= 125:
        raise ParseError(f"malformed size byte {data[0]}")
    return data[0] - 63, 1


#: a graph6 data byte is 63 plus six bits, a base64 character the same six bits
_G6_DATA_BYTES = bytes(range(63, 127))
_B64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_G6 = bytes.maketrans(_B64, _G6_DATA_BYTES)
_FROM_G6 = bytes.maketrans(_G6_DATA_BYTES, _B64)


def _g6_bits(data: bytes) -> str:
    """The six bits of each data byte as "0"/"1" text, then zeros to a multiple of 24."""
    raw = binascii.a2b_base64(data.translate(_FROM_G6) + b"A" * (-len(data) % 4))
    return f"{int.from_bytes(raw, 'big'):0{8 * len(raw)}b}"


def emit_graph6(x: EdgeVector) -> str:
    """Encode a simple graph (all weights 0 or 1) as a graph6 string.

    graph6 stores the adjacency bits column by column, (1,2),(1,3),(2,3),
    (1,4),..., pairs grouped by their larger endpoint, while this package's
    pair order lists the same upper triangle row by row: the translation is
    a transpose, one stepped slice per column, with no table of bit
    positions.
    """
    n, levels = x.n, x.levels
    if levels not in (_BITS[:1], _BITS[1:], _BITS):  # name the first pair of another weight
        weights, start = x.weights, _row_offsets(n)
        i, j = next((i, j) for j in range(2, n + 1) for i in range(1, j)
                    if weights[start[i] + j - 1] not in (0, 1))
        raise ValueError(f"non-simple weight {weights[start[i] + j - 1]} at edge {(i, j)}")
    text = bytes.maketrans(b"\0\1", b"11" if levels[0] else b"01")  # K_n's one level is 1
    bits = bytes(x.ranks).translate(text).decode()
    m = len(bits)
    # row i's n - i pairs, right-aligned in n - 1 characters: (i, j) at column j - 2
    grid = "".join([bits[s + i : s + n].rjust(n - 1)
                    for i, s in enumerate(_row_offsets(n)[1:], start=1)])
    bits = "".join([grid[k : k * n + 1 : n - 1] for k in range(n - 1)]) + "0" * (-m % 24)
    raw = int(bits, 2).to_bytes(len(bits) // 8, "big")  # 24 bits, 4 base64 characters
    body = binascii.b2a_base64(raw, newline=False).translate(_TO_G6)[: (m + 5) // 6]
    return (_encode_g6_size(n) + body).decode("ascii")


def parse_graph6(text: str) -> EdgeVector:
    """Decode a graph6 string (optional ``>>graph6<<`` header) into a {0,1} vector."""
    try:
        data = text.strip().removeprefix(_G6_HEADER).strip().encode("ascii")
    except UnicodeEncodeError:
        raise ParseError("graph6 strings are ASCII") from None
    n, consumed = _decode_g6_size(data)
    if n < 3:
        raise ParseError(f"need at least 3 vertices, got {n}")
    if n > MAX_VERTICES:
        raise ParseError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")
    m = n * (n - 1) // 2
    body = data[consumed:]
    need = (m + 5) // 6
    if len(body) != need:
        raise ParseError(f"length mismatch: n={n} needs {need} data bytes, got {len(body)}")
    malformed = body.translate(None, _G6_DATA_BYTES)
    if malformed:
        raise ParseError(f"malformed data byte {malformed[0]}")
    bits = _g6_bits(body)
    if "1" in bits[m:]:
        raise ParseError("nonzero padding bits")
    # column j's j - 1 bits, left-aligned in n - 1 characters: (i, j) at row i - 1
    grid = "".join([bits[k * (k + 1) // 2 : (k + 1) * (k + 2) // 2].ljust(n - 1)
                    for k in range(n - 1)])
    pairs = "".join([grid[r * n :: n - 1] for r in range(n - 1)])
    return EdgeVector._from_bits(n, pairs.encode().translate(bytes.maketrans(b"01", b"\0\1")))
