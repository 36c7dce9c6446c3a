"""Reading and writing graphs: weighted edge-list text and the graph6 format.

The text format is a ``n <count>`` header followed by ``i j w`` lines with
exact weight literals (integers, fractions ``p/q``, or decimal strings, all
converted exactly).  graph6 is supported bit-exactly for simple graphs so
output can be exchanged with the usual canonical-labeling tools.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .pairgroup import EdgeVector, _scatter, index_pair, pair_index

_G6_HEADER = ">>graph6<<"


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
    n: int | None = None
    weights: list[Fraction] = []
    seen: dict[int, int] = {}  # position -> line that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 2 or fields[0] != "n":
                raise ParseError("expected header `n <count>`", lineno)
            try:
                n = int(fields[1])
            except ValueError:
                raise ParseError(f"bad vertex count: {fields[1]!r}", lineno) from None
            if n < 3:
                raise ParseError(f"need at least 3 vertices, got {n}", lineno)
            weights = [Fraction(0)] * (n * (n - 1) // 2)
            continue
        if len(fields) != 3:
            raise ParseError(f"expected `i j w`, got {line!r}", lineno)
        try:
            i, j = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(f"bad vertex label in {line!r}", lineno) from None
        if not (1 <= i <= n and 1 <= j <= n):
            raise ParseError(f"vertex label out of range 1..{n}: ({i}, {j})", lineno)
        if i >= j:
            raise ParseError(f"need i < j, got ({i}, {j})", lineno)
        try:
            w = Fraction(fields[2])
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad weight literal: {fields[2]!r}", lineno) from None
        s = pair_index(i, j, n)
        if s in seen:
            raise ParseError(
                f"duplicate pair ({i}, {j}), first set on line {seen[s]}", lineno
            )
        seen[s] = lineno
        weights[s - 1] = w
    if n is None:
        raise ParseError("empty input: missing `n <count>` header")
    return EdgeVector._from_exact(n, tuple(weights))


def emit_weighted(x: EdgeVector) -> str:
    """Canonical text form: header plus the nonzero edges in pair order."""
    lines = [f"n {x.n}"]
    for (i, j), w in zip(combinations(range(1, x.n + 1), 2), x.weights):
        if w:
            lines.append(f"{i} {j} {w}")
    return "\n".join(lines) + "\n"


def _encode_g6_size(n: int) -> bytes:
    if n <= 62:
        return bytes([63 + n])
    if n <= 258047:
        return bytes([126, 63 + ((n >> 12) & 63), 63 + ((n >> 6) & 63), 63 + (n & 63)])
    if n <= 68719476735:
        return bytes(
            [126, 126] + [63 + ((n >> shift) & 63) for shift in (30, 24, 18, 12, 6, 0)]
        )
    raise ValueError(f"vertex count too large for graph6: {n}")


def _decode_g6_size(data: bytes) -> tuple[int, int]:
    """Return (n, number of size bytes consumed)."""
    if not data:
        raise ParseError("empty graph6 string")
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            chunk = data[2:8]
            if len(chunk) != 6 or any(not 63 <= b <= 126 for b in chunk):
                raise ParseError("malformed 8-byte size field")
            consumed = 8
        else:
            chunk = data[1:4]
            if len(chunk) != 3 or any(not 63 <= b <= 126 for b in chunk):
                raise ParseError("malformed 4-byte size field")
            consumed = 4
        n = 0
        for b in chunk:
            n = (n << 6) | (b - 63)
        return n, consumed
    if not 63 <= data[0] <= 125:
        raise ParseError(f"malformed size byte {data[0]}")
    return data[0] - 63, 1


def _g6_positions(n: int) -> list[int]:
    """Position in pair order of each graph6 bit: pairs grouped by larger endpoint."""
    return [pair_index(i, j, n) for j in range(2, n + 1) for i in range(1, j)]


def emit_graph6(x: EdgeVector) -> str:
    """Encode a simple graph (all weights 0 or 1) as a graph6 string.

    graph6 stores the adjacency bits grouped by the larger endpoint,
    (1,2),(1,3),(2,3),(1,4),..., which differs from this package's pair
    order; the translation goes through :func:`_g6_positions`.
    """
    n = x.n
    bits = []
    for s in _g6_positions(n):
        w = x.weights[s - 1]
        if w == 1:
            bits.append(1)
        elif w == 0:
            bits.append(0)
        else:
            raise ValueError(f"non-simple weight {w} at edge {index_pair(s, n)}")
    out = bytearray(_encode_g6_size(n))
    for start in range(0, len(bits), 6):
        group = bits[start : start + 6]
        group += [0] * (6 - len(group))
        value = 0
        for b in group:
            value = (value << 1) | b
        out.append(63 + value)
    return out.decode("ascii")


def parse_graph6(text: str) -> EdgeVector:
    """Decode a graph6 string (optional ``>>graph6<<`` header) into a {0,1} vector."""
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER) :].strip()
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError:
        raise ParseError("graph6 strings are ASCII") from None
    n, consumed = _decode_g6_size(data)
    if n < 3:
        raise ParseError(f"need at least 3 vertices, got {n}")
    m = n * (n - 1) // 2
    body = data[consumed:]
    need = (m + 5) // 6
    if len(body) != need:
        raise ParseError(
            f"length mismatch: n={n} needs {need} data bytes, got {len(body)}"
        )
    bits: list[int] = []
    for b in body:
        if not 63 <= b <= 126:
            raise ParseError(f"malformed data byte {b}")
        value = b - 63
        bits.extend((value >> shift) & 1 for shift in (5, 4, 3, 2, 1, 0))
    if any(bits[m:]):
        raise ParseError("nonzero padding bits")
    values = (Fraction(0), Fraction(1))
    weights = _scatter([values[b] for b in bits[:m]], _g6_positions(n))
    return EdgeVector._from_exact(n, weights)
