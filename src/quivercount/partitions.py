"""Partition arithmetic: normalization, conjugates, rectangle complements.

Partitions are stored as tuples of positive integers in weakly decreasing
order; the empty tuple is the empty partition.  All constructors normalize
(sort check + trailing zeros stripped) so partitions can be used directly
as dict keys and memoization keys.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, repeat
from operator import sub
from typing import Iterable, NamedTuple


class Rectangle(NamedTuple):
    """An r x c bounding box for partitions (rows tall, cols wide).

    Either side may be zero; the only partition fitting a degenerate
    rectangle is the empty one.
    """

    rows: int
    cols: int


def partition(parts: Iterable[int]) -> tuple[int, ...]:
    """Normalize an iterable of part sizes into a canonical partition.

    A canonical tuple of ints comes back as it is after one pass.  Else
    trailing zeros are stripped; raises ValueError on non-integral,
    negative or increasing parts, and on a zero before a nonzero part.
    """
    if parts.__class__ is tuple:
        last = parts[0] if parts else 0
        for x in parts:
            if x.__class__ is not int or not 0 < x <= last:
                break
            last = x
        else:
            return parts
    given = tuple(parts)
    for x in given:
        if int(x) != x:
            raise ValueError(f"non-integral part {x!r} in partition {given}")
    p = tuple(int(x) for x in given if x != 0)
    # only trailing zeros strip: a zero among the first len(p) entries
    # has a nonzero part after it
    if 0 in given[: len(p)]:
        raise ValueError(f"zero part before a nonzero part in partition {given}")
    for i, x in enumerate(p):
        if x < 0:
            raise ValueError(f"negative part {x} in partition {p}")
        if i > 0 and p[i - 1] < x:
            raise ValueError(f"parts not weakly decreasing: {p}")
    return p


def size(lam: tuple[int, ...]) -> int:
    return sum(lam)


def conjugate(lam: tuple[int, ...]) -> tuple[int, ...]:
    """Transpose the Young diagram: result_j = #{i : lam_i >= j+1}."""
    if not lam:
        return ()
    out = []
    for j in range(lam[0]):
        out.append(sum(1 for x in lam if x > j))
    return tuple(out)


def fits(lam: tuple[int, ...], rect: Rectangle) -> bool:
    """True iff lam has at most rect.rows parts, each at most rect.cols."""
    if len(lam) > rect.rows:
        return False
    return not lam or lam[0] <= rect.cols


def complement(lam: tuple[int, ...], rect: Rectangle) -> tuple[int, ...]:
    """180-degree rotated complement of lam inside rect.

    Entry i of the result is cols - lam[rows-1-i] (missing parts read as 0).
    Involution; sizes of lam and its complement add up to rows*cols.
    """
    if not fits(lam, rect):
        raise ValueError(f"partition {lam} does not fit in {rect.rows}x{rect.cols}")
    rows, cols = rect
    padded = list(lam) + [0] * (rows - len(lam))
    if padded != sorted(padded, reverse=True):
        # not weakly decreasing: partition() accepts or rejects the result
        return partition(map(sub, repeat(cols, rows), reversed(padded)))
    # the parts equal to cols lead, so their zeros trail and are cut
    return tuple(map(sub, repeat(cols, rows - padded.count(cols)), reversed(padded)))


def partitions_in_rectangle(rect: Rectangle) -> list[tuple[int, ...]]:
    """All partitions inside rect, in graded-lexicographic order.

    Sorted by size, then lexicographically; there are
    binomial(rows+cols, rows) of them.  Those with n parts are the
    weakly decreasing n-tuples over cols..1, so no recursion bounds rows;
    a stable sort by size after the lexicographic one gives the order.
    """
    parts = range(rect.cols, 0, -1)
    acc = [lam for n in range(rect.rows + 1) for lam in combinations_with_replacement(parts, n)]
    acc.sort()
    acc.sort(key=sum)
    return acc


def contains(outer: tuple[int, ...], inner: tuple[int, ...]) -> bool:
    """Containment of Young diagrams: inner_i <= outer_i for all i."""
    if len(inner) > len(outer):
        return False
    return all(inner[i] <= outer[i] for i in range(len(inner)))


def format_partition(lam: tuple[int, ...]) -> str:
    """Render as "(p1,p2,...)"; the empty partition renders as "()"."""
    return "(" + ",".join(str(x) for x in lam) + ")"


def parse_partition(text: str) -> tuple[int, ...]:
    """Parse the textual form produced by format_partition."""
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(f"malformed partition {text!r}: expected (p1,p2,...)")
    body = s[1:-1].strip()
    if not body:
        return ()
    try:
        parts = [int(tok) for tok in body.split(",")]
    except ValueError:
        raise ValueError(f"malformed partition {text!r}: non-integer part") from None
    return partition(parts)
