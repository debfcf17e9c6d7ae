"""Quivers, dimension vectors, the Euler form, and the one check that
decides whether (Q, beta, alpha) is an instance.

Both sides of the package, the counting formulas and the finite-field
oracles, build on this module and share nothing else: it imports no other
package module, and only its check_instance raises the pairing errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul, sub


@dataclass(frozen=True)
class Quiver:
    """Finite directed multigraph without oriented cycles.

    Arrows are (tail, head) pairs of vertex indices.  Loops are rejected:
    a loop is an oriented cycle of length one.
    """

    nvertices: int
    arrows: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        n = self.nvertices
        if n.__class__ is not int:
            if int(n) != n:
                raise ValueError(f"non-integral vertex count {n!r}")
            n = int(n)
            object.__setattr__(self, "nvertices", n)
        if n < 0:
            raise ValueError("negative vertex count")
        # One pass normalizes the arrows, checks them and fills per-vertex
        # out-lists in arrow order.  A range or loop error is raised after
        # the pass, so a non-integral arrow anywhere is reported first.
        indeg = [0] * n
        heads: list[list[int]] = [[] for _ in range(n)]
        arrows = []
        bad = None
        for a in self.arrows:
            t, h = a
            if t.__class__ is not int or h.__class__ is not int or a.__class__ is not tuple:
                a = _integral_arrow(a)
                t, h = a
            arrows.append(a)
            if t != h and 0 <= t < n and 0 <= h < n:
                indeg[h] += 1
                heads[t].append(h)
            elif bad is None:
                bad = a
        if bad is not None:
            t, h = bad
            if not (0 <= t < n and 0 <= h < n):
                raise ValueError(f"arrow ({t},{h}) out of range for {n} vertices")
            raise ValueError(f"loop at vertex {t} not allowed")
        object.__setattr__(self, "arrows", tuple(arrows))
        # Kahn's algorithm on the out-lists: O(V + E)
        ready = [x for x in range(n) if indeg[x] == 0]
        order: list[int] = []
        while ready:
            x = ready.pop()
            order.append(x)
            for h in heads[x]:
                indeg[h] -= 1
                if indeg[h] == 0:
                    ready.append(h)
        if len(order) != n:
            raise ValueError("quiver contains an oriented cycle")
        object.__setattr__(self, "_topo", tuple(order))

    @property
    def topo_order(self) -> tuple[int, ...]:
        return self._topo  # type: ignore[attr-defined]


def _integral_arrow(a) -> tuple[int, int]:
    """Arrow a as a tuple of ints; a non-integral end is an error, never
    truncated."""
    t, h = a
    arrow = int(t), int(h)
    if arrow != (t, h):
        bad = t if arrow[0] != t else h
        raise ValueError(f"non-integral vertex {bad!r} in arrow {a!r}")
    return arrow


def check_dimvector(Q: Quiver, vec, signed: bool = False) -> tuple[int, ...]:
    entries = tuple(vec)  # no copy when vec is a tuple
    v = tuple(map(int, entries))
    if v != entries:
        bad = next(e for e, i in zip(entries, v) if e != i)
        raise ValueError(f"non-integral entry {bad!r} in dimension vector {entries}")
    if len(v) != Q.nvertices:
        raise ValueError(f"dimension vector {v} has length {len(v)}, quiver has {Q.nvertices} vertices")
    if not signed and v and min(v) < 0:
        raise ValueError(f"negative entry in dimension vector {v}")
    return v


class NonzeroPairingError(ValueError):
    """The Euler pairing <beta, alpha - beta> is not 0 where N, M or an
    oracle needs it to be; only check_instance raises it."""


class NegativePairingError(NonzeroPairingError):
    """The Euler pairing is negative, so a general representation has no
    beta-dimensional subrepresentations; only check_instance raises it."""


def check_instance(Q: Quiver, beta, alpha, require: str | None = None):
    """Validate beta inside alpha; return (beta, alpha, gamma, <beta, gamma>)
    with gamma = alpha - beta.

    This is the one place that decides whether (Q, beta, alpha) is an
    instance and whether its pairing meets the caller's requirement: None,
    "nonnegative" (the fiber class and its pieces) or "zero" (N, M, oracles)."""
    if require is not None and require not in ("nonnegative", "zero"):
        raise ValueError(f"pairing requirement must be None, 'nonnegative' or 'zero', got {require!r}")
    beta = check_dimvector(Q, beta)
    alpha = check_dimvector(Q, alpha)
    gamma = tuple(map(sub, alpha, beta))
    if gamma and min(gamma) < 0:
        raise ValueError(f"beta {beta} does not fit inside alpha {alpha}")
    # the Euler form, on tuples already checked
    pairing = sum(map(mul, beta, gamma)) - sum([beta[t] * gamma[h] for t, h in Q.arrows])
    if require and pairing < 0:
        raise NegativePairingError(
            f"negative Euler pairing {pairing}: a general representation has no"
            f" subrepresentations of dimension {beta}"
        )
    if require == "zero" and pairing:
        raise NonzeroPairingError(f"nonzero Euler pairing {pairing}; use fiber-class for the full decomposition")
    return beta, alpha, gamma, pairing


def euler_form(Q: Quiver, a, b) -> int:
    """Sum of a(x)b(x) over vertices minus a(ta)b(ha) over arrows."""
    a = check_dimvector(Q, a, signed=True)
    b = check_dimvector(Q, b, signed=True)
    total = sum(x * y for x, y in zip(a, b))
    for t, h in Q.arrows:
        total -= a[t] * b[h]
    return total
