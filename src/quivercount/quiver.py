"""Quivers, dimension vectors, finite-field representations, and the
determinantal pairing between a representation and a candidate quotient.

The map underlying everything here sends a tuple of per-vertex linear maps
phi to the per-arrow tuple W(a) phi(ta) - phi(ha) V(a).  Its kernel is the
space of homomorphisms V -> W, its cokernel the extension space, and when
the matrix is square its determinant c^V(W) is the semi-invariant this
package counts with.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from operator import mul, sub

from .ffield import GF, mat_det, mat_rank


class NonSquarePairingError(ValueError):
    """Raised when a determinant is requested but d^V_W is not square."""


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


def check_instance(Q: Quiver, beta, alpha):
    """Validate beta inside alpha; return (beta, alpha, gamma, <beta, gamma>)
    with gamma = alpha - beta.

    This is the one place that decides whether (Q, beta, alpha) is an
    instance.  Callers add their own requirements on the pairing."""
    beta = check_dimvector(Q, beta)
    alpha = check_dimvector(Q, alpha)
    gamma = tuple(map(sub, alpha, beta))
    if gamma and min(gamma) < 0:
        raise ValueError(f"beta {beta} does not fit inside alpha {alpha}")
    # the Euler form, on tuples already checked
    pairing = sum(map(mul, beta, gamma)) - sum([beta[t] * gamma[h] for t, h in Q.arrows])
    return beta, alpha, gamma, pairing


def euler_form(Q: Quiver, a, b) -> int:
    """Sum of a(x)b(x) over vertices minus a(ta)b(ha) over arrows."""
    a = check_dimvector(Q, a, signed=True)
    b = check_dimvector(Q, b, signed=True)
    total = sum(x * y for x, y in zip(a, b))
    for t, h in Q.arrows:
        total -= a[t] * b[h]
    return total


@dataclass(frozen=True)
class FFRep:
    """A finite-field representation: one matrix per arrow.

    mats[i] has shape dim[ha] x dim[ta] for arrow i = (ta, ha); rows are
    tuples of field elements.
    """

    quiver: Quiver
    field: GF
    dim: tuple[int, ...]
    mats: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dim", check_dimvector(self.quiver, self.dim))
        if len(self.mats) != len(self.quiver.arrows):
            raise ValueError("one matrix per arrow required")
        frozen = []
        for i, (t, h) in enumerate(self.quiver.arrows):
            m = tuple(tuple(row) for row in self.mats[i])
            if len(m) != self.dim[h] or any(len(row) != self.dim[t] for row in m):
                raise ValueError(
                    f"arrow {i}: matrix shape {len(m)}x{len(m[0]) if m else 0}"
                    f" does not match {self.dim[h]}x{self.dim[t]}"
                )
            frozen.append(m)
        object.__setattr__(self, "mats", tuple(frozen))

    def dual(self) -> FFRep:
        """The dual representation V* on the opposite quiver: arrow i keeps
        its index, runs from ha to ta and carries the transpose of V(i).

        Transposes are built by index, so an arrow into a zero-dimensional
        vertex (no rows) becomes dim[ta] empty rows."""
        Q = self.quiver
        op = Quiver(Q.nvertices, tuple((h, t) for t, h in Q.arrows))
        mats = tuple(
            tuple(tuple(m[r][c] for r in range(self.dim[h])) for c in range(self.dim[t]))
            for m, (t, h) in zip(self.mats, Q.arrows)
        )
        return FFRep(op, self.field, self.dim, mats)


def random_rep(Q: Quiver, dim, field: GF, seed: int) -> FFRep:
    """Uniformly random representation from a seeded generator.

    The same (quiver, dim, field, seed) always produces the same matrices;
    entries are drawn arrow by arrow, row-major.
    """
    dim = check_dimvector(Q, dim)
    rng = random.Random(seed)
    mats = []
    for t, h in Q.arrows:
        mats.append(tuple(tuple(field.sample(rng) for _ in range(dim[t])) for _ in range(dim[h])))
    return FFRep(Q, field, dim, tuple(mats))


def _check_pair(Q: Quiver, V: FFRep, W: FFRep) -> None:
    if V.quiver is not Q and V.quiver != Q:
        raise ValueError("V lives on a different quiver")
    if W.quiver is not Q and W.quiver != Q:
        raise ValueError("W lives on a different quiver")
    if V.field != W.field:
        raise ValueError(f"field mismatch: {V.field} vs {W.field}")


def build_dvw(Q: Quiver, V: FFRep, W: FFRep) -> list[list[int]]:
    """Matrix of phi -> (W(a) phi(ta) - phi(ha) V(a)) over all arrows.

    Domain: direct sum over vertices x of Hom(V(x), W(x)); the basis is
    matrix units of each gamma(x)-by-beta(x) block, vertex index first,
    column-major inside the block.  Codomain: direct sum over arrows of
    Hom(V(ta), W(ha)), arrow index first, column-major inside.  This
    ordering is fixed so determinants are reproducible, not only ranks.
    """
    _check_pair(Q, V, W)
    F = V.field
    beta, gamma = V.dim, W.dim

    dom_offsets = []
    off = 0
    for x in range(Q.nvertices):
        dom_offsets.append(off)
        off += beta[x] * gamma[x]
    ncols = off

    cod_offsets = []
    off = 0
    for t, h in Q.arrows:
        cod_offsets.append(off)
        off += beta[t] * gamma[h]
    nrows = off

    # an arrow's tail and head differ, so each entry is written once
    zero, neg = F.zero, F.neg
    M = [[zero] * ncols for _ in range(nrows)]
    for a, (t, h) in enumerate(Q.arrows):
        base, Wa, Va = cod_offsets[a], W.mats[a], V.mats[a]
        for c in range(beta[t]):
            for r in range(gamma[t]):
                # unit E_rc at the tail: column c of W(a) E_rc is column r of W(a)
                col = dom_offsets[t] + c * gamma[t] + r
                for i in range(gamma[h]):
                    if Wa[i][r] != zero:
                        M[base + c * gamma[h] + i][col] = Wa[i][r]
        for c in range(beta[h]):
            for r in range(gamma[h]):
                # unit E_rc at the head: row r of -(E_rc V(a)) is minus row c of V(a)
                col = dom_offsets[h] + c * gamma[h] + r
                for j in range(beta[t]):
                    if Va[c][j] != zero:
                        M[base + j * gamma[h] + r][col] = neg(Va[c][j])
    return M


def hom_ext_dims(Q: Quiver, V: FFRep, W: FFRep) -> tuple[int, int]:
    """(dim Hom(V,W), dim Ext(V,W)) as nullity and corank of d^V_W."""
    M = build_dvw(Q, V, W)
    ncols = sum(V.dim[x] * W.dim[x] for x in range(Q.nvertices))
    nrows = len(M)
    rank = mat_rank(V.field, M) if M and ncols else 0
    hom = ncols - rank
    ext = nrows - rank
    if hom - ext != euler_form(Q, V.dim, W.dim):
        raise AssertionError("Euler identity violated; pairing code is broken")
    return hom, ext


def semiinvariant_cv(Q: Quiver, V: FFRep, W: FFRep) -> int:
    """det d^V_W; defined exactly when the pairing of the dimension
    vectors vanishes, and zero iff V maps nontrivially to W."""
    _check_pair(Q, V, W)
    pairing = euler_form(Q, V.dim, W.dim)
    if pairing != 0:
        raise NonSquarePairingError(
            f"d^V_W is not square: euler pairing is {pairing}, need 0"
        )
    M = build_dvw(Q, V, W)
    return mat_det(V.field, M)
