"""Ground-truth oracles for the counting formulas.

Representations over a finite field live here, with the map they are
checked through: a tuple of per-vertex linear maps phi goes to the
per-arrow tuple W(a) phi(ta) - phi(ha) V(a).  Its kernel is the space of
homomorphisms V -> W, its cokernel the extension space, and when the
matrix is square its determinant c^V(W) is a semi-invariant.  Of the
counting side this module takes only `verify_counts`, for the N and M
the basis verifier checks against; `tests/test_layering.py` holds it
to that.

Three independent checks live here: exhaustive enumeration of
subrepresentations of an explicit representation over a small finite
field, seeded sampling with modal voting (a general representation's
fiber cardinality shows up as the majority count across random samples),
and a determinant-rank estimator for the weight-space dimension, which
sizes its own samples.  The basis verifier ties them together: it
extracts the subrepresentations of one sample with explicit bases, forms
the quotients, and checks that the evaluation matrix of the attached
semi-invariants is diagonal.

Enumeration walks the vertices in topological order and enumerates, at
each, only the subspaces containing the images of what is already fixed;
the sources are therefore enumerated in full.  W -> W^perp matches the
beta-subrepresentations of V with the (alpha - beta)-subrepresentations
of the dual V* on the opposite quiver, whose walk starts at the sinks of
Q instead, so each call walks V or V*, whichever starts with fewer free
subspaces.  Listed subrepresentations come in the order of that walk.  A
count walks only the vertices with an outgoing arrow; at each leaf it
multiplies in the number of subspaces of each sink that contain the span
of its images, a Gaussian binomial in the span's rank.

A sample drawn over F_p and read over F_{p^j} is fixed by Frobenius
x -> x^p, which therefore permutes its subrepresentations over F_{p^j}
and preserves everything the oracles look at.  The count paths use this;
the listing paths, whose order seeded results rest on, list every member
of every orbit.  A count
walk takes one subspace per Frobenius orbit while all it has chosen is
Frobenius-fixed and weights it by the orbit's size, and the solver's
count takes one source line per Frobenius orbit of each eliminant's
roots, weighted the same way.  Both are exact: Frobenius maps what lies
below one member of an orbit onto what lies below each other member.
The walk's orbit test reads a subspace's free entries, the values its
generator draws, before any basis is built, so a conjugate that is not
the least of its orbit never becomes a row list.

Instances whose Grassmannian point count exceeds the enumeration budget
are refused, with one carve-out: two-vertex instances whose source
carries a single line admit exact counting by elimination (resultants
plus root extraction), which is how the six-subrepresentation instance
stays checkable over large fields.  Both samplers read a sample drawn
over F_p over each F_{p^j} in turn (`_by_degree`), and each degree
enumerates when its point count fits the budget and solves otherwise.
The solver finds only the source lines that lie in a
subrepresentation; the walk takes them as its first vertex's subspaces
and does the rest, for counts and listings alike.  The solver runs in
two phases.  The elimination (minors, resultants, gcds) runs once per
sample, over F_p, the first time a degree solves: the sample has F_p
entries, and GF's prime-subfield fast path makes every one of those
steps return the same ints in F_p and in each F_{p^j}, so repeating it
per extension would only rebuild the same polynomials.  It computes the
minors on the first chart only, over F[z] with t a power of z, reads
each later chart's minors off them, and takes each resultant by the
subresultant PRS over F[s].  With it, the
irreducible factors of each eliminant over F_p are grouped by degree
once per sample, and its roots in F_p found.  Each group of degree d
has one root per Frobenius orbit taken once per sample, in GF(p, d), the
field its orbits generate: take a root, divide its factor out of the
group and repeat.  The root phase then runs per extension degree j and
reads the roots of each group whose d divides j through an embedding of
GF(p, d) in F_{p^j}.  A degeneracy found by the elimination holds at
that j and every later one; one found while taking roots holds at its j
only.  The dual-basis check counts each degree first and lists the
subrepresentations only at a degree whose count is N, taking every
conjugate of the count's roots in the order `poly_roots` lists them.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import partial, reduce

from .counting import verify_counts
from .ffield import (
    GF,
    distinct_degree_factorization,
    mat_det,
    mat_kernel,
    mat_rank,
    mat_rref,
    mat_vec,
    poly_add,
    poly_deg,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_mul,
    poly_neg,
    poly_orbit_roots,
    poly_roots,
    poly_scale,
    poly_sub,
    poly_trim,
    split_order,
)
from .quiver import Quiver, check_dimvector, check_instance, euler_form


class NonSquarePairingError(ValueError):
    """Raised when a determinant is requested but d^V_W is not square."""


class BudgetExceededError(RuntimeError):
    """Instance too large to enumerate: names the offending point count."""

    def __init__(self, points: int, budget: int):
        super().__init__(
            f"enumeration budget exceeded: {points} subspace tuples, budget {budget}"
        )
        self.points = points
        self.budget = budget


class DegenerateSampleError(RuntimeError):
    """The sampled representation has a positive-dimensional family of
    subrepresentations (or the elimination could not separate one); its
    rational count is not a meaningful vote."""


def gaussian_binomial(n: int, r: int, q: int) -> int:
    """Number of r-dimensional subspaces of an n-space over a q-element
    field, as an exact integer."""
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= n, got r={r}, n={n}")
    if q < 2:
        raise ValueError(f"need a field size q >= 2, got q={q}")
    num = den = 1
    for i in range(1, r + 1):
        num *= q ** (n - i + 1) - 1
        den *= q**i - 1
    assert num % den == 0
    return num // den


# -- representations over a finite field ---------------------------------------


@dataclass(frozen=True)
class FFRep:
    """A finite-field representation: one matrix per arrow.

    mats[i] has shape dim[ha] x dim[ta] for arrow i = (ta, ha); rows are
    tuples of field elements, each an int in 0..q-1.
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
        q = self.field.q
        for i, (t, h) in enumerate(self.quiver.arrows):
            m = tuple(tuple(row) for row in self.mats[i])
            if len(m) != self.dim[h] or any(len(row) != self.dim[t] for row in m):
                raise ValueError(
                    f"arrow {i}: matrix shape {len(m)}x{len(m[0]) if m else 0}"
                    f" does not match {self.dim[h]}x{self.dim[t]}"
                )
            for row in m:
                for e in row:
                    if not 0 <= e < q:
                        raise ValueError(f"arrow {i}: entry {e} is not an element of {self.field}")
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
    vectors vanishes, and zero iff V maps nontrivially to W.  The pair is
    checked by `build_dvw`, so its errors come before the pairing's."""
    M = build_dvw(Q, V, W)
    pairing = euler_form(Q, V.dim, W.dim)
    if pairing != 0:
        raise NonSquarePairingError(
            f"d^V_W is not square: euler pairing is {pairing}, need 0"
        )
    return mat_det(V.field, M)


# -- subspace enumeration ------------------------------------------------------


def _span_rows(F, rows: list) -> tuple[list, tuple[int, ...]]:
    """Reduced row basis (zero rows dropped) and its pivot columns."""
    if not rows:
        return [], ()
    R, pivots = mat_rref(F, [list(r) for r in rows])
    return [R[i] for i in range(len(pivots))], pivots


def _lift_bases(F, srows: list, pivots: tuple[int, ...], n: int, d: int, orbits: bool = False):
    """Yield a basis for every d-dimensional subspace of F^n containing the
    span of srows, reduced with pivot columns `pivots`: srows, then the
    reduced-echelon basis of a complement whose pivots and free entries
    all lie in the other columns.  Pivots come in `combinations` order and
    free entries, in (row, column) order, in `product` order.  Every basis
    shares the row lists of srows, which the walk only reads, and copies
    the complement's rows from one template per choice of pivots.

    With orbits, srows must lie over F_p, and the bases come as (basis,
    orbit size) pairs, one per Frobenius orbit: a basis's conjugates
    (entrywise p-th powers) are again such bases, differing from it only
    in the free values outside F_p, the ints >= p.  The orbit test reads
    those values, in order, off the `product` tuple before any row list is
    built; a basis is yielded only when its values are the least of their
    conjugates (compared as lists), with the number of distinct ones."""
    nonpivot = [c for c in range(n) if c not in pivots]
    p, frobenius = F.p, F.frobenius
    for qpivots in itertools.combinations(nonpivot, d - len(srows)):
        free = [(r, c) for r, q in enumerate(qpivots) for c in nonpivot if c > q and c not in qpivots]
        template = [[F.zero] * n for _ in qpivots]
        for row, q in zip(template, qpivots):
            row[q] = F.one
        for values in itertools.product(F.elements(), repeat=len(free)):
            if orbits:
                moved = [v for v in values if v >= p]
                size, conj = 1, [frobenius(v) for v in moved]
                while conj > moved:
                    size += 1
                    conj = [frobenius(v) for v in conj]
                if conj < moved:
                    continue
            rows = [list(row) for row in template]
            for (r, c), v in zip(free, values):
                rows[r][c] = v
            yield (srows + rows, size) if orbits else srows + rows


def _raw_point_count(Q: Quiver, alpha, beta, q: int) -> int:
    total = 1
    for x in range(Q.nvertices):
        total *= gaussian_binomial(alpha[x], beta[x], q)
    return total


def _walk_subreps(Q: Quiver, V: FFRep, beta, collect: bool, source: list | None = None):
    """One depth-first walk in topological order: at each vertex the span
    of the incoming images is computed and only the beta-subspaces
    containing it are enumerated.  Returns (count, listed bases, nodes),
    where nodes counts the nodes of the walk, root and leaves included.
    The path to the current node is an explicit stack, one frame per
    vertex, so the walk's depth is not bounded by Python's recursion.
    Every listed basis is in reduced echelon form.

    With source, (line, weight) pairs from the elimination solver, the
    first walked vertex is not enumerated: it takes each line as its
    one-row basis, counted weight times (one line per Frobenius orbit in
    a count), and the walk does the rest.  The weights already count the
    Frobenius orbits, so the walk takes none of its own at that vertex.

    A count walks only the vertices with an outgoing arrow.  A sink x
    needs only to contain the span of its images, so at each leaf it
    multiplies the count by [alpha_x - s, beta_x - s]_q, s the rank of
    that span, or by 0 when s > beta_x; nothing is listed there.

    A count of an F_p-rational V read over F = F_{p^k}, k > 1, walks one
    subspace per Frobenius orbit while every subspace chosen so far is
    Frobenius-fixed: the span S of the images is then fixed, its reduced
    basis lies over F_p, and Frobenius acts on the subspaces containing S
    as on their lifted rows, entry by entry, which moves only the free
    values outside F_p.  So `_lift_bases(..., orbits=True)` tests the
    orbit on the free values, before it builds any basis, and hands the
    walk only the least conjugate of each orbit with the orbit's size;
    its subtree counts once per member, since Frobenius maps it onto the
    subtree of each conjugate.  Below a subspace that is not fixed the
    walk enumerates in full.  The sinks' binomials need no orbits: the
    orbit sizes at a sink add up to it."""
    F = V.field
    alpha = V.dim
    incoming: list = [[] for _ in range(Q.nvertices)]
    for a, (t, h) in enumerate(Q.arrows):
        incoming[h].append((t, V.mats[a]))
    orbits = not collect and F.k > 1 and all(c < F.p for M in V.mats for row in M for c in row)
    walked = Q.topo_order
    sinks: list = []
    if not collect:
        tails = {t for t, _ in Q.arrows}
        walked = [x for x in walked if x in tails]
        # a sink with beta_x = alpha_x holds every span, in one way
        sinks = [x for x in range(Q.nvertices) if x not in tails and beta[x] < alpha[x]]

    bases: list = [None] * Q.nvertices
    found: list = []
    count = nodes = 0
    # frames (depth, weight, paired, subspaces still to walk); weight: the
    # subrepresentations that each leaf below stands for; paired: the
    # subspaces come as (basis, orbit size) pairs
    stack: list = [] if source is None else [(0, 1, True, (([line], size) for line, size in source))]

    def images(x: int) -> list:
        return [mat_vec(F, A, w) for t, A in incoming[x] for w in bases[t]]

    def visit(i: int, weight: int) -> None:
        nonlocal count, nodes
        nodes += 1
        if i == len(walked):
            for x in sinks:
                s = mat_rank(F, images(x))
                if s > beta[x]:
                    return
                weight *= gaussian_binomial(alpha[x] - s, beta[x] - s, F.q)
            count += weight
            if collect:
                # _lift_bases leaves span-row entries in the complement's pivot columns
                found.append(tuple(tuple(tuple(r) for r in _span_rows(F, bases[x])[0]) for x in range(Q.nvertices)))
            return
        x = walked[i]
        srows, pivots = _span_rows(F, images(x))
        if len(srows) <= beta[x]:
            paired = orbits and weight == 1
            stack.append((i, weight, paired, _lift_bases(F, srows, pivots, alpha[x], beta[x], orbits=paired)))

    if source is None:
        visit(0, 1)
    while stack:
        i, weight, paired, subspaces = stack[-1]
        W = next(subspaces, None)
        if W is None:
            bases[walked[i]] = None
            stack.pop()
            continue
        size = 1
        if paired:
            W, size = W
        bases[walked[i]] = W
        visit(i + 1, weight * size)
    return count, found, nodes


def _dfs_subreps(Q: Quiver, V: FFRep, beta, gamma, collect: bool):
    """Walk V from the sources of Q, or the dual V* from the sinks of Q,
    whichever starts with fewer free subspaces; ties walk V.  An arrow at
    a zero-dimensional vertex carries nothing, so the sources and sinks
    are taken without such arrows.

    W -> (W_x^perp) is a bijection from the beta-subrepresentations of V
    to the (alpha - beta)-subrepresentations of V* (Q^op, transposed
    matrices), so both walks count the same.  A listed dual result U is
    mapped back to W_x = ker U_x in reduced echelon form."""
    F = V.field
    alpha = V.dim
    live = [(t, h) for t, h in Q.arrows if alpha[t] and alpha[h]]
    tails = {t for t, _ in live}
    heads = {h for _, h in live}
    f_src = f_snk = 1
    for x in range(Q.nvertices):
        if x not in heads:
            f_src *= gaussian_binomial(alpha[x], beta[x], F.q)
        if x not in tails:
            f_snk *= gaussian_binomial(alpha[x], gamma[x], F.q)
    if f_snk >= f_src:
        return _walk_subreps(Q, V, beta, collect)
    D = V.dual()
    count, found, nodes = _walk_subreps(D.quiver, D, gamma, collect)
    subs = [
        tuple(
            tuple(tuple(r) for r in _span_rows(F, mat_kernel(F, U, alpha[x]))[0])
            for x, U in enumerate(sub)
        )
        for sub in found
    ]
    return count, subs, nodes


def _enumerate(Q: Quiver, V: FFRep, beta, budget: int, collect: bool):
    """Input checks and budget gate shared by enumerate_subreps and
    list_subreps, then the walk."""
    _check_pair(Q, V, V)  # the quiver test alone
    beta, alpha, gamma, _ = check_instance(Q, beta, V.dim)
    points = _raw_point_count(Q, alpha, beta, V.field.q)
    if points > budget:
        raise BudgetExceededError(points, budget)
    return _dfs_subreps(Q, V, beta, gamma, collect)


def enumerate_subreps(
    Q: Quiver, V: FFRep, beta, budget: int = 10**7, stats: dict | None = None
) -> int:
    """Count beta-dimensional subrepresentations of the explicit V by
    direct traversal: at each vertex (in topological order) the span of
    the incoming images is computed and only subspaces containing it are
    enumerated.

    The walk runs on V from the sources of Q, or on the dual V* from the
    sinks of Q, whichever has fewer free subspaces at its start (the
    product of the Gaussian binomials at those vertices; ties walk V).
    Subrepresentations of V and (alpha - beta)-subrepresentations of V*
    correspond one to one, so the count is the same either way.  When
    stats is given, stats['nodes'] is increased by the nodes visited.

    V with entries in F_p read over F_{p^k}, k > 1, is walked one
    Frobenius orbit at a time (see `_walk_subreps`): Frobenius fixes V,
    so it maps the subrepresentations through one subspace onto those
    through each of its conjugates, and the count weights one
    representative by the orbit's size.  `list_subreps` walks in full."""
    count, _, nodes = _enumerate(Q, V, beta, budget, collect=False)
    if stats is not None:
        stats["nodes"] = stats.get("nodes", 0) + nodes
    return count


def list_subreps(Q: Quiver, V: FFRep, beta, budget: int = 10**7) -> tuple:
    """Like enumerate_subreps but returns the subrepresentations themselves
    as tuples of per-vertex row bases.  The walk is chosen as in
    enumerate_subreps (V from the sources, or V* from the sinks when that
    starts with fewer free subspaces), and the list comes in its order.
    Every basis is in reduced echelon form, whichever way the walk ran;
    after a dual walk it is that of the kernel of the dual subspace."""
    return tuple(_enumerate(Q, V, beta, budget, collect=True)[1])


# -- elimination fast path -----------------------------------------------------
#
# Two-vertex shape: all arrows from a source carrying a line (beta = 1,
# alpha <= 3) into one target.  A line spanned by v is part of a
# subrepresentation iff the m image vectors A_1 v .. A_m v span at most
# beta(tgt) dimensions, i.e. all (b+1)-minors of the n_tgt x m matrix
# [A_1 v | ... | A_m v] vanish.  Charts on the projective space of lines
# turn this into systems in <= 2 variables (s, then t), solved by
# resultants and root extraction.  The solver stops at the solution
# lines: `_walk_subreps`, given them as its source, takes the target
# subspaces containing each line's image span.  A minor is a polynomial
# in t over F[s] (a tuple, ascending in t, of s-polynomials); on a
# one-variable chart it is its t^0 coefficient.
# `_minor_polys` computes the minors once per sample, on chart 0, with
# `_minors` over F[z] (s = z, t = z^(b+2)); a minor is a form of degree
# b+1 in v, so `_eliminate` reads each later chart's minors off the
# chart before it.  `_resultant_t` takes each resultant in t by the
# subresultant PRS over F[s].  `_eliminate` does everything
# before the first root over the field of the sample's entries;
# `_rational_factors` groups its eliminants' factors over F_p by degree
# once per sample; `_orbit_roots` takes one root per Frobenius orbit of
# each group, once per sample in the field the orbits generate, and
# embeds them in whatever extension V is read over; and `_kronecker_lines`
# turns the s-roots it is given into the lines the walk starts from: a
# count's orbit roots, or a listing's every conjugate in `poly_roots`
# order (`split_order`).

_MAX_MINOR = 4  # minor size b + 1: t-degrees <= 4, z-degrees <= 20


def _kronecker_form(Q: Quiver, beta, alpha):
    """(src, tgt) when the elimination solver applies, else None."""
    if Q.nvertices != 2 or not Q.arrows:
        return None
    # arrows both ways between two vertices would form an oriented cycle
    src, tgt = Q.arrows[0]
    if beta[src] != 1 or not 1 <= alpha[src] <= 3:
        return None
    b = beta[tgt]
    if b + 1 > _MAX_MINOR:
        return None
    if len(Q.arrows) <= b and alpha[src] > 1:
        return None  # rank condition vacuous on a whole projective space
    return src, tgt


class _PolyRing:
    """Polynomials over the ring R, as a ring for ffield's polynomial
    helpers and `_minors`: F[z] is _PolyRing(F)."""

    def __init__(self, R) -> None:
        self.zero = ()
        self.one = (R.one,)
        self.add = partial(poly_add, R)
        self.neg = partial(poly_neg, R)
        self.mul = partial(poly_mul, R)


def _minors(R, M: list[list], r: int) -> dict:
    """Every r x r minor of M over the ring R, keyed by (rows, columns),
    ascending index tuples; a missing key is a zero minor.  The rows are
    taken bottom-up: each is skipped, or made the top row of the minors
    built below it by Laplace expansion, the latter only while enough
    rows remain above it to fill a minor.  So shared sub-minors are
    computed once."""
    by_size = [{((), ()): R.one}] + [{} for _ in range(r)]
    for i in reversed(range(len(M))):
        # descending sizes, so no minor takes row i twice
        for k in reversed(range(max(0, r - 1 - i), r)):
            grown = by_size[k + 1]
            for (rows, cols), d in by_size[k].items():
                pos = 0  # c's place among the minor's columns
                for c, a in enumerate(M[i]):
                    if pos < k and cols[pos] == c:
                        pos += 1
                    elif a != R.zero and d != R.zero:
                        term = R.neg(R.mul(a, d)) if pos % 2 else R.mul(a, d)
                        key = ((i, *rows), (*cols[:pos], c, *cols[pos:]))
                        grown[key] = R.add(grown[key], term) if key in grown else term
    return {key: d for key, d in by_size[r].items() if d != R.zero}


def _minor_polys(F, mats, chart: list[tuple], b: int) -> list[tuple]:
    """All (b+1)-minors of [A_1 v | ... | A_m v] with v given by the chart
    (one polynomial in t over F[s] per coordinate, each of total degree
    <= 1), each as a polynomial in t over F[s]: row subsets, then column
    subsets, in combinations order.  `_minors` computes them over F[z]
    with s = z and t = z^(b+2).  That is exact: a sub-minor has total
    degree <= b+1, so s^i t^j goes to z^(i + (b+2) j) with i < b+2, and
    each minor is read back off its z-coefficients in blocks of b+2."""
    w = b + 2
    R = _PolyRing(F)
    zchart = [poly_trim(F, [c for x in xs for c in x + (F.zero,) * (w - len(x))]) for xs in chart]
    M = [
        [reduce(R.add, (poly_scale(F, a, x) for a, x in zip(A[r], zchart) if a != F.zero), ()) for A in mats]
        for r in range(len(mats[0]))
    ]
    minors = _minors(R, M, b + 1)
    keys = itertools.product(*(itertools.combinations(range(n), b + 1) for n in (len(M), len(mats))))
    return [
        tuple(poly_trim(F, z[j : j + w]) for j in range(0, len(z), w)) for z in (minors.get(key, ()) for key in keys)
    ]


def _resultant_t(F, f: tuple, g: tuple) -> tuple:
    """Resultant of two polynomials in t with coefficients in F[s],
    given as coefficient tuples (ascending in t), with the sign of their
    Sylvester determinant in block order (all of f's rows first), by the
    subresultant PRS (Collins 1967, Brown-Traub 1971).  Each step replaces
    (A, B) by (B, prem(A, B) / (c h^delta)): prem is the pseudo-remainder,
    delta = deg A - deg B, c the leading coefficient of A and h that of the
    last subresultant (both 1 on the first step), and every quotient is
    exact in F[s].  A vanishing remainder means a common factor in t, and
    the resultant is ()."""
    m, n = len(f) - 1, len(g) - 1
    assert m >= 1 and n >= 1
    mul = partial(poly_mul, F)
    one = (F.one,)

    def power(x, e):
        return reduce(mul, (x,) * e) if e else one

    odd = 0
    if m < n:
        f, g = g, f
        odd = m * n % 2  # Res(g, f) = (-1)^(mn) Res(f, g)
    c = h = one
    while True:
        df, dg, lead = len(f) - 1, len(g) - 1, g[-1]
        delta = df - dg
        odd ^= df * dg % 2
        # prem(f, g) = lc(g)^(delta+1) f mod g, one t-degree of f per pass
        r = list(f)
        for k in reversed(range(delta + 1)):
            top = r.pop()
            r = [mul(lead, x) for x in r]
            for j, y in enumerate(g[:-1]):
                r[k + j] = poly_sub(F, r[k + j], mul(top, y))
        while r and not r[-1]:
            r.pop()
        if not r:
            return ()
        div = mul(c, power(h, delta))
        f, g = g, tuple(r) if div == one else tuple(poly_divmod(F, x, div)[0] for x in r)
        c = f[-1]
        if delta:
            h = poly_divmod(F, power(c, delta), power(h, delta - 1))[0]
        if len(g) == 1:
            res = poly_divmod(F, power(g[0], dg), power(h, dg - 1))[0]
            return poly_neg(F, res) if odd else res


def _gcd_all(F, polys: list[tuple]) -> tuple:
    """gcd of a nonempty list, stopping once it is constant (the first
    polynomial itself, unnormalized, when the list has one entry)."""
    u = polys[0]
    for g in polys[1:]:
        u = poly_gcd(F, u, g)
        if poly_deg(u) <= 0:
            break
    return u


def _eliminate(Q: Quiver, V: FFRep, beta, src: int, tgt: int) -> list[tuple]:
    """Elimination phase of the solver: everything it does before the
    first root is taken, over the field of V's entries.

    Returns one (fixed, u, tpolys) per chart that can hold solution lines,
    in chart order; fixed is the chart's leading coordinates (zeros, then
    a one).  With no free coordinate, u and tpolys are None and fixed is
    the one line.  With one, u is the gcd of the minors in s and tpolys is
    None.  With two (s, t), u is the gcd of the resultants in t, and
    tpolys holds the nonzero minors, polynomials in t over F[s], to be
    specialized at each root of u; u may have repeated factors, and
    each root is taken once.  Raises DegenerateSampleError when
    the solution set is positive-dimensional before any root is taken.

    The minors are computed once, on chart 0 (`_minor_polys`), and each
    later chart reads its own off the chart before it.  Resultants come
    from `_resultant_t`, whose products are in F[s] only.

    Every step stays in the field of V's entries: minors, resultants and
    gcds of polynomials with coefficients in F_p are the same ints in F_p
    and in every F_{p^j} (GF's prime-subfield fast path).  So a
    representation sampled over F_p is eliminated once, and
    `_kronecker_lines` takes the roots in each extension it is re-read
    over: u then has F_p coefficients, so a count takes one root per
    Frobenius orbit from the parts of u's distinct-degree factorization
    over F_p (`_orbit_roots`), and a listing all their conjugates."""
    F = V.field
    one, zero = F.one, F.zero
    mats = V.mats
    n_src = V.dim[src]
    b = beta[tgt]
    if len(mats) <= b or V.dim[tgt] <= b:
        # rank condition holds everywhere
        if n_src == 1:
            return [((one,), None, None)]
        raise DegenerateSampleError("rank condition vacuous on the whole line space")
    charts: list[tuple] = []
    size = b + 1  # the minors' size, and their degree in v
    # chart i: coordinates before i vanish, coordinate i is 1, the rest
    # (at most two, s then t) are free
    minors = _minor_polys(F, mats, [((one,),), ((zero, one),), ((), (one,))][:n_src], b)
    for i in range(n_src):
        if i:
            # chart i is (0, 1, s) in chart i-1's coordinates, and a minor
            # is a form of degree b+1 in v: its terms s^(b+1-j) t^j on
            # chart i-1, read at (s, t) = (1, s)
            tops = (poly_trim(F, [c[size - j] if size - j < len(c) else zero for j, c in enumerate(f)]) for f in minors)
            minors = [(h,) if h else () for h in tops]
        fixed = (zero,) * i + (one,)
        nfree = n_src - 1 - i
        nonzero = [f for f in minors if f]
        if nfree == 0:
            if not nonzero:
                charts.append((fixed, None, None))
        elif not nonzero:
            raise DegenerateSampleError("every minor vanishes identically on a chart")
        elif nfree == 1:
            u = _gcd_all(F, [f[0] for f in nonzero])
            if poly_deg(u) >= 1:
                charts.append((fixed, u, None))
        else:
            u = _bivariate_eliminant(F, nonzero)
            if u is not None:
                charts.append((fixed, u, nonzero))
    return charts


def _bivariate_eliminant(F, nonzero: list[tuple]) -> tuple | None:
    """A polynomial in s, of degree >= 1, vanishing at the s-coordinate of
    every common zero (s, t) of the nonzero minors; None when they have
    no common zero."""
    with_t = [f for f in nonzero if poly_deg(f) >= 1]
    s_only = [f[0] for f in nonzero if poly_deg(f) == 0]
    if not with_t:
        # conditions restrict s alone: any common root leaves t free
        if poly_deg(_gcd_all(F, s_only)) <= 0:
            return None
        raise DegenerateSampleError("solution set contains a vertical line")
    for base in sorted(with_t, key=poly_deg):
        collected = list(s_only)
        for other in with_t:
            if other is base:
                continue
            res = _resultant_t(F, base, other)
            if not res:
                break
            collected.append(res)
        else:
            if not collected:
                # a single bivariate condition cuts out a curve
                raise DegenerateSampleError("a single minor constraint leaves a curve")
            u = _gcd_all(F, collected)
            return u if poly_deg(u) >= 1 else None
    raise DegenerateSampleError("resultants vanish for every base choice")


def _rational_factors(F, u: tuple) -> list[tuple[int, tuple]]:
    """u's distinct-degree factorization over the prime field F, as (d, h)
    pairs for d <= 4, GF's largest extension degree: the degree-1 part as
    one pair (1, x - r) per root r in F, and each part of degree d >= 2
    whole, a product of distinct irreducibles whose d roots are a
    Frobenius orbit in every F_{p^j} with d | j."""
    out = []
    for d, part in distinct_degree_factorization(F, u):
        if d == 1:
            out += [(1, (F.neg(r), F.one)) for r in poly_roots(F, part)]
        elif d <= 4:
            out.append((d, part))
    return out


def _orbit_roots(F, factors: list, found: dict) -> list[list[tuple]]:
    """For each chart, one root in F of each irreducible factor of its u
    whose degree d divides [F : F_p], as (s0, d) pairs, from the chart's
    `_rational_factors` parts (d, h).  A part's roots are taken once per
    sample, over GF(p, d), the field its orbits generate, by
    `poly_orbit_roots`, and kept in `found` under (chart, part); a larger
    F takes their images under `GF.embed`.  An image is a root in F of
    the same F_p-irreducible factor, so it stands for the same orbit."""
    out = []
    for i, parts in enumerate(factors):
        reps = []
        for n, (d, h) in enumerate(parts):
            if F.k % d:
                continue
            if (i, n) not in found:
                # a root of a linear h is the same int in every field
                found[i, n] = poly_orbit_roots(F if d in (1, F.k) else GF(F.p, d), h, d)
            reps += [(F.embed(r, d), d) for r in found[i, n]]
        out.append(reps)
    return out


def _kronecker_lines(F, charts: list[tuple], s_roots: list[list[tuple]]) -> list[tuple]:
    """Root phase of the solver: the lines over F (chart-normalized
    spanning vectors) whose image span has dimension at most beta(tgt),
    from the charts `_eliminate` computed over a subfield of F, as (line,
    weight) pairs.  s_roots holds for each chart the (s0, weight) pairs
    of the roots in F of its u to take, in order; each s0 gives the
    t-roots (`poly_roots`) of the chart's minors specialized at it, with
    its weight.  Raises DegenerateSampleError when an s0 leaves t free.

    A count passes one root per Frobenius orbit, weighted by the orbit's
    size (`_orbit_roots`).  That is exact: the minors have F_p
    coefficients, so Frobenius maps the lines over s0 onto the lines over
    each conjugate of s0 and keeps their image ranks, and a vertical line
    over s0 lies over every conjugate as well.  A listing passes every
    root, with weight 1."""
    points: list[tuple] = []
    for (fixed, u, tpolys), roots in zip(charts, s_roots):
        if u is None:
            points.append((fixed, 1))
            continue
        for s0, weight in roots:
            if tpolys is None:
                points.append(((*fixed, s0), weight))
                continue
            specialized = []
            for f in tpolys:
                g = poly_trim(F, [poly_eval(F, c, s0) for c in f])
                if g:
                    specialized.append(g)
            if not specialized:
                raise DegenerateSampleError("solution set contains a vertical line")
            ut = _gcd_all(F, specialized)
            if poly_deg(ut) >= 1:
                points.extend(((*fixed, s0, t0), weight) for t0 in poly_roots(F, ut))
    return points


# -- sampling oracle -----------------------------------------------------------


def _by_degree(Q: Quiver, V1: FFRep, beta, fields, budget: int, stats: dict | None = None):
    """Read the sample V1 over each of `fields` (V1's field, then its
    extensions) and yield (Vj, count, listing): the
    beta-subrepresentation count of Vj, None where the sample is
    degenerate at that degree, and a function of no arguments that lists
    those subrepresentations with bases.

    A degree enumerates when its point count fits the budget, solves
    when the shape has a solver, and raises BudgetExceededError
    otherwise.  `_eliminate` runs once, over V1's field, when a degree
    first solves, and so does the distinct-degree factorization over F_p
    of its eliminants, from whose parts the counts take one root per
    Frobenius orbit; a degeneracy the elimination finds makes every later
    degree None.  Each part's orbit roots are found once per sample
    (`_orbit_roots`), and a listing takes all their conjugates in
    `poly_roots` order (`split_order`)."""
    alpha = V1.dim
    kf = _kronecker_form(Q, beta, alpha)
    charts = None  # None before the first solve, False once found degenerate
    factors = None
    found: dict = {}  # each factor part's orbit roots, over the field they generate
    for F in fields:
        V = FFRep(Q, F, alpha, V1.mats)
        points = _raw_point_count(Q, alpha, beta, F.q)
        if points <= budget:
            count = enumerate_subreps(Q, V, beta, budget, stats)
            listing = partial(list_subreps, Q, V, beta, budget)
        elif kf is None:
            raise BudgetExceededError(points, budget)
        else:
            count = orbits = None
            try:
                if charts is None:
                    charts = _eliminate(Q, V1, beta, *kf)
                    factors = [() if u is None else _rational_factors(V1.field, u) for _, u, _ in charts]
                if charts is not False:
                    orbits = _orbit_roots(F, factors, found)
                    count = _walk_subreps(Q, V, beta, False, _kronecker_lines(F, charts, orbits))[0]
            except DegenerateSampleError:
                if charts is None:
                    charts = False

            def listing(V=V, orbits=orbits):
                # every conjugate of the count's roots, in poly_roots' order
                F = V.field
                s_roots = []
                for reps in orbits:
                    roots = []
                    for s0, d in reps:
                        for _ in range(d):
                            roots.append(s0)
                            s0 = F.frobenius(s0)
                    s_roots.append([(s0, 1) for s0 in split_order(F, roots)])
                return tuple(_walk_subreps(Q, V, beta, True, _kronecker_lines(F, charts, s_roots))[1])
        yield V, count, listing


@dataclass(frozen=True)
class SubrepCount:
    """Outcome of the sampling plan: per-trial counts over each extension
    and the modal vote across trials (taken at the largest extension)."""

    q: int
    extension_degree: int
    trials: int
    seed: int
    method: str  # 'enumerate' or 'solve': how the largest extension is counted
    per_trial: tuple[tuple[int | None, ...], ...]
    tally: dict
    degenerate: int
    modal: int | None
    inconclusive: bool
    # enumeration nodes over all trials and the degrees that enumerate; the
    # count walk skips the sinks, and over an extension it visits one
    # subspace per Frobenius orbit while every subspace chosen is
    # Frobenius-fixed (`_walk_subreps`)
    nodes: int = 0


def sampled_subrep_count(
    Q: Quiver,
    beta,
    alpha,
    q: int,
    max_ext_degree: int = 2,
    trials: int = 10,
    seed: int = 0,
    budget: int = 10**7,
) -> SubrepCount:
    """Sample representations over F_q and count their beta-dimensional
    subrepresentations over F_{q^j} for j up to max_ext_degree.

    The count recorded for a trial is the one at the largest extension;
    the modal count across trials is the oracle's estimate of the general
    fiber cardinality.  A tie for the mode is reported as inconclusive
    rather than resolved arbitrarily.  Each degree enumerates or solves
    as `_by_degree` decides; method is the choice at the largest degree.
    """
    beta, alpha = check_instance(Q, beta, alpha, "zero")[:2]
    if not 1 <= max_ext_degree <= 4:
        raise ValueError("extension degree must be between 1 and 4")
    if trials < 1:
        raise ValueError("at least one trial required")
    base = GF(q)  # validates primality

    points = _raw_point_count(Q, alpha, beta, q**max_ext_degree)
    if points <= budget:
        method = "enumerate"
    elif _kronecker_form(Q, beta, alpha) is None:
        raise BudgetExceededError(points, budget)
    else:
        method = "solve"

    fields = [base, *(GF(q, j) for j in range(2, max_ext_degree + 1))]
    stats = {"nodes": 0}
    per_trial = []
    for i in range(trials):
        V1 = random_rep(Q, alpha, base, seed * 1000003 + i)
        degrees = _by_degree(Q, V1, beta, fields, budget, stats)
        per_trial.append(tuple(c for _, c, _ in degrees))

    finals = [t[-1] for t in per_trial]
    tally: dict = {}
    for c in finals:
        if c is not None:
            tally[c] = tally.get(c, 0) + 1
    best = max(tally.values(), default=0)
    leaders = [c for c, n in tally.items() if n == best]
    modal = leaders[0] if len(leaders) == 1 else None
    return SubrepCount(
        q=q,
        extension_degree=max_ext_degree,
        trials=trials,
        seed=seed,
        method=method,
        per_trial=tuple(per_trial),
        tally=tally,
        degenerate=finals.count(None),
        modal=modal,
        inconclusive=modal is None,
        nodes=stats["nodes"],
    )


# -- determinant rank oracle ---------------------------------------------------


def si_rank_oracle(
    Q: Quiver,
    beta,
    gamma,
    nv: int | None = None,
    nw: int | None = None,
    field: GF | None = None,
    seed: int = 0,
) -> int:
    """Rank of the evaluation matrix [c^{V_i}(W_j)] on random samples.

    The determinants c^V span the weight space, so the rank is at most
    its dimension, with equality for generic samples.  Given sizes must
    be at least 1.  An omitted size starts at 4 and keeps a margin of 4
    above the rank it sees: while the rank r leaves it below r + 4, it
    becomes r + 4, and only the new samples are drawn and only the new
    entries evaluated.  V_i and W_j are seeded by their own index, so on
    generic samples the last matrix is the one that sizes M + 4 give, M
    the dimension, and the oracle never reads M from the formula it checks.
    """
    gamma = check_dimvector(Q, gamma)  # so that a negative entry is named as such
    beta, alpha, gamma, _ = check_instance(Q, beta, [b + g for b, g in zip(beta, gamma)], "zero")
    if field is None:
        field = GF(101)
    for name, n in (("nv", nv), ("nw", nw)):
        if n is not None and n < 1:
            raise ValueError(f"{name} must be at least 1, got {n}")
    grow_v, grow_w = nv is None, nw is None
    nv = 4 if grow_v else nv
    nw = 4 if grow_w else nw
    base = seed * 1000003
    vs, ws, rows = [], [], []
    while True:
        new_ws = [random_rep(Q, gamma, field, base + 2 * j + 1) for j in range(len(ws), nw)]
        ws += new_ws
        for v, row in zip(vs, rows):
            row += [semiinvariant_cv(Q, v, w) for w in new_ws]
        for i in range(len(vs), nv):
            vs.append(random_rep(Q, beta, field, base + 2 * i))
            rows.append([semiinvariant_cv(Q, vs[i], w) for w in ws])
        rank = mat_rank(field, rows)
        n = rank + 4
        if not (grow_v and nv < n or grow_w and nw < n):
            return rank
        # two omitted sizes stay equal, so neither shrinks here
        nv = n if grow_v else nv
        nw = n if grow_w else nw


# -- basis verification --------------------------------------------------------


@dataclass(frozen=True)
class BasisReport:
    """Outcome of the dual-basis check on one instance."""

    passed: bool
    inconclusive: bool
    reason: str
    k: int | None
    n_expected: int
    m_expected: int
    extension_degree: int | None
    samples_tried: int
    seed: int
    matrix: tuple | None = None


def _subrep_quotient_pair(Q: Quiver, V: FFRep, beta, gamma, sub_bases):
    """Restrict V to a subrepresentation and form the quotient.

    The rows at each vertex must be in reduced echelon form, as every
    listing gives them; this is asserted.  The basis there is the rows,
    then the unit vectors off their pivot columns P.  A vector u of the
    subspace has coordinates u[P] on the rows, and any u has the
    non-pivot entries of u - u[P] R on the unit vectors (R the rows).
    The restriction's columns are the row coordinates of the images of
    the rows, whose unit-vector coordinates are asserted to vanish (the
    subrepresentation condition); the quotient's are the unit-vector
    coordinates of the images of the unit vectors."""
    F = V.field
    alpha = V.dim
    coords = []
    for x in range(Q.nvertices):
        rows = [list(r) for r in sub_bases[x]]
        R, pivots = mat_rref(F, rows)
        assert R == rows and len(pivots) == beta[x], "subspace rows are not a reduced basis"
        free = [c for c in range(alpha[x]) if c not in pivots]
        coords.append((pivots, free, [[r[c] for r in rows] for c in free]))

    def split(x, u):
        pivots, free, Rt = coords[x]
        lam = [u[p] for p in pivots]
        return lam, [F.sub(u[c], s) for c, s in zip(free, mat_vec(F, Rt, lam))]

    sub_mats = []
    quot_mats = []
    for a, (t, h) in enumerate(Q.arrows):
        A = V.mats[a]
        sub_cols = []
        for w in sub_bases[t]:
            y, z = split(h, mat_vec(F, A, w))
            assert all(e == F.zero for e in z), "not actually a subrepresentation"
            sub_cols.append(y)
        quot_cols = [split(h, [row[c] for row in A])[1] for c in coords[t][1]]
        sub_mats.append(tuple(tuple(col[r] for col in sub_cols) for r in range(beta[h])))
        quot_mats.append(tuple(tuple(col[r] for col in quot_cols) for r in range(gamma[h])))
    sub = FFRep(Q, F, beta, tuple(sub_mats))
    quot = FFRep(Q, F, gamma, tuple(quot_mats))
    return sub, quot


_BASIS_SAMPLES = 20  # samples verify_determinant_basis draws before it gives up
_BASIS_MAX_EXT = 4  # the largest extension degree it reads a sample over
_BASIS_BUDGET = 10**7  # the largest point count it enumerates at one degree


def verify_determinant_basis(
    Q: Quiver,
    beta,
    alpha,
    field: GF,
    seed: int = 0,
) -> BasisReport:
    """Check that the semi-invariants attached to the subrepresentations
    of one general sample form a basis of the weight space.

    Samples V over the base field until some extension F_{q^j}, j <=
    `_BASIS_MAX_EXT`, sees exactly N rational subrepresentations (counted
    first, one Frobenius orbit at a time, and listed only at that degree),
    then forms all quotients V/V_i and the evaluation matrix E[i][j] =
    c^{V_i}(V/V_j).  Passing means E is diagonal with nonzero diagonal
    and the count k of subrepresentations equals the weight-space
    dimension: k independent semi-invariants in a k-dimensional space.
    Off-diagonal entries vanish for every sample (V_i maps nontrivially
    to V/V_j); a zero diagonal entry marks a non-generic sample, which is
    retried.  The pairing must be 0 (check_instance).
    """
    beta, alpha, gamma, _ = check_instance(Q, beta, alpha, "zero")
    if not isinstance(field, GF) or field.k != 1:
        raise ValueError("base field must be a prime field (extensions are built internally)")
    counts = verify_counts(Q, beta, alpha)
    samples_tried = 0

    def report(reason: str = "", k: int | None = None, j: int | None = None, E=None) -> BasisReport:
        # no k: no sample got as far as an evaluation matrix
        return BasisReport(
            passed=not reason,
            inconclusive=k is None,
            reason=reason,
            k=k,
            n_expected=counts.n_value,
            m_expected=counts.m_value,
            extension_degree=j,
            samples_tried=samples_tried,
            seed=seed,
            matrix=None if E is None else tuple(tuple(row) for row in E),
        )

    try:
        for s in range(_BASIS_SAMPLES):
            samples_tried = s + 1
            V1 = random_rep(Q, alpha, field, seed * 1000003 + s)
            # lazy: an extension is built only when a sample reaches it
            fields = (GF(field.p, j) for j in range(1, _BASIS_MAX_EXT + 1))
            for Vj, count, listing in _by_degree(Q, V1, beta, fields, _BASIS_BUDGET):
                if count != counts.n_value:
                    continue
                subs = listing()
                Fj, j = Vj.field, Vj.field.k
                pairs = [_subrep_quotient_pair(Q, Vj, beta, gamma, sb) for sb in subs]
                k = len(pairs)
                E = [
                    [semiinvariant_cv(Q, pairs[i][0], pairs[jj][1]) for jj in range(k)]
                    for i in range(k)
                ]
                if any(E[i][jj] != Fj.zero for i in range(k) for jj in range(k) if i != jj):
                    return report("nonzero off-diagonal evaluation (orthogonality violated)", k, j, E)
                if any(E[i][i] == Fj.zero for i in range(k)):
                    break  # non-generic sample; try the next seed
                if k != counts.m_value:
                    return report(f"{k} subrepresentations but weight space has dimension {counts.m_value}", k, j, E)
                return report("", k, j, E)
    except BudgetExceededError as e:
        return report(f"enumeration budget exceeded ({e.points} points) and no solver applies")
    return report("no sample with exactly N rational subrepresentations and nonzero diagonal")
