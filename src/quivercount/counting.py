"""Subrepresentation counts and semi-invariant weight-space dimensions.

Both central quantities are sums over arrow labelings: each arrow a
carries a partition inside the beta(ta) x gamma(ha) rectangle, and each
vertex contributes a Schur-functor multiplicity.  The subrepresentation
count N uses symmetric-side functors with target the full gamma(x)^beta(x)
rectangle; the weight-space dimension M uses exterior powers, evaluated
here through conjugate partitions, so the two differ only in the targets
and factors they feed to the shared LR kernel and summation loop.

The sum is never enumerated labeling by labeling.  One frontier DP
(_labeled_sum) folds the arrows in turn into a map from per-vertex
partial Schur shapes to coefficients, so labelings that reach the same
shapes merge.  What does not depend on the side, the arrow order and the
boxes each arrow brings, is planned once per instance (_plan), and N
and M fold the same plan.  An arrow with no boxes (beta(t) gamma(h) = 0)
has only the empty label, so its step does no work.  A vertex closes
after its last arrow; for N and M its shape must then equal its target,
so the closing arrow takes its one label by a lookup keyed by the
vertex's current shape, not by a scan, and only its other end, if open,
expands.  A closing step reads its lookups, label table and end bounds
as one kit cached by a few small ints (_closing_kit), and while the fold
has a single state, it holds that state as one list key changed in place.
A product with an empty factor is answered with no `expand` (_product):
an empty label leaves the shape, and an empty shape takes the label if
the label fits the vertex's rectangle.  Every other step scans only the
label sizes that can fit: one pass over a rectangle's partitions lists
its labels by size for both sides (_label_table), and a window on the
size, read off the two ends' shapes and the state's carried shortfall,
picks the runs to scan.  The fiber
class runs the same DP with <beta, gamma> boxes of slack: a closed vertex
may fall short of its rectangle, and its missing boxes (the complement of
its shape) key the decomposition of the locus by cohomology class.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cache, lru_cache
from heapq import heapify, heappop, heappush
from itertools import accumulate
from math import comb
from operator import mul, sub
from typing import NamedTuple

from .lr import LREngine
from .partitions import Rectangle, complement, conjugate, fits, partition, partitions_in_rectangle, size
# the pairing errors are re-exported: check_instance raises them for N, M and the fiber class
from .quiver import NegativePairingError, NonzeroPairingError, Quiver, check_dimvector, check_instance, euler_form


def weight_of(Q: Quiver, beta) -> tuple[int, ...]:
    """The character attached to beta: sigma(x) = beta(x) - sum of beta(ta)
    over arrows a with head x.  Entries are routinely negative."""
    beta = check_dimvector(Q, beta)
    sigma = list(beta)
    for t, h in Q.arrows:
        sigma[h] -= beta[t]
    return tuple(sigma)


def _check_key(key, boxes) -> tuple[tuple[int, ...], ...]:
    """key normalized, one partition per vertex inside its (rows, cols) box:
    the mu check of FiberClass.coefficient and of a covariant piece."""
    if len(key) != len(boxes):
        raise ValueError(f"mu has {len(key)} entries, quiver has {len(boxes)} vertices")
    key = tuple(map(partition, key))
    for x, (p, (rows, cols)) in enumerate(zip(key, boxes)):
        if len(p) > rows or (p and p[0] > cols):
            raise ValueError(f"mu({x}) = {p} does not fit in {rows}x{cols}")
    return key


# -- the frontier DP ------------------------------------------------------------


@cache
def _label_table(rect: Rectangle) -> tuple[tuple, tuple, tuple[int, ...]]:
    """(symmetric table, exterior table, starts) for an arrow with
    rectangle `rect`, from one pass over its labels in graded-lex order.

    A table has a row (lambda, tail factor, head factor, |lambda|) per
    label lambda: the tail sees lambda, the head its complement, both
    conjugated on the exterior side; `[conjugated]` picks a side.  Both
    list the same labels in the same order.  The graded order is
    load-bearing: a scanning step reads the labels of size s as rows
    starts[s] .. starts[s + 1] - 1 (starts[|rect| + 1] is the length)."""
    sym, ext = [], []
    starts = [0] * (rect.rows * rect.cols + 2)
    for lam in partitions_in_rectangle(rect):
        comp, s = complement(lam, rect), size(lam)
        sym.append((lam, lam, comp, s))
        ext.append((lam, conjugate(lam), conjugate(comp), s))
        starts[s + 1] += 1
    return tuple(sym), tuple(ext), tuple(accumulate(starts))


@cache
def _closing_kit(
    rect: Rectangle, conjugated: bool, col: int, shut_rows: int, shut_cols: int, keep_rows: int, keep_cols: int,
    both: bool,
) -> tuple:
    """(by_shut, by_keep, table, bound_shut, bound_keep) for a closing step
    of an arrow with rectangle `rect`.  One end, shut_rows x shut_cols,
    closes on its full rectangle; the other, keep_rows x keep_cols, is
    kept and reads its factor from column `col` of the `conjugated` side
    of `_label_table(rect)` (1 tail, 2 head), the closing end from the other.

    by_shut maps the shape of the closing end to the index of the one
    label that completes it: c^R_{lam,mu} is 1 for mu the complement of
    lam in R and 0 otherwise, so the map is one-to-one, and a shape with
    no entry closes with no label.  by_keep is that map for the kept end
    when `both` close (the kept end is then the head), else None.  The
    bounds are the two ends' full rectangles as partitions."""
    table = _label_table(rect)[conjugated]
    side, R = 3 - col, Rectangle(shut_rows, shut_cols)
    by_shut = {complement(row[side], R): i for i, row in enumerate(table) if fits(row[side], R)}
    by_keep = None
    if both:
        R = Rectangle(keep_rows, keep_cols)
        by_keep = {complement(row[2], R): i for i, row in enumerate(table) if fits(row[2], R)}
    bound_shut = (shut_cols,) * shut_rows if shut_cols else ()
    bound_keep = (keep_cols,) * keep_rows if keep_cols else ()
    return by_shut, by_keep, table, bound_shut, bound_keep


def _greedy_arrow_order(Q: Quiver, rect_sizes: tuple[int, ...]) -> list[int]:
    # prefer arrows that finish off a vertex (so its shape is checked
    # early), then arrows with fewer candidate partitions.  An arrow joins
    # the heap when an endpoint gets down to its last open arrow, keyed by
    # (an end not finished off, rect_sizes[a], a) packed into one int; its
    # other end pushes a smaller key, and the stale one is skipped.  When
    # the heap is empty no open arrow finishes off a vertex, and the next
    # is the least by (rect_sizes[a], a).
    arrows = Q.arrows
    m = len(arrows)
    remaining = [0] * Q.nvertices
    open_sum = [0] * Q.nvertices  # sum of the indices of a vertex's open arrows
    for a, (t, h) in enumerate(arrows):
        remaining[t] += 1
        remaining[h] += 1
        open_sum[t] += a
        open_sum[h] += a
    weights = [s * m + a for a, s in enumerate(rect_sizes)]
    span = (max(rect_sizes, default=0) + 1) * m
    heap = [
        (remaining[t] != 1 or remaining[h] != 1) * span + w
        for (t, h), w in zip(arrows, weights)
        if remaining[t] == 1 or remaining[h] == 1
    ]
    heapify(heap)
    by_size = None
    done = [False] * m
    order = []
    pos = 0
    for _ in range(m):
        while heap:
            best = heappop(heap) % m
            if not done[best]:
                break
        else:
            if by_size is None:
                by_size = sorted(range(m), key=weights.__getitem__)
            while done[by_size[pos]]:
                pos += 1
            best = by_size[pos]
        done[best] = True
        order.append(best)
        for x in arrows[best]:
            remaining[x] -= 1
            open_sum[x] -= best
            if remaining[x] == 1:
                last = open_sum[x]
                t, h = arrows[last]
                heappush(heap, (remaining[t] != 1 or remaining[h] != 1) * span + weights[last])
    return order


@cache
def _arrow_shape(b: int, g: int) -> tuple[Rectangle, int, int]:
    """(label rectangle, boxes, labels) of an arrow with beta(t) = b and
    gamma(h) = g: the b x g rectangle, its b g boxes and its binom(b + g, b)
    partitions."""
    return Rectangle(b, g), b * g, comb(b + g, b)


class _Plan(NamedTuple):
    """The part of the frontier DP that N, M and the fiber class share.

    `steps` lists the arrows in fold order as (a, t, h, cap, left[t]
    after, left[h] after, rectangle), where cap = beta(t) gamma(h) is the
    number of boxes arrow a brings to each end and left[x] counts the
    boxes that the arrows not yet folded can still bring to vertex x."""

    beta: tuple[int, ...]
    gamma: tuple[int, ...]
    full: tuple[int, ...]  # beta(x) gamma(x), the boxes of vertex x's target
    left: tuple[int, ...]  # left[x] before the first arrow
    steps: tuple[tuple, ...]
    shortfall: int  # boxes the arrows cannot supply to vertices that start empty


def _plan(Q: Quiver, beta, gamma, orders: dict | None = None) -> _Plan:
    """Plan the fold of a checked instance.  The arrow order depends only
    on Q and the label counts binom(beta(t) + gamma(h), beta(t)), which are
    the same on both sides, so one plan serves both routes.  `orders`, a
    caller's memo of Q's arrow orders keyed by the label-count tuple, is
    read first and gets the order when it has none."""
    arrows = Q.arrows
    shapes = [_arrow_shape(beta[t], gamma[h]) for t, h in arrows]
    left = [0] * Q.nvertices
    for (t, h), (_, cap, _) in zip(arrows, shapes):
        left[t] += cap
        left[h] += cap
    before = tuple(left)
    counts = tuple([labels for _, _, labels in shapes])
    if orders is None:
        order = _greedy_arrow_order(Q, counts)
    elif (order := orders.get(counts)) is None:
        order = orders[counts] = _greedy_arrow_order(Q, counts)
    steps = []
    for a in order:
        t, h = arrows[a]
        rect, cap, _ = shapes[a]
        left[t] -= cap
        left[h] -= cap
        steps.append((a, t, h, cap, left[t], left[h], rect))
    full = tuple(map(mul, beta, gamma))
    shortfall = sum(map(sub, full, map(min, full, before)))  # sum of max(0, full - left)
    return _Plan(beta, gamma, full, before, tuple(steps), shortfall)


# fiber_class plans here, and the covariant_multiplicity calls on its pieces
# hit; N and M plan uncached, as a cache there only hashes for no hit.
_piece_plan = lru_cache(maxsize=8)(_plan)


def _product(engine: LREngine, cur: tuple[int, ...], f: tuple[int, ...], bound: tuple[int, ...]) -> tuple:
    """engine.expand(cur, f, bound) for a state shape `cur` inside the
    rectangle `bound`, answered with no call when a factor is empty: the
    shape alone, or the factor alone if it fits the rectangle."""
    if not f:
        return ((cur, 1),)
    if not cur:
        return ((f, 1),) if len(f) <= len(bound) and f[0] <= bound[0] else ()
    return engine.expand(cur, f, bound)


def _labeled_sum(
    plan: _Plan,
    engine: LREngine,
    conjugated: bool = False,
    start=None,
    slack: int = 0,
    collect: bool = False,
) -> tuple[dict[tuple, int], int]:
    """Sum over arrow labelings of the product of per-vertex multiplicities,
    folded one arrow at a time in the order of `plan`.

    Vertex x multiplies the factors its arrows hand it into a Schur shape
    inside its target, the full gamma(x)^beta(x) rectangle, or its
    conjugate on the exterior side (`conjugated`).  `start` gives each
    vertex's shape before any arrow (the covariant factor); by default
    all shapes start empty.  A state maps the tuple of per-vertex shapes
    to a coefficient.  A vertex falls short of its target by the boxes
    that its unprocessed arrows can no longer supply; states whose
    shortfalls add up to more than `slack` are dropped.

    An arrow with cap 0 has the empty label only, which changes no
    shape, so its step does no work.  With slack 0 every vertex closes on
    its target after its last arrow, and c^R_{lam,mu} is 1 for mu the
    complement of lam in the rectangle R and 0 otherwise.  So a step
    whose arrow closes an end only looks up: each state takes the one
    label that completes the closing end's shape (when both ends close,
    the two lookups must agree), the closed vertex takes its target with
    no `expand`, and only the other end, if open, is size-checked and
    expanded.  A product with an empty factor, at a closing step or at
    either end of a scanning step, is answered with no `expand`
    (`_product`).  The step reads its lookup maps, label table and the two
    ends' bounds in one call (`_closing_kit`), cached by the arrow's
    rectangle, the side, the kept end's column, the two ends' rows and
    columns and whether both close.  A closing step fed by one state
    holds it as a list key and one coefficient: while each step gives one
    term, it writes the closed end's bound, the kept end's shape and (when
    collecting) the label index into the list in place, and hashes
    nothing.  The state becomes a map again when an `expand` gives several
    terms or a scanning step comes; a map shrunk to one key is held again
    at the next closing step.

    Every other step, and every step with slack, is a scanning step:
    both ends take every label whose size keeps them inside their
    targets and the state within its slack.  The label table is graded,
    so the step reads only the rows of the sizes in that window (the
    table's `starts`); the window is exact when the state has no spare
    boxes, and otherwise the summed shortfall of the two ends is checked
    per label.  Each state carries its total shortfall, so the other
    vertices' share is one subtraction, not a sum over them.

    With `collect`, each arrow's label index joins the key, so labelings
    never merge and every final state is one nonzero summand.

    Returns (final states, states created).  Final keys are per-vertex
    shape tuples, followed when collecting by the label indices in arrow
    order; coefficients are positive.
    """
    n = len(plan.beta)
    rows, cols = (plan.gamma, plan.beta) if conjugated else (plan.beta, plan.gamma)
    full = plan.full

    if start:
        shapes = tuple(start)
        shortfall = sum(max(0, f - sum(s) - l) for f, s, l in zip(full, shapes, plan.left))
    else:
        shapes = ((),) * n
        shortfall = plan.shortfall
    if shortfall > slack:
        return {}, 0
    if collect:
        # slot n + a of the key holds arrow a's label index (sorted, the
        # steps are in arrow order); an arrow with cap 0 is never folded
        # in, and its one label is at index 0
        shapes += tuple(None if cap else 0 for _, _, _, cap, *_ in sorted(plan.steps))
    state = {shapes: 1}
    short = {shapes: shortfall} if shortfall else {}  # a state's total shortfall, when not 0
    created = 1
    held = None  # the lone state's key as a list changed in place, with coefficient `coeff`
    for a, t, h, cap, left_t, left_h, rect in plan.steps:
        if not cap:
            created += 1 if held is not None else len(state)
            continue
        nxt: dict[tuple, int] = {}
        if not slack and not (left_t and left_h):
            # a closing step: the end that closes (the tail when both do)
            # takes its one label by lookup, and only the other end, if
            # open, expands; when both close, the two lookups must agree
            if left_t:
                shut, keep, col, left_keep = h, t, 1, left_t
            else:
                shut, keep, col, left_keep = t, h, 2, left_h
            by_shut, by_keep, table, bound_shut, bound_keep = _closing_kit(
                rect, conjugated, col, rows[shut], cols[shut], rows[keep], cols[keep], not left_keep
            )
            need, room = full[keep] - left_keep, full[keep]
            if held is None and len(state) == 1:
                # a lone state is held: its key becomes a list that each
                # closing step with one term changes in place
                ((key, coeff),) = state.items()
                held = list(key)
            for key, coeff in state.items() if held is None else ((held, coeff),):
                i = by_shut.get(key[shut])
                if i is None:
                    continue
                if by_keep is None:
                    row = table[i]
                    cur = key[keep]
                    grown = sum(cur) + (row[3] if col == 1 else cap - row[3])
                    if not need <= grown <= room:
                        continue
                    terms = _product(engine, cur, row[col], bound_keep)
                elif by_keep.get(key[keep]) == i:
                    terms = ((bound_keep, 1),)
                else:
                    continue
                # a held key is changed in place; it is given up when its
                # state branches, so its list serves the new keys
                k = list(key) if held is None else held
                k[shut] = bound_shut
                if collect:
                    k[n + a] = i
                if held is not None and len(terms) == 1:
                    # the state stays held; nxt None marks that
                    ((k[keep], c),) = terms
                    coeff *= c
                    nxt = None
                    continue
                for nu, c in terms:
                    k[keep] = nu
                    nk = tuple(k)
                    nxt[nk] = nxt.get(nk, 0) + coeff * c
            if nxt is None:
                created += 1
                continue
            held = None  # the state branched, is a map or is gone
        else:
            if held is not None:
                state, held = {tuple(held): coeff}, None
            # a scanning step.  A label of size s leaves t short of its
            # target by ut - s and h by uh + s, where positive; before the
            # step they were short by ut - cap and uh.  `short` carries each
            # state's total shortfall (absent when 0), so the other
            # vertices' share is that total less t's and h's.  The labels
            # that keep t within full[t], h within full[h] and each end's
            # shortfall within the spare boxes are the rows of the sizes in
            # [lo, hi] (the table is graded); with spare boxes the summed
            # shortfall is still checked per label.  Plain comparisons clamp
            # the window: max() and min() calls cost more in this loop.
            need_t, need_h = full[t] - left_t, full[h] - left_h
            fill_t, fill_h = full[t], full[h] - cap  # s <= fill_t - st, s >= sh - fill_h
            bound_t = (cols[t],) * rows[t] if cols[t] else ()  # full r x c rectangles
            bound_h = (cols[h],) * rows[h] if cols[h] else ()
            labels = _label_table(rect)
            table, starts = labels[conjugated], labels[2]
            nshort: dict[tuple, int] = {}
            for key, coeff in state.items():
                cur_t, cur_h = key[t], key[h]
                st, sh = sum(cur_t), sum(cur_h)
                ut, uh = need_t - st, need_h - cap - sh
                others = short.get(key, 0) if short else 0
                others -= (ut - cap if ut > cap else 0) + (uh if uh > 0 else 0)
                spare = slack - others
                lo, hi = ut - spare, spare - uh
                if lo < sh - fill_h:
                    lo = sh - fill_h
                if lo < 0:
                    lo = 0
                if hi > fill_t - st:
                    hi = fill_t - st
                if hi > cap:
                    hi = cap
                if lo > hi:
                    continue
                k = list(key)
                for i in range(starts[lo], starts[hi + 1]):
                    _, ft, fh, s = table[i]
                    lack = (ut - s if ut > s else 0) + (uh + s if uh + s > 0 else 0)
                    if lack > spare:
                        continue
                    # the head expands once per label, and only if the tail can
                    terms_t = _product(engine, cur_t, ft, bound_t)
                    if not terms_t:
                        continue
                    terms_h = _product(engine, cur_h, fh, bound_h)
                    lack += others
                    if collect:
                        k[n + a] = i
                    for nu_t, c_t in terms_t:
                        k[t] = nu_t
                        c_t *= coeff
                        for nu_h, c_h in terms_h:
                            k[h] = nu_h
                            nk = tuple(k)
                            nxt[nk] = nxt.get(nk, 0) + c_t * c_h
                            if lack:
                                nshort[nk] = lack
            short = nshort
        state = nxt
        created += len(state)
        if not state:
            break
    if held is not None:
        state = {tuple(held): coeff}
    return state, created


def _count(plan: _Plan, engine: LREngine, conjugated: bool, breakdown: bool = False):
    """(total, states created, breakdown) of N, or of M when `conjugated`.

    Breakdown entries list the nonzero summands in canonical order:
    arrows by index, partitions in graded-lex order per arrow."""
    final, states = _labeled_sum(plan, engine, conjugated, collect=breakdown)
    rows = ()
    if breakdown:
        n = len(plan.beta)
        tables = {a: _label_table(rect)[conjugated] for a, *_, rect in plan.steps}
        rows = tuple(
            (tuple(tables[a][i][0] for a, i in enumerate(key[n:])), c)
            for key, c in sorted(final.items(), key=lambda item: item[0][n:])
        )
    return sum(final.values()), states, rows


def count_subreps_detailed(
    Q: Quiver, beta, alpha, engine: LREngine | None = None, breakdown: bool = False
) -> tuple[int, int, tuple]:
    """(N, DP states created, optional nonzero-summand breakdown)."""
    beta, _, gamma, _ = check_instance(Q, beta, alpha, "zero")
    return _count(_plan(Q, beta, gamma), engine or LREngine(), False, breakdown)


def count_subreps(Q: Quiver, beta, alpha, engine: LREngine | None = None) -> int:
    """Number of beta-dimensional subrepresentations of a general
    alpha-dimensional representation, finite exactly at Euler pairing
    <beta, alpha - beta> = 0, which check_instance requires."""
    return count_subreps_detailed(Q, beta, alpha, engine)[0]


def si_dimension_detailed(Q: Quiver, beta, alpha, engine: LREngine | None = None) -> tuple[int, int]:
    """(M, DP states created)."""
    beta, _, gamma, _ = check_instance(Q, beta, alpha, "zero")
    return _count(_plan(Q, beta, gamma), engine or LREngine(), True)[:2]


def si_dimension(Q: Quiver, beta, alpha, engine: LREngine | None = None) -> int:
    """Dimension of the space of semi-invariants on Rep(Q, alpha - beta)
    of weight sigma = weight_of(Q, beta)."""
    return si_dimension_detailed(Q, beta, alpha, engine)[0]


# -- fiber class --------------------------------------------------------------


@dataclass(frozen=True)
class FiberClass:
    """Decomposition of the class of the subrepresentation locus.

    coeffs maps a per-vertex partition tuple mu (each inside its vertex
    rectangle) to a positive coefficient; the underlying cohomology term
    is the product over vertices of the class complementary to mu(x).
    states counts the DP states the fold created; it is not compared.
    """

    ambients: tuple[Rectangle, ...]
    coeffs: dict[tuple[tuple[int, ...], ...], int]
    states: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        n = len(self.ambients)
        for key, c in self.coeffs.items():
            if c <= 0:
                raise ValueError("fiber class stores positive coefficients only")
            if len(key) != n:
                raise ValueError(f"mu has {len(key)} entries, quiver has {n} vertices")
        # each distinct (entry, rectangle) pair is checked once
        for mu_x, rect in {pair for key in self.coeffs for pair in zip(key, self.ambients)}:
            if not fits(mu_x, rect):
                raise ValueError(f"key entry {mu_x} outside rectangle {rect}")

    def coefficient(self, key: tuple[tuple[int, ...], ...]) -> int:
        """The coefficient of the piece key, 0 when absent; a key that
        cannot be a piece raises ValueError, as in covariant_count."""
        return self.coeffs.get(_check_key(key, self.ambients), 0)

    def sorted_items(self):
        return sorted(self.coeffs.items())


def fiber_class(Q: Quiver, beta, alpha, engine: LREngine | None = None) -> FiberClass:
    """Expand the product over arrows of sum_lambda [lambda]_ta [comp]_ha
    inside the tensor product of the per-vertex Grassmannian rings.

    Keys are complement tuples: the stored key mu has mu(x) complementary
    (in the vertex rectangle) to the partition whose class appears, so a
    zero pairing leaves the single all-empty key with coefficient N.  A
    negative pairing has no class: check_instance raises for it."""
    beta, _, gamma, pairing = check_instance(Q, beta, alpha, "nonnegative")
    ambients = tuple(Rectangle(b, g) for b, g in zip(beta, gamma))
    final, states = _labeled_sum(_piece_plan(Q, beta, gamma), engine or LREngine(), slack=pairing)
    coeffs: dict[tuple[tuple[int, ...], ...], int] = {}
    comps: dict[tuple, tuple] = {}  # (shape, rectangle) -> (complement, its size)
    for shapes, c in final.items():
        mu = []
        total = 0
        for entry in zip(shapes, ambients):
            comp = comps.get(entry)
            if comp is None:
                p = complement(*entry)
                comp = comps[entry] = p, sum(p)
            mu.append(comp[0])
            total += comp[1]
        if total != pairing:
            raise AssertionError("fiber class term of wrong codimension")
        coeffs[tuple(mu)] = c
    return FiberClass(ambients, coeffs, states)


# -- verification and instance builders ---------------------------------------


@dataclass(frozen=True)
class CountReport:
    """Both counts computed by their separate routes, plus context.

    n_labelings and m_labelings count the DP states each route created."""

    beta: tuple[int, ...]
    alpha: tuple[int, ...]
    euler_pairing: int
    n_value: int
    m_value: int
    n_labelings: int
    m_labelings: int

    @property
    def passed(self) -> bool:
        return self.n_value == self.m_value


def verify_counts(Q: Quiver, beta, alpha, engine: LREngine | None = None) -> CountReport:
    """Compute the subrepresentation count and the weight-space dimension
    independently and report whether they agree."""
    beta, alpha, gamma, pairing = check_instance(Q, beta, alpha, "zero")
    engine = engine or LREngine()
    plan = _plan(Q, beta, gamma)
    n, nstates, _ = _count(plan, engine, False)
    m, mstates, _ = _count(plan, engine, True)
    return CountReport(
        beta=beta,
        alpha=alpha,
        euler_pairing=pairing,
        n_value=n,
        m_value=m,
        n_labelings=nstates,
        m_labelings=mstates,
    )


@cache
def _triple_flag_frame(n: int) -> tuple[Quiver, tuple[int, ...]]:
    """The quiver and alpha of the n-dimensional triple flag: three inward
    arms of n-1 vertices, arm k holding vertices k(n-1) .. k(n-1)+n-2 in
    order, then the center 3(n-1).  Both depend on n alone."""
    arm_len = n - 1
    center = 3 * arm_len
    arrows = []
    if arm_len:
        for base in (0, arm_len, 2 * arm_len):
            arrows += [(base + j, base + j + 1) for j in range(arm_len - 1)]
            arrows.append((base + arm_len - 1, center))
    return Quiver(center + 1, tuple(arrows)), (*range(1, n), *range(1, n), *range(1, n), n)


def triple_flag_instance(
    lam, mu, nu, r: int, n: int, engine: LREngine | None = None
) -> tuple[Quiver, tuple[int, ...], tuple[int, ...], int]:
    """Three flags meeting a central n-dimensional space.

    Builds the quiver with three arms of n-1 vertices each, arrows
    oriented inward, alpha increasing 1..n-1 along each arm with n at the
    center, and beta jumping at the positions prescribed by the three
    partitions.  The returned expected value is the LR coefficient
    c_{lam,mu}^{complement of nu}, which the subrepresentation count must
    reproduce.

    The quiver depends on n alone, so every call with the same n returns
    the same (immutable) Quiver object.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= n, got r={r}, n={n}")
    rect = Rectangle(r, n - r)
    lam, mu, nu = partition(lam), partition(mu), partition(nu)
    for p in (lam, mu, nu):
        if not fits(p, rect):
            raise ValueError(f"partition {p} does not fit in {r}x{n-r}")
    if size(lam) + size(mu) + size(nu) != r * (n - r):
        raise ValueError(
            f"sizes {size(lam)}+{size(mu)}+{size(nu)} != r(n-r) = {r*(n-r)}"
        )
    engine = engine or LREngine()

    Q, alpha = _triple_flag_frame(n)
    beta = []
    for p in (lam, mu, nu):
        # On an arm, beta at position j counts the i in 1..r whose jump
        # n - r - p_i + i is at most j.  The jumps strictly increase (p is
        # weakly decreasing), so beta steps from k to k+1 at jump k+1.
        arm: list[int] = []
        for k in range(r):
            jump = n - r - (p[k] if k < len(p) else 0) + k + 1
            arm += [k] * (jump - 1 - len(arm))
        arm += [r] * (n - 1 - len(arm))
        beta += arm
    beta.append(r)

    expected = engine.lr_coefficient(lam, mu, complement(nu, rect))
    return Q, tuple(beta), alpha, expected


# -- suite generators ----------------------------------------------------------

_INSTANCE_TRIES = 100000  # rejection budget of random_instance
_TRIPLE_TRIES = 1000000  # rejection budget of random_zero_triple


def random_instance(
    rng: random.Random,
    max_verts: int = 4,
    max_arrows: int = 4,
    max_dim: int = 3,
    min_arrows: int = 0,
    require_zero_pairing: bool = True,
):
    """Seeded random (quiver, beta, alpha) with vanishing Euler pairing of
    beta against alpha - beta.

    Pure rejection sampling almost always lands on degenerate instances
    (beta or gamma zero wherever arrows touch), so after drawing gamma we
    try to repair a single coordinate: the pairing is linear in gamma(y)
    with coefficient sigma(y), so any vertex with sigma(y) dividing the
    defect gives an exact fix.
    """
    def draw(lo_weight: float) -> int:
        # zeros allowed but downweighted, else whole arrow components go dead
        if rng.random() < lo_weight:
            return 0
        return rng.randint(1, max_dim)

    lo_nv = 2 if min_arrows > 0 else 1
    for _ in range(_INSTANCE_TRIES):
        nv = rng.randint(lo_nv, max_verts)
        arrows = []
        for _ in range(rng.randint(min_arrows, max_arrows)):
            for _ in range(20):
                t = rng.randrange(nv)
                h = rng.randrange(nv)
                if t != h:
                    break
            else:
                continue
            if t > h:
                t, h = h, t
            arrows.append((t, h))
        Q = Quiver(nv, tuple(arrows))
        beta = [draw(0.2) for _ in range(nv)]
        gamma = [draw(0.2) for _ in range(nv)]
        if not require_zero_pairing:
            return Q, tuple(beta), tuple(b + g for b, g in zip(beta, gamma))
        pairing = euler_form(Q, tuple(beta), tuple(gamma))
        if pairing != 0:
            # linear in each single coordinate, so look for one whose
            # coefficient divides the defect and lands back in range
            sigma = weight_of(Q, tuple(beta))
            tau = [
                gamma[y] - sum(gamma[h] for t, h in Q.arrows if t == y)
                for y in range(nv)
            ]
            choices = [(0, y) for y in range(nv)] + [(1, y) for y in range(nv)]
            rng.shuffle(choices)
            for side, y in choices:
                coeff = sigma[y] if side == 0 else tau[y]
                if coeff == 0 or pairing % coeff != 0:
                    continue
                vec = gamma if side == 0 else beta
                fixed = vec[y] - pairing // coeff
                if 0 <= fixed <= max_dim:
                    vec[y] = fixed
                    pairing = 0
                    break
            if pairing != 0:
                continue
        alpha = tuple(b + g for b, g in zip(beta, gamma))
        return Q, tuple(beta), alpha
    raise RuntimeError("no instance found within the rejection budget")


def random_zero_triple(
    rng: random.Random,
    max_verts: int = 3,
    max_arrows: int = 3,
    max_dim: int = 2,
):
    """Seeded (quiver, beta, gamma, delta) with all three pairwise Euler
    pairings zero, for the multiplicativity identity."""
    for _ in range(_TRIPLE_TRIES):
        nv = rng.randint(1, max_verts)
        arrows = []
        for _ in range(rng.randint(0, max_arrows)):
            t = rng.randrange(nv)
            h = rng.randrange(nv)
            if t == h:
                continue
            if t > h:
                t, h = h, t
            arrows.append((t, h))
        Q = Quiver(nv, tuple(arrows))
        beta = tuple(rng.randint(0, max_dim) for _ in range(nv))
        gamma = tuple(rng.randint(0, max_dim) for _ in range(nv))
        delta = tuple(rng.randint(0, max_dim) for _ in range(nv))
        if euler_form(Q, beta, gamma) != 0:
            continue
        if euler_form(Q, beta, delta) != 0:
            continue
        if euler_form(Q, gamma, delta) != 0:
            continue
        return Q, beta, gamma, delta
    raise RuntimeError("no triple found within the rejection budget")
