"""Littlewood-Richardson engine.

Products S^lam (x) S^mu inside a bounding shape are built by adding the
rows of the factor with fewer rows to the other as horizontal strips.
LR coefficients are counted by backtracking over skew tableaux, code the
products do not share.  All counts are plain Python ints (arbitrary
precision).

Memoization tables live on an engine instance, not in module globals:
callers that pass one engine share its tables, and nothing else does.
"""

from __future__ import annotations

from .partitions import contains, partition, size


class LREngine:
    """Littlewood-Richardson kernel with per-instance memo tables.

    `expand` adds horizontal strips; `lr_coefficient` counts tableaux.
    """

    def __init__(self) -> None:
        self._lr_memo: dict[tuple, int] = {}
        self._expand_memo: dict[tuple, tuple] = {}
        self._tensor_memo: dict[tuple, int] = {}  # bench/layertrace.py reads it until ROADMAP item 5c

    # -- LR coefficients ---------------------------------------------------

    def lr_coefficient(
        self,
        lam: tuple[int, ...],
        mu: tuple[int, ...],
        nu: tuple[int, ...],
    ) -> int:
        """c_{lam,mu}^{nu}: LR skew tableaux of shape nu/lam and content mu.

        Zero whenever |lam| + |mu| != |nu| or lam (or mu) is not contained
        in nu.
        """
        lam, mu, nu = partition(lam), partition(mu), partition(nu)
        if size(lam) + size(mu) != size(nu):
            return 0
        if not (contains(nu, lam) and contains(nu, mu)):
            return 0
        key = (lam, mu, nu)
        cached = self._lr_memo.get(key)
        if cached is not None:
            return cached
        val = self._count_lr_tableaux(lam, mu, nu)
        self._lr_memo[key] = val
        return val

    @staticmethod
    def _count_lr_tableaux(
        lam: tuple[int, ...],
        mu: tuple[int, ...],
        nu: tuple[int, ...],
    ) -> int:
        """Backtracking count of fillings of nu/lam with content mu.

        Cells are visited in reverse reading order (rows top to bottom,
        right to left inside a row) so the lattice-word condition can be
        enforced incrementally: placing value v keeps every prefix with
        count(v) <= count(v-1).  The search runs on an explicit stack:
        cell i tries v, the cells before it hold their values in grid
        (inner cells read 0), and tops[i] bounds cell i from its right.
        """
        # (row, column, a skew cell at its right, a cell above it)
        cells = [
            (r, c, c + 1 < nu[r], r > 0 and c < nu[r - 1])
            for r in range(len(nu))
            for c in range(nu[r] - 1, (lam[r] if r < len(lam) else 0) - 1, -1)
        ]
        last = len(cells) - 1
        if last < 0:
            return 1
        nvals = len(mu)
        grid = [[0] * k for k in nu]
        need = [0, *mu]  # need[v] = v's still to place, 1-based
        # counts[v] = v's placed; counts[0] exceeds them, so 1 always fits
        counts = [last + 2] + [0] * nvals
        tops = [nvals] * (last + 1)
        total = 0
        i, v = 0, 1
        while True:
            if v > tops[i]:
                if not i:
                    return total
                i -= 1
                r, c, _, _ = cells[i]
                v = grid[r][c]
                counts[v] -= 1
                need[v] += 1
            elif need[v] and counts[v] < counts[v - 1]:
                if i == last:
                    total += 1
                else:
                    r, c, _, _ = cells[i]
                    grid[r][c] = v
                    counts[v] += 1
                    need[v] -= 1
                    i += 1
                    # weakly increasing along the row, strictly down columns
                    r, c, right, above = cells[i]
                    tops[i] = grid[r][c + 1] if right else nvals
                    v = grid[r - 1][c] if above else 0
            v += 1

    # -- products ----------------------------------------------------------

    def expand(
        self,
        lam: tuple[int, ...],
        mu: tuple[int, ...],
        bound: tuple[int, ...],
    ) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Expansion of S^lam (x) S^mu, keeping only shapes inside `bound`.

        Returns ((nu, c_{lam,mu}^{nu}), ...) over partitions nu contained in
        the bounding partition, with nonzero coefficients only, in
        lexicographic order of nu.  c^nu_{lam,mu} = c^nu_{mu,lam}, so the
        factor with fewer rows is the one added as strips, to the other:
        below, mu is that factor.  Row i of mu is added to lam as a
        horizontal strip of i's inside `bound` (Fulton, Young Tableaux, 5).
        Read right to left, a row puts its (i+1)'s before its i's, so the
        (i+1)'s in rows <= r may never outnumber the i's in rows < r.  A
        state is (shape, i's in rows < r for every r); equal states merge.
        The memo is keyed by the unordered pair: both orders of the factors
        read and store one entry.  Malformed partitions raise ValueError;
        lists and other iterables give the answer of their normalized tuples.
        """
        try:
            key = (lam, mu, bound) if lam >= mu else (mu, lam, bound)
            cached = self._expand_memo.get(key)
        except TypeError:  # an unhashable or unordered argument, such as a list
            return self.expand(partition(lam), partition(mu), partition(bound))
        if cached is not None:
            return cached
        lam, mu, bound = partition(lam), partition(mu), partition(bound)
        if len(mu) > len(lam):
            lam, mu = mu, lam
        states = {(lam, (size(mu),) * len(bound)): 1} if contains(bound, lam) else {}
        for m in mu:
            nxt: dict[tuple, int] = {}
            for (shape, allow), c in states.items():
                for state in _strips(shape, m, bound, allow):
                    nxt[state] = nxt.get(state, 0) + c
            states = nxt
        out: dict[tuple[int, ...], int] = {}
        for (nu, _), c in states.items():
            out[nu] = out.get(nu, 0) + c
        result = tuple(sorted(out.items()))
        self._expand_memo[key] = result
        return result


def _strips(shape, m, bound, allow):
    """Horizontal strips of m boxes added to `shape` inside `bound` that
    put at most allow[r] boxes in rows <= r, as (new shape, the strip's
    boxes in rows < r for every row r of `bound`)."""
    top = min(len(shape) + 1, len(bound))
    old = shape + (0,)
    partial = [((), (), 0)]  # (rows of the new shape, boxes above each, boxes so far)
    for r in range(top):
        free = (min(bound[r], old[r - 1]) if r else bound[0]) - old[r]
        partial = [
            (rows + (old[r] + k,), above + (c,), c + k)
            for rows, above, c in partial
            for k in range(min(free, m - c, allow[r] - c) + 1)
        ]
    pad = (m,) * (len(bound) - top)
    return [(rows if rows[-1] else rows[:-1], above + pad) for rows, above, c in partial if c == m]

