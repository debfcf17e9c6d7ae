"""Reference code for the LR kernel's tests: Schubert classes in one
Grassmannian, their product through `LREngine.expand`, tensor
multiplicities of Schur functors folded from `expand`, and Schur
polynomials by direct tableau enumeration.  No library path uses any of
it; the tests check `expand`, `lr_coefficient` and the counting formulas
against it.

`ReferenceEngine` is an `LREngine` with the three reference methods, so
a test's engine shares its memo tables with the counts it checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from quivercount.lr import LREngine
from quivercount.partitions import Rectangle, fits, partition, size


@dataclass
class SchubertElement:
    """Integer combination of Schubert classes in one Grassmannian factor.

    Keys fit inside `ambient`; zero coefficients are never stored.
    """

    ambient: Rectangle
    coeffs: dict[tuple[int, ...], int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for lam, c in self.coeffs.items():
            if not fits(lam, self.ambient):
                raise ValueError(f"class {lam} outside ambient {self.ambient}")
            if c == 0:
                raise ValueError(f"zero coefficient stored for {lam}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SchubertElement):
            return NotImplemented
        return self.ambient == other.ambient and self.coeffs == other.coeffs


def schubert_class(ambient: Rectangle, lam: tuple[int, ...]) -> SchubertElement:
    """The single class [lam], or the zero element if lam falls outside."""
    lam = partition(lam)
    if not fits(lam, ambient):
        return SchubertElement(ambient, {})
    return SchubertElement(ambient, {lam: 1})


def rectangle_partition(rect: Rectangle) -> tuple[int, ...]:
    """The full-rectangle partition (cols repeated rows times)."""
    if rect.cols == 0:
        return ()
    return (rect.cols,) * rect.rows


class ReferenceEngine(LREngine):
    """`LREngine` plus the Schubert product, tensor multiplicities and the
    Schur polynomial oracle."""

    def schubert_multiply(self, a: SchubertElement, b: SchubertElement) -> SchubertElement:
        """Product in the cohomology of one Grassmannian.

        Classes outside the ambient rectangle are discarded.
        """
        if a.ambient != b.ambient:
            raise ValueError(f"ambient mismatch: {a.ambient} vs {b.ambient}")
        rect = a.ambient
        bound = rectangle_partition(rect)
        out: dict[tuple[int, ...], int] = {}
        for lam, ca in a.coeffs.items():
            for mu, cb in b.coeffs.items():
                for nu, c in self.expand(lam, mu, bound):
                    v = out.get(nu, 0) + ca * cb * c
                    if v:
                        out[nu] = v
                    else:
                        out.pop(nu, None)
        return SchubertElement(rect, out)

    def tensor_multiplicity(
        self,
        target: tuple[int, ...],
        factors: list[tuple[int, ...]],
    ) -> int:
        """Multiplicity of S^target in S^{f_0} (x) ... (x) S^{f_{k-1}}.

        Folds left to right, pruning every intermediate shape not contained
        in target.  The empty factor list is the trivial functor.
        """
        target = partition(target)
        factors = [partition(f) for f in factors]
        if sum(size(f) for f in factors) != size(target):
            return 0
        key = (target, tuple(factors))
        cached = self._tensor_memo.get(key)
        if cached is not None:
            return cached
        state: dict[tuple[int, ...], int] = {(): 1}
        for f in factors:
            nxt: dict[tuple[int, ...], int] = {}
            for cur, coeff in state.items():
                for nu, c in self.expand(cur, f, target):
                    nxt[nu] = nxt.get(nu, 0) + coeff * c
            state = nxt
            if not state:
                break
        val = state.get(target, 0)
        self._tensor_memo[key] = val
        return val

    def schur_polynomial(
        self, lam: tuple[int, ...], nvars: int
    ) -> dict[tuple[int, ...], int]:
        """Monomial expansion of the Schur polynomial s_lam(x_1..x_nvars).

        Enumerates semistandard tableaux directly; intended as a slow
        independent check of the LR expansion, hence the small-variable cap.
        """
        lam = partition(lam)
        if nvars < len(lam):
            raise ValueError(f"need nvars >= {len(lam)} for shape {lam}")
        if nvars > 8:
            raise ValueError("schur_polynomial capped at 8 variables")
        out: dict[tuple[int, ...], int] = {}
        if not lam:
            out[(0,) * nvars] = 1
            return out
        nrows = len(lam)
        grid = [[0] * lam[r] for r in range(nrows)]
        expo = [0] * nvars

        cells = [(r, c) for r in range(nrows) for c in range(lam[r])]

        def rec(i: int) -> None:
            if i == len(cells):
                key = tuple(expo)
                out[key] = out.get(key, 0) + 1
                return
            r, c = cells[i]
            left = grid[r][c - 1] if c > 0 else 1
            above = grid[r - 1][c] if r > 0 else 0
            for v in range(max(left, above + 1), nvars + 1):
                grid[r][c] = v
                expo[v - 1] += 1
                rec(i + 1)
                expo[v - 1] -= 1
            grid[r][c] = 0

        rec(0)
        return out
