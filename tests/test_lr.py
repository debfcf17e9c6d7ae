import hashlib
import itertools
import threading

import pytest

from lr_reference import ReferenceEngine, SchubertElement, rectangle_partition, schubert_class
from quivercount.counting import fiber_class, triple_flag_instance, verify_counts
from quivercount.covariants import covariant_multiplicity
from quivercount.lr import LREngine
from quivercount.partitions import (
    Rectangle,
    complement,
    conjugate,
    contains,
    partitions_in_rectangle,
    size,
)
from quivercount.quiver import Quiver


def partitions_of(n: int, max_rows: int = 6):
    out = []

    def rec(prefix, maxpart, left):
        if left == 0:
            out.append(tuple(prefix))
            return
        if len(prefix) == max_rows:
            return
        for p in range(min(maxpart, left), 0, -1):
            prefix.append(p)
            rec(prefix, p, left - p)
            prefix.pop()

    rec([], n, n)
    return out


def test_lr_pins(engine):
    assert engine.lr_coefficient((1,), (1,), (2,)) == 1
    assert engine.lr_coefficient((1,), (1,), (1, 1)) == 1
    assert engine.lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2
    assert engine.lr_coefficient((2,), (1,), (2, 1)) == 1
    # size mismatch and non-containment are zero, not errors
    assert engine.lr_coefficient((2,), (1,), (2,)) == 0
    assert engine.lr_coefficient((3,), (1,), (2, 2)) == 0


def test_lr_empty_cases(engine):
    assert engine.lr_coefficient((), (), ()) == 1
    assert engine.lr_coefficient((2, 1), (), (2, 1)) == 1
    assert engine.lr_coefficient((), (2, 1), (2, 1)) == 1


def test_lr_symmetry_small(engine):
    shapes = [lam for n in range(5) for lam in partitions_of(n)]
    for lam, mu in itertools.product(shapes, repeat=2):
        for nu in partitions_of(size(lam) + size(mu)):
            assert engine.lr_coefficient(lam, mu, nu) == engine.lr_coefficient(mu, lam, nu)


def test_lr_conjugation_invariance(engine):
    shapes = [lam for n in range(5) for lam in partitions_of(n)]
    for lam, mu in itertools.product(shapes, repeat=2):
        for nu in partitions_of(size(lam) + size(mu)):
            assert engine.lr_coefficient(lam, mu, nu) == engine.lr_coefficient(
                conjugate(lam), conjugate(mu), conjugate(nu)
            )


def test_lr_coefficients_in_the_four_by_four_box_are_pinned():
    # every (lam, mu, nu) in the 4x4 box with lam inside nu and
    # |lam| + |mu| = |nu|; the counts and the digest were taken from the
    # recursive tableau counter this one replaced
    box = partitions_in_rectangle(Rectangle(4, 4))
    engine = LREngine()
    coeffs = [
        engine.lr_coefficient(lam, mu, nu)
        for nu in box
        for lam in box
        if contains(nu, lam)
        for mu in box
        if size(lam) + size(mu) == size(nu)
    ]
    assert len(coeffs) == 8084
    assert sum(c > 0 for c in coeffs) == 3516
    assert sum(c >= 2 for c in coeffs) == 141
    assert max(coeffs) == 3
    digest = hashlib.sha256(",".join(map(str, coeffs)).encode()).hexdigest()
    assert digest == "4d1fcf266cbcda5357d29dbe1c349edb0d9414957bb4a6590fc85c6862f0b753"


def test_lr_coefficient_of_a_shape_with_more_cells_than_the_recursion_limit():
    # 1,200 skew cells, above the default recursion limit: no recursion per cell
    engine = LREngine()
    assert engine.lr_coefficient((), (1200,), (1200,)) == 1
    assert engine.lr_coefficient((1,) * 600, (1,) * 600, (1,) * 1200) == 1
    assert engine.lr_coefficient((1,) * 600, (2,) * 300, (2,) * 600) == 0


def test_lr_coefficient_rejects_a_non_integral_part(engine):
    with pytest.raises(ValueError, match="non-integral part 1.5"):
        engine.lr_coefficient((1.5,), (1,), (2, 1))


def test_expand_pieri_row(engine):
    # multiplying by a single row adds at most one box per column
    got = dict(engine.expand((2, 1), (2,), (4, 4, 4, 4)))
    assert got == {(4, 1): 1, (3, 2): 1, (3, 1, 1): 1, (2, 2, 1): 1}


def test_expand_respects_bound(engine):
    got = dict(engine.expand((2, 1), (2,), (3, 2)))
    assert got == {(3, 2): 1}


def test_expand_matches_tableau_count_reference(engine):
    # the strip rule against its definition: every nu inside the bound,
    # counted by the tableau counter, in lexicographic order; (2, 2) and
    # (3, 1, 1) miss most lam, () misses all but the empty one
    shapes = [lam for n in range(6) for lam in partitions_of(n)]
    bounds = [(3, 3, 3, 3), (6, 6), (5, 3, 2, 1), (6, 4, 4, 1, 1), (2, 2), (3, 1, 1), ()]
    for bound in bounds:
        rect = Rectangle(len(bound), bound[0] if bound else 0)
        inside = [nu for nu in partitions_in_rectangle(rect) if contains(bound, nu)]
        for lam, mu in itertools.product(shapes, repeat=2):
            want = {}
            for nu in inside:
                if size(nu) == size(lam) + size(mu) and engine.lr_coefficient(lam, mu, nu):
                    want[nu] = engine.lr_coefficient(lam, mu, nu)
            got = engine.expand(lam, mu, bound)
            assert dict(got) == want, (lam, mu, bound)
            assert [nu for nu, _ in got] == sorted(want), (lam, mu, bound)


def test_expand_is_symmetric_in_its_factors():
    # expand adds the factor with fewer rows as strips; with equal row
    # counts it keeps the order it was given, so both orders run there.
    # The memo is keyed by the unordered pair, so each order is computed
    # cold on an engine of its own, and a third engine that takes both
    # orders stores one entry for them
    box = partitions_in_rectangle(Rectangle(3, 3))
    bounds = [(3, 3, 3), (6, 6, 6), (5, 3, 2, 1), (4, 4, 4, 4, 4, 4)]
    forward, backward, both = LREngine(), LREngine(), LREngine()
    for bound in bounds:
        for lam, mu in itertools.combinations_with_replacement(box, 2):
            assert forward.expand(lam, mu, bound) == backward.expand(mu, lam, bound), (lam, mu, bound)
            assert both.expand(lam, mu, bound) is both.expand(mu, lam, bound), (lam, mu, bound)
    assert len(both._expand_memo) == len(bounds) * len(box) * (len(box) + 1) // 2


def test_expand_validates_its_input():
    engine = LREngine()
    # trailing zeros are stripped, as everywhere else: (1, 0) is the
    # partition (1,); a zero before a nonzero part is not a partition
    assert engine.expand((1, 0), (1,), (2, 2)) == engine.expand((1,), (1,), (2, 2))
    assert engine.expand((1, 0), (1,), (2, 2)) == (((1, 1), 1), ((2,), 1))
    with pytest.raises(ValueError):
        engine.expand((0, 1), (1,), (2, 2))
    with pytest.raises(ValueError):
        engine.expand((1,), (1, 2), (3, 3))


def test_expand_takes_lists_as_their_tuples():
    # lr_coefficient takes lists; so does expand,
    # in any argument, warm memo or cold, and a malformed list still
    # raises ValueError
    engine = LREngine()
    assert engine.expand([1], (1,), (2,)) == (((2,), 1),)
    assert engine.expand((2, 1), [2], [4, 4, 4, 4]) == engine.expand((2, 1), (2,), (4, 4, 4, 4))
    cold = LREngine()
    assert cold.expand([1, 1], [1, 0], [3, 3, 0]) == engine.expand((1, 1), (1,), (3, 3))
    assert engine.expand([1], [1], [2, 2]) is engine.expand((1,), (1,), (2, 2))
    with pytest.raises(ValueError):
        engine.expand([1, 2], (1,), (3, 3))
    # a list and a tuple cannot be ordered for the memo key; on a warm
    # engine both orders of such a pair give the tuples' answer
    want = engine.expand((2, 1), (1, 1), (3, 3, 3))
    assert engine.expand([2, 1], (1, 1), (3, 3, 3)) == engine.expand((1, 1), [2, 1], (3, 3, 3)) == want
    assert engine.expand((2, 1), [1, 1], [3, 3, 3]) == engine.expand([1, 1], (2, 1), (3, 3, 3)) == want
    # a malformed factor misses its well-formed partner's entry in either order
    assert engine.expand((2, 1), (1,), (3, 3))
    for lam, mu in (((1, 2), (1,)), ((1,), (1, 2)), ([1, 2], (1,)), ((1,), [1, 2])):
        with pytest.raises(ValueError):
            engine.expand(lam, mu, (3, 3))


def test_products_share_no_code_with_the_tableau_counter(monkeypatch):
    # the triple-flag reference is a tableau count; N, M and the fiber
    # class must reach it without calling it
    Q, beta, alpha, expected = triple_flag_instance((2, 1), (2, 1), (3, 2, 1), 3, 7)
    calls = []
    counted = LREngine.lr_coefficient

    def counting(self, *args):
        calls.append(args)
        return counted(self, *args)

    monkeypatch.setattr(LREngine, "lr_coefficient", counting)
    engine = LREngine()
    rep = verify_counts(Q, beta, alpha, engine)
    assert rep.n_value == rep.m_value == expected == 2
    assert fiber_class(Q, beta, alpha, engine).coefficient(((),) * len(beta)) == expected
    a2 = Quiver(2, ((0, 1),))
    assert covariant_multiplicity(a2, (1, 1), (2, 2), ((1,), ()), engine) == 1
    assert calls == []


def test_tensor_multiplicity_basics(engine):
    assert engine.tensor_multiplicity((), []) == 1
    assert engine.tensor_multiplicity((1,), []) == 0
    assert engine.tensor_multiplicity((2, 1), [(2, 1)]) == 1
    assert engine.tensor_multiplicity((2, 1), [(1,), (1,), (1,)]) == 2
    # degree mismatch short-circuits to zero
    assert engine.tensor_multiplicity((2,), [(2,), (1,)]) == 0


def test_tensor_multiplicity_fold_order_is_irrelevant(engine):
    import random

    rng = random.Random(7)
    pool = [lam for n in range(4) for lam in partitions_of(n)]
    for _ in range(60):
        factors = [rng.choice(pool) for _ in range(rng.randint(0, 4))]
        total = sum(size(f) for f in factors)
        for target in partitions_of(total):
            assert engine.tensor_multiplicity(target, factors) == engine.tensor_multiplicity(
                target, list(reversed(factors))
            )


def test_schubert_class_outside_rectangle_is_zero():
    rect = Rectangle(2, 2)
    assert schubert_class(rect, (2, 1)).coeffs == {(2, 1): 1}
    assert schubert_class(rect, (3,)).coeffs == {}


def test_schubert_multiply_commutes_and_associates(engine):
    import random

    rng = random.Random(11)
    rect = Rectangle(3, 3)
    pool = partitions_in_rectangle(rect)

    def rand_elem():
        coeffs = {}
        for lam in rng.sample(pool, rng.randint(1, 4)):
            coeffs[lam] = rng.randint(-3, 3)
        return SchubertElement(rect, {k: v for k, v in coeffs.items() if v})

    for _ in range(25):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        ab = engine.schubert_multiply(a, b)
        assert ab == engine.schubert_multiply(b, a)
        assert engine.schubert_multiply(ab, c) == engine.schubert_multiply(
            a, engine.schubert_multiply(b, c)
        )


def test_poincare_duality_three_by_three(engine):
    rect = Rectangle(3, 3)
    point = {rectangle_partition(rect): 1}
    for lam in partitions_in_rectangle(rect):
        prod = engine.schubert_multiply(
            schubert_class(rect, lam), schubert_class(rect, complement(lam, rect))
        )
        assert prod.coeffs == point, lam


def test_schubert_truncation_kills_overflow(engine):
    rect = Rectangle(2, 2)
    full = schubert_class(rect, (2, 2))
    assert engine.schubert_multiply(full, schubert_class(rect, (1,))).coeffs == {}


def test_expansion_matches_schur_polynomial_oracle(engine):
    # product of Schur polynomials expanded monomial by monomial must agree
    # with the LR expansion; checked for small degrees in 5 variables
    nvars = 5
    shapes = [lam for n in range(4) for lam in partitions_of(n, max_rows=nvars)]
    for lam, mu in itertools.product(shapes, repeat=2):
        lhs = {}
        pl = engine.schur_polynomial(lam, nvars)
        pm = engine.schur_polynomial(mu, nvars)
        for ea, ca in pl.items():
            for eb, cb in pm.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                lhs[key] = lhs.get(key, 0) + ca * cb
                if lhs[key] == 0:
                    del lhs[key]
        rhs = {}
        bound = (size(lam) + size(mu),) * nvars
        for nu, c in engine.expand(lam, mu, bound):
            if len(nu) > nvars:
                continue
            for expo, cc in engine.schur_polynomial(nu, nvars).items():
                rhs[expo] = rhs.get(expo, 0) + c * cc
                if rhs[expo] == 0:
                    del rhs[expo]
        assert lhs == rhs, (lam, mu)


def test_engine_is_safe_to_share_across_threads():
    engine = ReferenceEngine()
    expected = engine.lr_coefficient((2, 1), (2, 1), (3, 2, 1))
    results = []

    def worker():
        local = []
        for _ in range(50):
            local.append(engine.lr_coefficient((2, 1), (2, 1), (3, 2, 1)))
            local.append(engine.tensor_multiplicity((2, 1), [(1,), (1,), (1,)]))
        results.append(local)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for local in results:
        assert local == [expected, 2] * 50
