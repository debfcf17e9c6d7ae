import itertools
import random
import re
from math import comb, factorial, prod

import pytest

from quivercount import counting
from quivercount.counting import (
    FiberClass,
    NegativePairingError,
    NonzeroPairingError,
    _greedy_arrow_order,
    count_subreps,
    count_subreps_detailed,
    fiber_class,
    random_instance,
    random_zero_triple,
    si_dimension,
    si_dimension_detailed,
    triple_flag_instance,
    verify_counts,
    weight_of,
)
from quivercount.cli import _kronecker_instances
from quivercount.covariants import covariant_count, covariant_multiplicity
from quivercount.lr import LREngine
from quivercount.partitions import Rectangle, complement, conjugate, partitions_in_rectangle, size
from quivercount.quiver import Quiver, euler_form


def theta(m: int) -> Quiver:
    return Quiver(2, tuple((0, 1) for _ in range(m)))


A2 = Quiver(2, ((0, 1),))


def test_kronecker_family_counts(engine):
    # up to theta(24), N = M = 2,704,156: far beyond any sum that visits
    # its labelings one by one
    for r in range(1, 13):
        Q = theta(2 * r)
        assert count_subreps(Q, (1, r), (r + 1, r + 1), engine) == comb(2 * r, r)
        assert si_dimension(Q, (1, r), (r + 1, r + 1), engine) == comb(2 * r, r)


@pytest.mark.parametrize(
    "r, n, degree", [(2, 4, 2), (2, 5, 5), (2, 6, 14), (3, 6, 42), (2, 7, 42), (3, 7, 462)]
)
def test_star_counts_grassmannian_degree(engine, r, n, degree):
    # r-planes in C^n meeting r(n-r) general (n-r)-planes: a star whose
    # r(n-r) arms of dimension n-r point into a centre of dimension n, so
    # one vertex is fed by many distinct tails.  N = M = deg G(r, n).
    arms = r * (n - r)
    Q = Quiver(arms + 1, tuple((i, arms) for i in range(arms)))
    beta, alpha = (1,) * arms + (r,), (n - r,) * arms + (n,)
    closed_form = factorial(arms) * prod(factorial(i - 1) for i in range(1, r + 1)) // prod(
        factorial(n - r + i - 1) for i in range(1, r + 1)
    )
    assert closed_form == degree
    assert count_subreps(Q, beta, alpha, engine) == degree
    assert si_dimension(Q, beta, alpha, engine) == degree


def test_trivial_dimension_vectors(engine):
    Q = theta(2)
    assert count_subreps(Q, (0, 0), (2, 2), engine) == 1
    assert count_subreps(Q, (2, 2), (2, 2), engine) == 1
    assert si_dimension(Q, (0, 0), (2, 2), engine) == 1
    assert count_subreps(Quiver(1, ()), (0,), (3,), engine) == 1
    assert count_subreps(Quiver(1, ()), (3,), (3,), engine) == 1


def test_pairing_guards(engine):
    with pytest.raises(NonzeroPairingError):
        count_subreps(A2, (1, 1), (2, 2), engine)
    with pytest.raises(NonzeroPairingError):
        si_dimension(A2, (1, 1), (2, 2), engine)
    # beta must fit inside alpha
    with pytest.raises(ValueError):
        count_subreps(A2, (3, 1), (2, 2), engine)


def test_negative_pairing_is_always_an_error(engine):
    Q = theta(3)
    assert euler_form(Q, (1, 1), (1, 1)) == -1
    with pytest.raises(NegativePairingError):
        count_subreps(Q, (1, 1), (2, 2), engine)
    with pytest.raises(NegativePairingError):
        fiber_class(Q, (1, 1), (2, 2), engine)


@pytest.mark.parametrize(
    "args, message",
    [
        (((), (), (), 3, 2), "need 0 <= r <= n"),
        (((3,), (), (), 1, 3), "does not fit in 1x2"),
        (((1,), (), (), 1, 3), "sizes 1+0+0 != r(n-r) = 2"),
        (((), (), (), 0, 0), "need n >= 1, got n=0"),
        (((), (), (), 0, -2), "need n >= 1, got n=-2"),
    ],
)
def test_triple_flag_instance_rejects_bad_input(args, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        triple_flag_instance(*args)


def _triple_flag_instance_rebuilt(lam, mu, nu, r, n, engine):
    # the construction as it was before the quiver was shared per n: a
    # fresh quiver per call, and beta by one count per arm position
    rect = Rectangle(r, n - r)
    arm_len = n - 1
    nverts = 3 * arm_len + 1
    center = 3 * arm_len
    arrows = []
    for arm in range(3):
        base = arm * arm_len
        for j in range(arm_len - 1):
            arrows.append((base + j, base + j + 1))
        if arm_len:
            arrows.append((base + arm_len - 1, center))
    alpha = [0] * nverts
    beta = [0] * nverts
    for arm, p in enumerate((lam, mu, nu)):
        padded = list(p) + [0] * (r - len(p))
        base = arm * arm_len
        for j in range(1, n):
            alpha[base + j - 1] = j
            beta[base + j - 1] = sum(1 for i in range(1, r + 1) if n - r - padded[i - 1] + i <= j)
    alpha[center] = n
    beta[center] = r
    expected = engine.lr_coefficient(lam, mu, complement(nu, rect))
    return Quiver(nverts, tuple(arrows)), tuple(beta), tuple(alpha), expected


@pytest.mark.parametrize("n, r", [(4, 2), (5, 2), (6, 3), (7, 3)])
def test_triple_flag_instances_match_the_rebuilt_construction(n, r):
    parts = partitions_in_rectangle(Rectangle(r, n - r))
    old_engine, new_engine = LREngine(), LREngine()
    instances = 0
    for lam, mu, nu in itertools.product(parts, repeat=3):
        if size(lam) + size(mu) + size(nu) != r * (n - r):
            continue
        Q, beta, alpha, expected = triple_flag_instance(lam, mu, nu, r, n, new_engine)
        Q0, beta0, alpha0, expected0 = _triple_flag_instance_rebuilt(lam, mu, nu, r, n, old_engine)
        assert (Q.nvertices, Q.arrows, Q.topo_order) == (Q0.nvertices, Q0.arrows, Q0.topo_order)
        assert (beta, alpha, expected) == (beta0, alpha0, expected0), (lam, mu, nu)
        instances += 1
    assert instances == {(4, 2): 27, (5, 2): 83, (6, 3): 435, (7, 3): 1699}[n, r]


def test_triple_flag_instances_share_one_quiver_per_n():
    Q7 = triple_flag_instance((2, 1), (3, 1), (2, 2, 1), 3, 7)[0]
    assert triple_flag_instance((), (), (4, 4, 4), 3, 7)[0] is Q7
    assert triple_flag_instance((1, 1), (), (4, 4), 2, 7)[0] is Q7
    Q6 = triple_flag_instance((), (), (3, 3, 3), 3, 6)[0]
    assert Q6 is not Q7 and Q6.nvertices == 16


@pytest.mark.parametrize(
    "coeffs, message",
    [
        ({((),): 0}, "positive coefficients only"),
        ({((2,),): 1}, "outside rectangle"),
        # keys of the wrong length, which coefficient() refuses, are not stored
        ({(): 1}, "mu has 0 entries, quiver has 1 vertices"),
        ({((), (5,)): 1}, "mu has 2 entries, quiver has 1 vertices"),
    ],
)
def test_fiber_class_rejects_bad_coefficients(coeffs, message):
    with pytest.raises(ValueError, match=message):
        FiberClass((Rectangle(1, 1),), coeffs)


def test_fiber_class_checks_an_entry_again_in_another_rectangle():
    # (2,) fits the 2x2 rectangle of vertex 0, not the 1x1 of vertex 1
    ambients = (Rectangle(2, 2), Rectangle(1, 1))
    assert FiberClass(ambients, {((2,), ()): 1, ((1,), (1,)): 2}).coefficient(((1,), (1,))) == 2
    # whichever of the two keys comes first
    for keys in ([((2,), ()), ((), (2,))], [((), (2,)), ((2,), ())]):
        with pytest.raises(ValueError, match=r"key entry \(2,\) outside rectangle"):
            FiberClass(ambients, dict.fromkeys(keys, 1))


def test_weight_of_pins():
    assert weight_of(theta(2), (1, 1)) == (1, -1)
    assert weight_of(theta(4), (1, 2)) == (1, -2)
    assert weight_of(Quiver(3, ((0, 1), (1, 2))), (1, 1, 1)) == (1, 0, 0)


def test_labelings_examined_theta4(engine):
    n, labelings, breakdown = count_subreps_detailed(
        theta(4), (1, 2), (3, 3), breakdown=True, engine=engine
    )
    assert n == 6
    # four arrows, each labeled by a partition in a 1x1 box; with the labels
    # in the state key the DP creates 1 + 2 + 4 + 6 + 6 states, and the
    # final six are the (4 choose 2) ways to pick two boxes
    assert labelings == 19
    assert len(breakdown) == 6
    assert sum(c for _, c in breakdown) == 6
    assert all(c == 1 for _, c in breakdown)
    seen = set()
    for labeling, _ in breakdown:
        assert len(labeling) == 4
        sizes = tuple(size(p) for p in labeling)
        assert sum(sizes) == 2
        seen.add(sizes)
    assert len(seen) == 6


def test_breakdown_canonical_order(engine):
    _, _, breakdown = count_subreps_detailed(
        theta(2), (1, 1), (3, 3), breakdown=True, engine=engine
    )
    labelings = [lab for lab, _ in breakdown]
    # graded-lex per arrow, last arrow fastest
    assert labelings == sorted(labelings, key=lambda lab: tuple((size(p), p) for p in lab))


def test_n_and_m_agree_on_pinned_instances(engine):
    cases = [
        (theta(2), (1, 1), (2, 2)),
        (theta(2), (1, 1), (3, 3)),
        (theta(2), (2, 2), (4, 4)),
        (Quiver(3, ((0, 1), (0, 1), (1, 2))), (1, 1, 2), (2, 2, 2)),
        (Quiver(3, ((0, 2), (0, 2), (1, 2))), (1, 0, 1), (2, 2, 2)),
        (Quiver(4, ((0, 1), (1, 2), (2, 3))), (1, 1, 1, 1), (1, 2, 2, 2)),
    ]
    for Q, beta, alpha in cases:
        rep = verify_counts(Q, beta, alpha, engine)
        assert rep.passed, (Q.arrows, beta, alpha, rep.n_value, rep.m_value)


def test_report_fields(engine):
    rep = verify_counts(theta(2), (1, 1), (2, 2), engine)
    assert rep.n_value == rep.m_value == 2
    assert rep.euler_pairing == 0
    assert rep.n_labelings == rep.m_labelings == 4
    assert rep.beta == (1, 1) and rep.alpha == (2, 2)


def test_m_examines_the_same_labelings_as_n(engine):
    # both routes enumerate the identical pruned index space; only the
    # per-vertex factor differs
    rng = random.Random(17)
    for _ in range(25):
        Q, beta, alpha = random_instance(rng)
        _, n_tried, _ = count_subreps_detailed(Q, beta, alpha, engine=engine)
        _, m_tried = si_dimension_detailed(Q, beta, alpha, engine=engine)
        assert n_tried == m_tried


def test_state_totals_on_a_seeded_pool(engine):
    # a closing arrow takes its label by lookup; it must create exactly the
    # states that scanning every label of the arrow's table creates
    totals = [0, 0, 0, 0]
    for seed in range(300):
        Q, beta, alpha = random_instance(random.Random(seed), max_verts=5, max_arrows=6, min_arrows=2)
        n, n_states, _ = count_subreps_detailed(Q, beta, alpha, engine=engine)
        m, m_states = si_dimension_detailed(Q, beta, alpha, engine=engine)
        for i, v in enumerate((n, m, n_states, m_states)):
            totals[i] += v
    assert totals == [516, 516, 1470, 1470]


def _quadratic_arrow_order(Q, rect_sizes):
    """Reference greedy: repeatedly take the open arrow of least
    (-(vertices it completes), rectangle size, index), by a full scan."""
    remaining = [0] * Q.nvertices
    for t, h in Q.arrows:
        remaining[t] += 1
        remaining[h] += 1
    left = set(range(len(Q.arrows)))
    order = []
    while left:
        def key(a):
            t, h = Q.arrows[a]
            return (-((remaining[t] == 1) + (remaining[h] == 1)), rect_sizes[a], a)

        best = min(left, key=key)
        left.remove(best)
        order.append(best)
        t, h = Q.arrows[best]
        remaining[t] -= 1
        remaining[h] -= 1
    return order


def test_arrow_order_matches_quadratic_greedy():
    rng = random.Random(6)
    parallel = 0
    for _ in range(2000):
        nv = rng.randint(2, 12)
        arrows = []
        for _ in range(rng.randint(0, 25)):
            if arrows and rng.random() < 0.25:
                arrows.append(rng.choice(arrows))
            else:
                arrows.append(tuple(sorted(rng.sample(range(nv), 2))))
        parallel += len(set(arrows)) < len(arrows)
        Q = Quiver(nv, tuple(arrows))
        sizes = [rng.randint(1, 8) for _ in arrows]
        assert _greedy_arrow_order(Q, sizes) == _quadratic_arrow_order(Q, sizes), (nv, arrows, sizes)
    assert parallel >= 1000


def test_random_instances_agree(engine):
    rng = random.Random(0)
    nontrivial = 0
    for i in range(120):
        if i % 3 == 2:
            Q, beta, alpha = random_instance(rng, max_verts=3, max_arrows=5, min_arrows=2)
        else:
            Q, beta, alpha = random_instance(rng)
        rep = verify_counts(Q, beta, alpha, engine)
        assert rep.passed, (Q.arrows, beta, alpha, rep.n_value, rep.m_value)
        if rep.n_value > 1:
            nontrivial += 1
    assert nontrivial >= 10


def test_unpruned_m_sum_adds_nothing(engine):
    # enlarging the per-arrow index space to partitions with more rows than
    # beta(tail) must not change the total: the tail factor of any such
    # labeling already has multiplicity zero.  Valid labelings keep the
    # production rectangle so their complements are unchanged.
    cases = [
        (theta(2), (1, 1), (2, 2)),
        (theta(2), (2, 2), (3, 3)),
        (Quiver(3, ((0, 1), (0, 1), (1, 2))), (1, 1, 2), (2, 2, 2)),
    ]
    for Q, beta, alpha in cases:
        gamma = tuple(a - b for a, b in zip(alpha, beta))
        per_arrow = [
            partitions_in_rectangle(Rectangle(beta[t] + 2, gamma[h])) for t, h in Q.arrows
        ]
        total = 0
        for labeling in itertools.product(*per_arrow):
            contrib = 1
            for x in range(Q.nvertices):
                # Schur form of the exterior target: conjugate of the
                # gamma^beta rectangle, with every factor conjugated too
                target = (beta[x],) * gamma[x]
                factors = []
                for i, (t, h) in enumerate(Q.arrows):
                    if t == x:
                        factors.append(conjugate(labeling[i]))
                    if h == x:
                        lam = labeling[i]
                        rows = beta[t] if len(lam) <= beta[t] else beta[t] + 2
                        comp = complement(lam, Rectangle(rows, gamma[h]))
                        factors.append(conjugate(comp))
                contrib *= engine.tensor_multiplicity(target, factors)
                if contrib == 0:
                    break
            total += contrib
        assert total == si_dimension(Q, beta, alpha, engine), (Q.arrows, beta, alpha)


def test_fiber_class_zero_pairing_single_key(engine):
    fc = fiber_class(theta(4), (1, 2), (3, 3), engine)
    items = fc.sorted_items()
    assert len(items) == 1
    mu, coeff = items[0]
    assert all(p == () for p in mu)
    assert coeff == 6


def test_fiber_class_a2_worked_example(engine):
    fc = fiber_class(A2, (1, 1), (2, 2), engine)
    got = {mu: c for mu, c in fc.sorted_items()}
    assert got == {((1,), ()): 1, ((), (1,)): 1}


def test_fiber_class_homogeneity(engine):
    rng = random.Random(23)
    checked = 0
    while checked < 15:
        Q, beta, alpha = random_instance(rng, require_zero_pairing=False)
        gamma = tuple(a - b for a, b in zip(alpha, beta))
        pairing = euler_form(Q, beta, gamma)
        if not 0 < pairing <= 3:
            continue
        checked += 1
        fc = fiber_class(Q, beta, alpha, engine)
        for mu, coeff in fc.sorted_items():
            assert coeff > 0
            assert sum(size(p) for p in mu) == pairing


def test_fiber_class_coefficient_lookup(engine):
    fc = fiber_class(A2, (1, 1), (2, 2), engine)
    assert fc.coefficient(((1,), ())) == 1
    assert fc.coefficient(((), (1,))) == 1
    # absent but well-formed keys read as zero
    assert fc.coefficient(((), ())) == 0


def test_fiber_class_coefficient_rejects_keys_that_cannot_be_keys(engine):
    fc = fiber_class(A2, (1, 1), (2, 2), engine)
    with pytest.raises(ValueError, match="mu has 1 entries, quiver has 2 vertices"):
        fc.coefficient(((1,),))
    with pytest.raises(ValueError, match=r"mu\(0\) = \(5,\) does not fit in 1x1"):
        fc.coefficient(((5,), ()))
    with pytest.raises(ValueError, match="non-integral part"):
        fc.coefficient(((0.5,), ()))


def test_triple_flag_smallest_case(engine):
    # n = 2, r = 1: the Grassmannian is P^1, so only box counts survive
    Q, beta, alpha, expected = triple_flag_instance((1,), (), (), 1, 2)
    assert expected == engine.lr_coefficient((1,), (), complement((), Rectangle(1, 1)))
    assert expected == 1
    assert count_subreps(Q, beta, alpha, engine) == 1


def test_triple_flag_matches_lr_n4_r2_sample(engine):
    rect = Rectangle(2, 2)
    lam, mu, nu = (2, 1), (1,), ()
    Q, beta, alpha, expected = triple_flag_instance(lam, mu, nu, 2, 4)
    assert expected == engine.lr_coefficient(lam, mu, complement(nu, rect))
    assert count_subreps(Q, beta, alpha, engine) == expected
    assert si_dimension(Q, beta, alpha, engine) == expected


def test_the_counting_side_calls_only_expand(monkeypatch):
    # N, M, the fiber class and its covariant pieces all come from one LR
    # product, expand; the tableau count is only the triple-flag reference,
    # so those instances and their expected values are built first
    rect = Rectangle(2, 3)
    shapes = partitions_in_rectangle(rect)
    triples = [t for t in itertools.product(shapes, repeat=3) if sum(map(size, t)) == 6]
    zero = [triple_flag_instance(*t, 2, 5) for t in random.Random(37).sample(triples, 6)]
    zero += [(s.quiver, s.beta, s.alpha, n) for _, s, n in _kronecker_instances()]

    class LRCalled(Exception):
        pass

    def refuse(self, *args):
        raise LRCalled

    monkeypatch.setattr(LREngine, "lr_coefficient", refuse)
    assert not hasattr(LREngine, "tensor_multiplicity")
    rng = random.Random(37)
    zero += [(*random_instance(rng, max_verts=3, max_arrows=5, min_arrows=2), None) for _ in range(8)]
    positive = []
    while len(positive) < 8:
        Q, beta, alpha = random_instance(rng, max_verts=3, max_arrows=3, require_zero_pairing=False)
        if 0 < euler_form(Q, beta, tuple(a - b for a, b in zip(alpha, beta))) <= 3:
            positive.append((Q, beta, alpha))
    engine = LREngine()
    for Q, beta, alpha, expected in zero:
        rep = verify_counts(Q, beta, alpha, engine)
        n = count_subreps(Q, beta, alpha, engine)
        assert rep.n_value == rep.m_value == n == si_dimension(Q, beta, alpha, engine), (Q.arrows, beta, alpha)
        assert expected in (None, n)
        empty = ((),) * Q.nvertices
        assert fiber_class(Q, beta, alpha, engine).coefficient(empty) == n
        assert covariant_count(Q, beta, alpha, empty, engine) == covariant_multiplicity(Q, beta, alpha, empty, engine) == n
    pieces = 0
    for Q, beta, alpha in positive:
        for mu, c in fiber_class(Q, beta, alpha, engine).sorted_items():
            assert covariant_count(Q, beta, alpha, mu, engine) == covariant_multiplicity(Q, beta, alpha, mu, engine) == c
            pieces += 1
    assert pieces >= 8
    # the patch is live: the reference does reach the tableau count
    with pytest.raises(LRCalled):
        triple_flag_instance((1,), (1,), (2,), 2, 4, engine)


def test_triple_flag_shape():
    Q, beta, alpha, _ = triple_flag_instance((1,), (1,), (2,), 2, 4)
    # central vertex plus three arms of length n-1
    assert Q.nvertices == 1 + 3 * 3
    assert len(Q.arrows) == 3 * 3
    assert euler_form(Q, beta, tuple(a - b for a, b in zip(alpha, beta))) == 0


def test_multiplicative_chain_pinned(engine):
    Q = theta(2)
    cases = [
        ((1, 1), (1, 1), (1, 1)),
        ((1, 1), (2, 2), (1, 1)),
        ((2, 2), (1, 1), (1, 1)),
    ]
    for beta, gamma, delta in cases:
        bg = tuple(b + g for b, g in zip(beta, gamma))
        bgd = tuple(s + d for s, d in zip(bg, delta))
        gd = tuple(g + d for g, d in zip(gamma, delta))
        lhs = count_subreps(Q, beta, bg, engine) * count_subreps(Q, bg, bgd, engine)
        rhs = count_subreps(Q, beta, bgd, engine) * count_subreps(Q, gamma, gd, engine)
        assert lhs == rhs
        assert lhs > 1  # these particular chains are not degenerate


def test_multiplicative_chain_seeded(engine):
    rng = random.Random(5)
    for _ in range(25):
        Q, beta, gamma, delta = random_zero_triple(rng)
        bg = tuple(b + g for b, g in zip(beta, gamma))
        bgd = tuple(s + d for s, d in zip(bg, delta))
        gd = tuple(g + d for g, d in zip(gamma, delta))
        lhs = count_subreps(Q, beta, bg, engine) * count_subreps(Q, bg, bgd, engine)
        rhs = count_subreps(Q, beta, bgd, engine) * count_subreps(Q, gamma, gd, engine)
        assert lhs == rhs, (Q.arrows, beta, gamma, delta, lhs, rhs)


@pytest.mark.parametrize(
    "budget, draw, message",
    [
        ("_INSTANCE_TRIES", random_instance, "no instance found within the rejection budget"),
        ("_TRIPLE_TRIES", random_zero_triple, "no triple found within the rejection budget"),
    ],
    ids=["instance", "triple"],
)
def test_random_draws_give_up_when_the_budget_runs_out(monkeypatch, budget, draw, message):
    # an empty budget stands in for one that every draw fails
    monkeypatch.setattr(counting, budget, 0)
    with pytest.raises(RuntimeError, match=re.escape(message)):
        draw(random.Random(0))


def test_random_instance_respects_bounds():
    rng = random.Random(31)
    for _ in range(80):
        Q, beta, alpha = random_instance(rng, max_verts=4, max_arrows=4, max_dim=3)
        assert 1 <= Q.nvertices <= 4
        assert len(Q.arrows) <= 4
        assert all(0 <= b <= a <= 6 for b, a in zip(beta, alpha))
        assert all(a - b <= 3 for a, b in zip(alpha, beta))
        assert all(b <= 3 for b in beta)
        gamma = tuple(a - b for a, b in zip(alpha, beta))
        assert euler_form(Q, beta, gamma) == 0
