import itertools
import random

import pytest

from quivercount.counting import (
    _piece_plan,
    _plan,
    count_subreps,
    count_subreps_detailed,
    fiber_class,
    random_instance,
    si_dimension,
    verify_counts,
)
from quivercount.covariants import _frames, build_hat, covariant_count, covariant_multiplicity
from quivercount.partitions import Rectangle, complement, conjugate, partition, partitions_in_rectangle, size
from quivercount.quiver import Quiver, euler_form

A2 = Quiver(2, ((0, 1),))
THETA3 = Quiver(2, ((0, 1), (0, 1), (0, 1)))
THETA4 = Quiver(2, ((0, 1), (0, 1), (0, 1), (0, 1)))


def reference_hat(Q, beta, alpha, mu):
    """The arm enlargement as first written: each arm is built as the
    conjugate of the complement of mu(x) in its box, and the hat is checked
    by euler_form.  build_hat reads the arms straight off mu and must give
    the same hat."""
    gamma = tuple(a - b for a, b in zip(alpha, beta))
    arrows = list(Q.arrows)
    hat_beta = list(beta)
    hat_gamma = list(gamma)
    nxt = Q.nvertices
    for x in range(Q.nvertices):
        arm = conjugate(complement(partition(mu[x]), Rectangle(beta[x], gamma[x])))
        prev = x
        for i in range(1, gamma[x] + 1):
            arrows.append((prev, nxt))
            hat_beta.append(arm[i - 1] if i <= len(arm) else 0)
            hat_gamma.append(gamma[x] - i + 1)
            prev = nxt
            nxt += 1
    hatQ = Quiver(nxt, tuple(arrows))
    assert euler_form(hatQ, tuple(hat_beta), tuple(hat_gamma)) == 0
    return hatQ, tuple(hat_beta), tuple(b + g for b, g in zip(hat_beta, hat_gamma))


def flag_instance(lam, mu, nu, r, n):
    """Three inward flags of length n-1 meeting a central n-space, beta
    jumping where the partitions say; sizes summing to r(n-r) - c give
    Euler pairing c (triple_flag_instance requires c = 0)."""
    arm = n - 1
    arrows = []
    for k in range(3):
        arrows += [(k * arm + j, k * arm + j + 1) for j in range(arm - 1)]
        arrows.append((k * arm + arm - 1, 3 * arm))
    beta, alpha = [], []
    for p in (lam, mu, nu):
        padded = list(p) + [0] * (r - len(p))
        for j in range(1, n):
            alpha.append(j)
            beta.append(sum(1 for i in range(1, r + 1) if n - r - padded[i - 1] + i <= j))
    return Quiver(3 * arm + 1, tuple(arrows)), (*beta, r), (*alpha, n)


def test_build_hat_a2_worked_example():
    hat = build_hat(A2, (1, 1), (2, 2), ((1,), ()))
    # each original vertex grows one arm vertex (gamma = 1 everywhere)
    assert hat.quiver.nvertices == 4
    assert hat.beta == (1, 1, 0, 1)
    assert hat.alpha == (2, 2, 1, 2)
    gamma = tuple(a - b for a, b in zip(hat.alpha, hat.beta))
    assert euler_form(hat.quiver, hat.beta, gamma) == 0


def test_build_hat_other_class():
    hat = build_hat(A2, (1, 1), (2, 2), ((), (1,)))
    assert hat.beta == (1, 1, 1, 0)
    assert hat.alpha == (2, 2, 2, 1)


def test_build_hat_arm_dimensions_decrease():
    Q = Quiver(2, ((0, 1), (0, 1)))
    beta, alpha = (1, 2), (3, 3)
    gamma = tuple(a - b for a, b in zip(alpha, beta))
    pairing = euler_form(Q, beta, gamma)
    fc = fiber_class(Q, beta, alpha)
    for mu, _ in fc.sorted_items():
        hat = build_hat(Q, beta, alpha, mu)
        # arm vertices come after the originals, x-major; gammas step down
        hg = tuple(a - b for a, b in zip(hat.alpha, hat.beta))
        assert hg[: Q.nvertices] == gamma
        arm = hg[Q.nvertices :]
        assert len(arm) == sum(gamma)
        assert euler_form(hat.quiver, hat.beta, hg) == 0
        assert sum(p for part in mu for p in part) == pairing


def test_mu_size_must_match_pairing():
    with pytest.raises(ValueError):
        build_hat(A2, (1, 1), (2, 2), ((), ()))
    with pytest.raises(ValueError):
        covariant_multiplicity(A2, (1, 1), (2, 2), ((2,), ()))


def test_covariant_count_names_a_short_mu():
    with pytest.raises(ValueError, match="mu has 1 entries, quiver has 2 vertices"):
        covariant_count(A2, (1, 1), (2, 2), [()])


def test_mu_must_fit_rectangle():
    # beta(0) x gamma(0) box is 1x1, so (1,1) cannot label vertex 0
    with pytest.raises(ValueError):
        build_hat(A2, (1, 1), (2, 2), ((1, 1), ()))


def test_a2_both_classes_count_one(engine):
    for mu in (((1,), ()), ((), (1,))):
        assert covariant_count(A2, (1, 1), (2, 2), mu, engine) == 1
        assert covariant_multiplicity(A2, (1, 1), (2, 2), mu, engine) == 1


def test_zero_pairing_all_empty_mu_reduces_to_plain_count(engine):
    mu = ((), ())
    assert covariant_count(THETA4, (1, 2), (3, 3), mu, engine) == 6
    assert covariant_multiplicity(THETA4, (1, 2), (3, 3), mu, engine) == 6
    assert count_subreps(THETA4, (1, 2), (3, 3), engine) == 6


def test_three_way_agreement_seeded(engine):
    rng = random.Random(2)
    checked = 0
    positive = 0
    while checked < 40:
        dense = checked % 3 == 2
        Q, beta, alpha = random_instance(
            rng,
            max_verts=3,
            max_arrows=3,
            max_dim=3,
            min_arrows=2 if dense else 0,
            require_zero_pairing=False,
        )
        gamma = tuple(a - b for a, b in zip(alpha, beta))
        pairing = euler_form(Q, beta, gamma)
        if not 0 <= pairing <= 3:
            continue
        checked += 1
        if pairing > 0:
            positive += 1
        fc = fiber_class(Q, beta, alpha, engine)
        for mu, coeff in fc.sorted_items():
            cc = covariant_count(Q, beta, alpha, mu, engine)
            cm = covariant_multiplicity(Q, beta, alpha, mu, engine)
            assert cc == cm == coeff, (Q.arrows, beta, alpha, mu, coeff, cc, cm)
    assert positive >= 8


def test_off_class_mu_counts_zero(engine):
    # correct total size but absent from the decomposition: all routes zero
    Q = Quiver(2, ((0, 1), (0, 1)))
    beta, alpha = (1, 1), (3, 3)
    gamma = tuple(a - b for a, b in zip(alpha, beta))
    pairing = euler_form(Q, beta, gamma)
    assert pairing == 0
    fc = fiber_class(Q, beta, alpha, engine)
    assert fc.coefficient(((), ())) == count_subreps(Q, beta, alpha, engine)

    # a positive-pairing relative with a class that does not appear:
    # A2 with beta=(1,2), alpha=(1,4) only realizes ((), (2,))
    Q2 = A2
    beta2, alpha2 = (1, 2), (1, 4)
    pairing2 = euler_form(Q2, beta2, tuple(a - b for a, b in zip(alpha2, beta2)))
    assert pairing2 == 2
    fc2 = fiber_class(Q2, beta2, alpha2, engine)
    assert {mu for mu, _ in fc2.sorted_items()} == {((), (2,))}
    absent = ((), (1, 1))
    assert fc2.coefficient(absent) == 0
    assert covariant_count(Q2, beta2, alpha2, absent, engine) == 0
    assert covariant_multiplicity(Q2, beta2, alpha2, absent, engine) == 0


@pytest.mark.parametrize(
    "arrows, beta, alpha, mu, expected",
    [
        (((0, 1), (0, 1)), (1, 1), (4, 2), ((2,), ()), 2),
        (((0, 1), (0, 1), (0, 1)), (2, 2), (5, 3), ((1,), (1,)), 3),
        (((0, 2), (0, 2), (0, 2)), (3, 3, 2), (6, 3, 3), ((1,), (), (1,)), 3),
        (((1, 2), (0, 2), (0, 2)), (1, 3, 1), (4, 6, 3), ((), (1, 1, 1), (1,)), 2),
        (((0, 2), (0, 2), (1, 2), (1, 2)), (2, 2, 1), (4, 5, 2), ((), (2, 1), ()), 2),
        (((0, 1), (0, 1), (0, 1)), (1, 2), (4, 4), ((), (1,)), 8),
    ],
)
def test_multiplicity_from_nonempty_start_shapes(engine, arrows, beta, alpha, mu, expected):
    # vertex x starts at mu(x)', so a closing arrow must complete that shape
    Q = Quiver(max(max(a) for a in arrows) + 1, arrows)
    assert covariant_multiplicity(Q, beta, alpha, mu, engine) == expected
    assert covariant_count(Q, beta, alpha, mu, engine) == expected


def test_hat_equals_the_reference_construction_on_random_pieces(engine):
    rng = random.Random(30)
    pieces = 0
    counted = 0
    while pieces < 400:
        Q, beta, alpha = random_instance(
            rng, max_verts=4, max_arrows=4, max_dim=3, min_arrows=1, require_zero_pairing=False
        )
        gamma = tuple(a - b for a, b in zip(alpha, beta))
        if not 1 <= euler_form(Q, beta, gamma) <= 3:
            continue
        for mu, coeff in fiber_class(Q, beta, alpha, engine).sorted_items():
            hat = build_hat(Q, beta, alpha, mu)
            ref = reference_hat(Q, beta, alpha, mu)
            assert (hat.quiver, hat.beta, hat.alpha) == ref, (Q.arrows, beta, alpha, mu)
            detailed = count_subreps_detailed(hat.quiver, hat.beta, hat.alpha, engine)
            assert detailed == count_subreps_detailed(*ref, engine)
            assert detailed[0] == coeff
            pieces += 1
            counted += coeff > 1
    assert counted >= 60


def test_hat_equals_the_reference_construction_on_six_three_flags():
    # every (6,3) flag at pairing 1, and on each every piece: one box at
    # any vertex whose rectangle has room, whether or not it is in the class
    box = partitions_in_rectangle(Rectangle(3, 3))
    flags = pieces = 0
    for lam, mu, nu in itertools.product(box, repeat=3):
        if size(lam) + size(mu) + size(nu) != 8:
            continue
        Q, beta, alpha = flag_instance(lam, mu, nu, 3, 6)
        flags += 1
        for x in range(Q.nvertices):
            if beta[x] and alpha[x] > beta[x]:
                piece = tuple((1,) if y == x else () for y in range(Q.nvertices))
                hat = build_hat(Q, beta, alpha, piece)
                assert (hat.quiver, hat.beta, hat.alpha) == reference_hat(Q, beta, alpha, piece)
                pieces += 1
    assert flags == 321 and pieces > flags


def test_fiber_class_plans_once_for_the_pieces_of_its_instance(engine):
    Q, beta, alpha = Quiver(2, ((0, 1), (0, 1), (0, 1))), (2, 2), (5, 3)
    gamma = tuple(a - b for a, b in zip(alpha, beta))
    fc = fiber_class(Q, beta, alpha, engine)
    assert len(fc.coeffs) == 4
    before = _piece_plan.cache_info()
    for mu, coeff in fc.sorted_items():
        assert covariant_count(Q, beta, alpha, mu, engine) == coeff
        assert covariant_multiplicity(Q, beta, alpha, mu, engine) == coeff
    after = _piece_plan.cache_info()
    assert after.hits - before.hits == len(fc.coeffs)
    assert after.misses == before.misses
    assert _piece_plan(Q, beta, gamma) == _plan(Q, beta, gamma)


def test_counts_and_their_verification_plan_uncached(engine):
    before = _piece_plan.cache_info()
    assert count_subreps(THETA4, (1, 2), (3, 3), engine) == 6
    assert verify_counts(THETA4, (1, 2), (3, 3), engine).passed
    assert _piece_plan.cache_info() == before


def test_the_pieces_of_one_instance_share_one_hat_frame(engine):
    beta, alpha = (2, 2), (5, 3)
    fc = fiber_class(THETA3, beta, alpha, engine)
    hats = [build_hat(THETA3, beta, alpha, mu) for mu in fc.coeffs]
    assert len(hats) == 4 and len({hat.beta for hat in hats}) == 4
    assert all(hat.quiver is hats[0].quiver for hat in hats)
    # the frame depends on (Q, gamma) alone: another beta with the same gamma
    # shares it, the same Q with another gamma gets its own
    assert build_hat(THETA3, (1, 2), (4, 3), ((1,), (1,))).quiver is hats[0].quiver
    other = build_hat(THETA3, (1, 1), (3, 2), ((), ()))
    assert other.quiver is not hats[0].quiver
    assert other.quiver.nvertices == 5 and hats[0].quiver.nvertices == 6


def test_hat_frames_stay_bounded():
    for g in range(1, 17):
        # (1, 1) inside (1 + g, 1 + g) on A2 has pairing g
        hat = build_hat(A2, (1, 1), (1 + g, 1 + g), ((g,), ()))
        assert hat.quiver.nvertices == 2 + 2 * g
        assert len(_frames) <= 8
    # the newest frames are the ones kept
    assert list(_frames) == [(A2, (g, g)) for g in range(9, 17)]
    assert build_hat(A2, (1, 1), (17, 17), ((16,), ())).quiver is hat.quiver


def test_counts_and_their_verification_leave_the_hat_frames_alone(engine):
    before = list(_frames.items())
    assert count_subreps(THETA4, (1, 2), (3, 3), engine) == 6
    assert si_dimension(THETA4, (1, 2), (3, 3), engine) == 6
    assert verify_counts(THETA4, (1, 2), (3, 3), engine).passed
    assert list(_frames.items()) == before
