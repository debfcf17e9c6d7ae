import random

import pytest

from quivercount.counting import count_subreps, fiber_class, random_instance
from quivercount.covariants import build_hat, covariant_count, covariant_multiplicity
from quivercount.quiver import Quiver, euler_form

A2 = Quiver(2, ((0, 1),))
THETA4 = Quiver(2, ((0, 1), (0, 1), (0, 1), (0, 1)))


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
