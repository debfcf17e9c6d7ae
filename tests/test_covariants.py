import itertools
import random
from math import comb

import pytest

from quivercount import counting, covariants
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
from quivercount.covariants import _KEPT, _frames, build_hat, covariant_count, covariant_multiplicity
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


def six_three_flags_at_pairing_one():
    """Every (6,3) flag at pairing 1, as (Q, beta, alpha, pieces): a piece
    is one box at any vertex whose rectangle has room, whether or not it is
    in the class."""
    box = partitions_in_rectangle(Rectangle(3, 3))
    for lam, mu, nu in itertools.product(box, repeat=3):
        if size(lam) + size(mu) + size(nu) == 8:
            Q, beta, alpha = flag_instance(lam, mu, nu, 3, 6)
            pieces = [
                tuple((1,) if y == x else () for y in range(Q.nvertices))
                for x in range(Q.nvertices)
                if beta[x] and alpha[x] > beta[x]
            ]
            yield Q, beta, alpha, pieces


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
    flags = pieces = 0
    for Q, beta, alpha, one_box in six_three_flags_at_pairing_one():
        flags += 1
        for piece in one_box:
            hat = build_hat(Q, beta, alpha, piece)
            assert (hat.quiver, hat.beta, hat.alpha) == reference_hat(Q, beta, alpha, piece)
            pieces += 1
    assert flags == 321 and pieces > flags


def pieces_of(beta, gamma, total):
    """Every mu with mu(x) inside the beta(x) x gamma(x) box and sizes
    adding up to total, in or out of the class."""
    if not beta:
        if total == 0:
            yield ()
        return
    for p in partitions_in_rectangle(Rectangle(beta[0], gamma[0])):
        if size(p) <= total:
            for rest in pieces_of(beta[1:], gamma[1:], total - size(p)):
                yield (p, *rest)


def test_hat_equals_the_reference_construction_on_multi_part_pieces():
    # pairing 3 and 4, with pieces drawn from every mu of the right size:
    # multi-part mu(x), and boxes spread over several vertices
    rng = random.Random(38)
    instances = multi = spread = 0
    while instances < 60:
        Q, beta, alpha = random_instance(
            rng, max_verts=4, max_arrows=4, max_dim=3, min_arrows=1, require_zero_pairing=False
        )
        gamma = tuple(a - b for a, b in zip(alpha, beta))
        pairing = euler_form(Q, beta, gamma)
        if not 3 <= pairing <= 4:
            continue
        instances += 1
        every = list(pieces_of(beta, gamma, pairing))
        for mu in rng.sample(every, min(len(every), 40)):
            hat = build_hat(Q, beta, alpha, mu)
            assert (hat.quiver, hat.beta, hat.alpha) == reference_hat(Q, beta, alpha, mu), (Q.arrows, beta, alpha, mu)
            multi += any(len(p) > 1 for p in mu)
            spread += sum(map(bool, mu)) > 1
    assert multi >= 200 and spread >= 200


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


def test_hat_frames_stay_bounded(engine):
    assert _KEPT == 8
    for g in range(1, 17):
        # (1, 1) inside (1 + g, 1 + g) on A2 has pairing g
        hat = build_hat(A2, (1, 1), (1 + g, 1 + g), ((g,), ()))
        assert hat.quiver.nvertices == 2 + 2 * g
        assert len(_frames) <= 8
    # the newest frames are the ones kept
    assert list(_frames) == [(A2, (g, g)) for g in range(9, 17)]
    assert build_hat(A2, (1, 1), (17, 17), ((16,), ())).quiver is hat.quiver

    # many pieces on one frame: (2, 2) inside (6, 4) on A2 has pairing 8,
    # and its pieces put their 8 boxes in the 2x4 and 2x2 boxes in 11 ways,
    # each with its own label counts on the hat's arrows
    beta, alpha = (2, 2), (6, 4)
    fc = fiber_class(A2, beta, alpha, engine)
    pieces = [
        (m0, m1)
        for m0 in partitions_in_rectangle(Rectangle(2, 4))
        for m1 in partitions_in_rectangle(Rectangle(2, 2))
        if size(m0) + size(m1) == 8
    ]
    seen = []
    for mu in pieces:
        assert covariant_count(A2, beta, alpha, mu, engine) == fc.coefficient(mu)
        counts = hat_label_counts(build_hat(A2, beta, alpha, mu))
        if counts not in seen:
            seen.append(counts)
        orders = _frames[A2, (4, 2)][2]
        assert len(orders) <= 8
    assert len(pieces) == len(seen) == 11
    # the newest orders are the ones kept
    assert list(orders) == seen[-8:]


def test_counts_and_their_verification_leave_the_hat_frames_alone(engine):
    # a piece first, so that its frame holds an order
    beta, alpha, mu = (2, 2), (5, 3), ((1,), (1,))
    assert covariant_count(THETA3, beta, alpha, mu, engine) == 3
    hat = build_hat(THETA3, beta, alpha, mu)
    assert _frames[THETA3, (3, 1)][2]

    def snapshot():
        return [(key, quiver, gamma, dict(orders)) for key, (quiver, gamma, orders) in _frames.items()]

    before = snapshot()
    assert count_subreps(THETA4, (1, 2), (3, 3), engine) == 6
    assert si_dimension(THETA4, (1, 2), (3, 3), engine) == 6
    assert verify_counts(THETA4, (1, 2), (3, 3), engine).passed
    # the hat itself, counted as a plain instance, plans without the memo
    assert count_subreps(hat.quiver, hat.beta, hat.alpha, engine) == 3
    assert si_dimension(hat.quiver, hat.beta, hat.alpha, engine) == 3
    assert verify_counts(hat.quiver, hat.beta, hat.alpha, engine).passed
    assert snapshot() == before


def hat_label_counts(hat):
    """The label count binom(beta(t) + gamma(h), beta(t)) of each hat arrow:
    the key of the frame's arrow orders."""
    gamma = tuple(a - b for a, b in zip(hat.alpha, hat.beta))
    return tuple(comb(hat.beta[t] + gamma[h], hat.beta[t]) for t, h in hat.quiver.arrows)


def test_each_piece_folds_the_plan_of_its_hat_and_orders_once_per_label_counts(monkeypatch, engine):
    # pieces at pairing 1 to 4, where the label counts differ between the
    # pieces of one instance, then every (6,3) flag at pairing 1, each with
    # one box at every vertex whose rectangle has room (in the class or not)
    rng = random.Random(38)
    groups = {}  # (Q, gamma) -> [(beta, alpha, mu)], so each frame is built once
    while sum(map(len, groups.values())) < 250:
        Q, beta, alpha = random_instance(
            rng, max_verts=4, max_arrows=4, max_dim=3, min_arrows=1, require_zero_pairing=False
        )
        gamma = tuple(a - b for a, b in zip(alpha, beta))
        if 1 <= euler_form(Q, beta, gamma) <= 4:
            for mu in fiber_class(Q, beta, alpha, engine).coeffs:
                groups.setdefault((Q, gamma), []).append((beta, alpha, mu))
    pool = len(groups)
    for Q, beta, alpha, one_box in six_three_flags_at_pairing_one():
        gamma = tuple(a - b for a, b in zip(alpha, beta))
        groups[Q, gamma] = [(beta, alpha, piece) for piece in one_box]
    assert len(groups) == pool + 321  # each flag has its own frame

    runs, folded = [], []
    greedy, fold = counting._greedy_arrow_order, covariants._labeled_sum

    def counted(Q, counts):
        runs.append(Q)
        return greedy(Q, counts)

    def recorded(plan, *args, **kwargs):
        folded.append(plan)
        return fold(plan, *args, **kwargs)

    monkeypatch.setattr(counting, "_greedy_arrow_order", counted)
    monkeypatch.setattr(covariants, "_labeled_sum", recorded)
    _frames.clear()
    per_frame = {}  # (Q, gamma) -> the label counts of its pieces so far
    for (Q, gamma), pieces in groups.items():
        seen = per_frame[Q, gamma] = set()
        for beta, alpha, mu in pieces:
            before = len(runs)
            covariant_count(Q, beta, alpha, mu, engine)
            hat = build_hat(Q, beta, alpha, mu)
            counts = hat_label_counts(hat)
            # the greedy runs for the first piece of each label counts only
            assert len(runs) - before == (counts not in seen), (Q.arrows, beta, alpha, mu)
            seen.add(counts)
            hat_gamma = tuple(a - b for a, b in zip(hat.alpha, hat.beta))
            assert folded.pop() == _plan(hat.quiver, hat.beta, hat_gamma), (Q.arrows, beta, alpha, mu)
    # no frame meets more label counts than it keeps orders for, so no
    # order is dropped and run again
    assert max(map(len, per_frame.values())) <= _KEPT
    # many of the pool's frames meet several counts; a flag's pieces share one
    frames = list(per_frame.values())
    assert sum(len(counts) > 1 for counts in frames[:pool]) >= 10
    assert all(len(counts) == 1 for counts in frames[pool:])


def test_covariant_count_checks_each_hat_once(monkeypatch, engine):
    seen = []
    check = covariants.check_instance

    def counted(Q, *args):
        seen.append(Q)
        return check(Q, *args)

    monkeypatch.setattr(covariants, "check_instance", counted)
    monkeypatch.setattr(counting, "check_instance", counted)
    beta, alpha = (2, 2), (5, 3)
    fc = fiber_class(THETA3, beta, alpha, engine)
    hat = build_hat(THETA3, beta, alpha, ((1,), (1,)))
    seen.clear()
    for mu, coeff in fc.sorted_items():
        assert covariant_count(THETA3, beta, alpha, mu, engine) == coeff
    # per piece: the instance, by the mu check, and the hat, once
    assert seen == [THETA3, hat.quiver] * len(fc.coeffs)


@pytest.mark.parametrize(
    "wrong, error",
    [
        (lambda p: (), AssertionError),  # mu left out: the pairing stays 8
        (lambda p: conjugate(p)[1:], AssertionError),  # the first column left out
        (lambda p: (*conjugate(p), 1), ValueError),  # one arm vertex too many
    ],
    ids=["mu-dropped", "column-dropped", "arm-too-long"],
)
def test_an_arm_error_in_build_hat_is_caught(monkeypatch, wrong, error):
    # A2 with (2, 2) inside (6, 4) has pairing 8; mu fills it
    beta, alpha, mu = (2, 2), (6, 4), ((3, 1), (2, 2))
    build_hat(A2, beta, alpha, mu)
    monkeypatch.setattr(covariants, "conjugate", wrong)
    with pytest.raises(error, match="arm enlargement failed" if error is AssertionError else "has length"):
        build_hat(A2, beta, alpha, mu)
    with pytest.raises(error):
        covariant_count(A2, beta, alpha, mu)
