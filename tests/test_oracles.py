import dataclasses
import hashlib
import itertools
import random
from functools import reduce

import pytest

from quivercount import ffield, oracles
from quivercount.ffield import GF, mat_det, mat_rank, mat_rref, mat_vec, poly_eval
from quivercount.oracles import (
    BasisReport,
    BudgetExceededError,
    DegenerateSampleError,
    FFRep,
    _eliminate,
    _kronecker_form,
    _kronecker_lines,
    _lift_bases,
    _PolyRing,
    _minor_polys,
    _minors,
    _resultant_t,
    _raw_point_count,
    _span_rows,
    _walk_subreps,
    enumerate_subreps,
    gaussian_binomial,
    list_subreps,
    random_rep,
    sampled_subrep_count,
    si_rank_oracle,
    verify_determinant_basis,
)
from quivercount.counting import NonzeroPairingError, random_instance, si_dimension, triple_flag_instance
from quivercount.lr import LREngine
from quivercount.partitions import Rectangle, partitions_in_rectangle, size
from quivercount.quiver import Quiver


def theta(m: int) -> Quiver:
    return Quiver(2, tuple((0, 1) for _ in range(m)))


THETA2 = theta(2)
THETA4 = theta(4)
F5 = GF(5)

# generic two-arrow sample: identity plus distinct eigenvalues
V_GEN = FFRep(THETA2, F5, (2, 2), (((1, 0), (0, 1)), ((1, 0), (0, 2))))
V_ZERO = FFRep(THETA2, F5, (2, 2), (((0, 0), (0, 0)), ((0, 0), (0, 0))))


def test_gaussian_binomial_pins():
    assert gaussian_binomial(2, 1, 5) == 6
    assert gaussian_binomial(4, 2, 3) == 130
    assert gaussian_binomial(3, 0, 7) == 1
    assert gaussian_binomial(3, 3, 7) == 1
    with pytest.raises(ValueError):
        gaussian_binomial(2, 3, 7)
    # no field has fewer than two elements (q = 1 used to divide by zero,
    # q = 0 to answer 1 for (3, 1))
    for q in (1, 0, -3):
        with pytest.raises(ValueError, match=f"q={q}"):
            gaussian_binomial(3, 1, q)


def test_gaussian_binomial_symmetry_and_recurrence():
    for q in (2, 3, 5):
        for n in range(6):
            for r in range(n + 1):
                assert gaussian_binomial(n, r, q) == gaussian_binomial(n, n - r, q)
                if 0 < r <= n - 1:
                    # q-Pascal
                    assert gaussian_binomial(n, r, q) == gaussian_binomial(
                        n - 1, r - 1, q
                    ) + q**r * gaussian_binomial(n - 1, r, q)


def test_enumerate_generic_theta2():
    assert enumerate_subreps(THETA2, V_GEN, (1, 1)) == 2
    subs = list_subreps(THETA2, V_GEN, (1, 1))
    assert subs == ((((1, 0),), ((1, 0),)), (((0, 1),), ((0, 1),)))


def test_enumerate_zero_rep_counts_all_subspace_tuples():
    assert enumerate_subreps(THETA2, V_ZERO, (1, 1)) == gaussian_binomial(2, 1, 5) ** 2


def test_enumerate_trivial_beta():
    assert enumerate_subreps(THETA2, V_GEN, (0, 0)) == 1
    assert enumerate_subreps(THETA2, V_GEN, (2, 2)) == 1


def test_enumerate_and_list_reject_a_rep_on_another_quiver():
    # theta(2) and theta(4) share their vertices, so the dimension check
    # alone cannot tell them apart
    V = random_rep(THETA4, (3, 3), F5, 0)
    assert enumerate_subreps(THETA4, V, (1, 2)) == 4
    for walk in (enumerate_subreps, list_subreps):
        with pytest.raises(ValueError, match="different quiver"):
            walk(THETA2, V, (1, 2))


def test_listed_subreps_are_closed_under_arrows():
    from quivercount.ffield import mat_rank, mat_vec

    rng = random.Random(6)
    for _ in range(10):
        Q = theta(rng.randint(1, 3))
        alpha = (rng.randint(1, 2), rng.randint(1, 3))
        beta = tuple(rng.randint(0, a) for a in alpha)
        V = random_rep(Q, alpha, F5, rng.randrange(1 << 30))
        for bases in list_subreps(Q, V, beta):
            for i, (t, h) in enumerate(Q.arrows):
                A = V.mats[i]
                for row in bases[t]:
                    img = mat_vec(F5, A, list(row))
                    stacked = [list(r) for r in bases[h]] + [img]
                    assert mat_rank(F5, stacked) == len(bases[h])


def _random_acyclic_instance(rng, F, max_points: int = 20000):
    """Up to four vertices in a shuffled order, arrows going forward in
    it, dimensions 0..3, a random beta inside alpha and at most max_points
    subspace tuples."""
    while True:
        n = rng.randint(1, 4)
        order = list(range(n))
        rng.shuffle(order)
        arrows = []
        for _ in range(rng.randint(0, 5) if n > 1 else 0):
            i, j = sorted(rng.sample(range(n), 2))
            arrows.append((order[i], order[j]))
        Q = Quiver(n, tuple(arrows))
        alpha = tuple(rng.randint(0, 3) for _ in range(n))
        beta = tuple(rng.randint(0, a) for a in alpha)
        if _raw_point_count(Q, alpha, beta, F.q) <= max_points:
            return Q, random_rep(Q, alpha, F, rng.randrange(1 << 30)), beta


def _reduced(sub):
    """Per-vertex reduced echelon form of a listed tuple of bases."""
    return tuple(tuple(map(tuple, mat_rref(F5, [list(r) for r in b])[0])) for b in sub)


def _assert_closed(Q, V, sub):
    for i, (t, h) in enumerate(Q.arrows):
        A = V.mats[i]
        for row in sub[t]:
            stacked = [list(r) for r in sub[h]] + [mat_vec(V.field, A, list(row))]
            assert mat_rank(V.field, stacked) == len(sub[h])


@pytest.mark.parametrize("F", [F5, GF(3, 2)], ids=["F5", "GF9"])
def test_dual_walk_counts_match_forward_walk(F):
    # both directions run explicitly, whichever one the rule would pick
    rng = random.Random(11)
    nontrivial = 0
    for _ in range(60):
        Q, V, beta = _random_acyclic_instance(rng, F)
        gamma = tuple(a - b for a, b in zip(V.dim, beta))
        D = V.dual()
        forward = _walk_subreps(Q, V, beta, False)[0]
        assert forward == _walk_subreps(D.quiver, D, gamma, False)[0], (Q.arrows, V.dim, beta)
        assert forward == enumerate_subreps(Q, V, beta)
        nontrivial += forward > 1
    assert nontrivial >= 10


def test_dual_walk_lists_the_forward_subreps():
    # theta(2) (1,0)/(3,1): the sink is fixed, so the rule walks V*
    Q, beta = THETA2, (1, 0)
    for seed in range(4):
        V = random_rep(Q, (3, 1), F5, seed)
        stats = {}
        listed = list_subreps(Q, V, beta)
        assert len(listed) == enumerate_subreps(Q, V, beta, stats=stats)
        count, forward, forward_nodes = _walk_subreps(Q, V, beta, True)
        assert stats["nodes"] < forward_nodes  # the dual walk ran
        assert set(listed) == set(forward) and count == len(listed)
        for sub in listed:
            assert sub == _reduced(sub)
            _assert_closed(Q, V, sub)
    # random instances, zero-dimensional vertices included: same tuples up
    # to the choice of basis, every one closed under the arrows
    rng = random.Random(12)
    for _ in range(40):
        Q, V, beta = _random_acyclic_instance(rng, F5)
        listed = list_subreps(Q, V, beta)
        forward = _walk_subreps(Q, V, beta, True)[1]
        assert sorted(map(_reduced, listed)) == sorted(map(_reduced, forward))
        for sub in listed:
            _assert_closed(Q, V, sub)


def test_listed_bases_are_reduced_after_either_walk():
    # A2 (1,3)/(1,2) walks forward and lifts the image line to planes;
    # theta(2) (1,0)/(3,1) walks the dual
    A2 = Quiver(2, ((0, 1),))
    cases = [(A2, random_rep(A2, (1, 3), F5, 0), (1, 2)), (THETA2, random_rep(THETA2, (3, 1), F5, 0), (1, 0))]
    rng = random.Random(12)
    cases += [_random_acyclic_instance(rng, F5) for _ in range(40)]
    walked = {"forward": 0, "dual": 0}
    for Q, V, beta in cases:
        gamma = tuple(a - b for a, b in zip(V.dim, beta))
        forward_nodes = _walk_subreps(Q, V, beta, False)[2]
        dual_nodes = _walk_subreps(V.dual().quiver, V.dual(), gamma, False)[2]
        stats = {}
        enumerate_subreps(Q, V, beta, stats=stats)
        if forward_nodes != dual_nodes:
            walked["forward" if stats["nodes"] == forward_nodes else "dual"] += 1
        for sub in list_subreps(Q, V, beta):
            assert sub == _reduced(sub), (Q.arrows, V.dim, beta, sub)
    assert walked["forward"] >= 5 and walked["dual"] >= 5, walked


def _lift_pool():
    """(F, span rows, their pivots, n) over GF(2), GF(5), GF(4) and GF(9),
    n <= 4 and every span rank s <= n.  The span is reduced from random
    rows with about half their entries zero, so its pivots vary."""
    rng = random.Random(37)
    for F in (GF(2), GF(5), GF(2, 2), GF(3, 2)):
        for n in range(5):
            for s in range(n + 1):
                for _ in range(3 if s else 1):
                    srows, pivots = [], ()
                    while len(srows) != s:
                        rows = [[rng.randrange(F.q) if rng.random() < 0.5 else 0 for _ in range(n)] for _ in range(s)]
                        srows, pivots = _span_rows(F, rows)
                    yield F, srows, pivots, n


# a digest of every basis _lift_bases yields over _lift_pool(), in order, as
# the generator gave them when it enumerated the quotient's reduced bases
# and copied each into the non-pivot columns; every listing and BasisReport
# pin rests on this order
LIFTED_BASES_SHA256 = "ec032ab0a2c5087da41105e31177b6072d9f0c4a98ee3d049ed660ada90b035c"


def test_lifted_bases_match_pins():
    digest = hashlib.sha256()
    for F, srows, pivots, n in _lift_pool():
        s = len(srows)
        for d in range(s, n + 1):
            yielded, spaces = 0, set()
            for basis in _lift_bases(F, srows, pivots, n, d):
                digest.update(repr(tuple(tuple(r) for r in basis)).encode())
                # d independent rows whose span contains the given one
                reduced = _span_rows(F, basis)[0]
                assert len(reduced) == d and (not s or mat_rank(F, reduced + srows) == d)
                spaces.add(tuple(map(tuple, reduced)))
                yielded += 1
            # one basis for each subspace of F^n that contains the span
            assert yielded == len(spaces) == gaussian_binomial(n - s, d - s, F.q), (F.q, n, s, d)
    assert digest.hexdigest() == LIFTED_BASES_SHA256


def _reference_lift_bases(F, srows, pivots, n, d):
    """The unfiltered generator as it was when the walk tested orbits on
    the bases it had built: a fresh row list per basis."""
    nonpivot = [c for c in range(n) if c not in pivots]
    for qpivots in itertools.combinations(nonpivot, d - len(srows)):
        free = [(r, c) for r, p in enumerate(qpivots) for c in nonpivot if c > p and c not in qpivots]
        for values in itertools.product(F.elements(), repeat=len(free)):
            rows = [[F.zero] * n for _ in qpivots]
            for row, p in zip(rows, qpivots):
                row[p] = F.one
            for (r, c), v in zip(free, values):
                rows[r][c] = v
            yield srows + rows


def _reference_least_conjugate_orbit(F, rows):
    """The number of distinct Frobenius conjugates of rows (entrywise p-th
    powers, compared as lists) when rows is the least of them, else 0."""
    moved = [a for r in rows for a in r if a >= F.p]
    size, conj = 1, moved
    while True:
        conj = [F.frobenius(a) for a in conj]
        if conj == moved:
            return size
        if conj < moved:
            return 0
        size += 1


def _reference_orbit_bases(F, srows, pivots, n, d):
    """(basis, orbit size) for each basis whose lifted rows are the least
    of their conjugates, in the unfiltered order."""
    for basis in _reference_lift_bases(F, srows, pivots, n, d):
        size = _reference_least_conjugate_orbit(F, basis[len(srows):])
        if size:
            yield basis, size


def _orbit_pool():
    """(F, span rows, their pivots, n, d) over six extensions, n <= 4,
    every span rank s <= d <= n whose [n - s, d - s]_q bases number at most
    7,000.  The span rows are reduced from sparse random rows over F_p,
    as a count walk meets them; one more draw per (F, n, s > 0, d) takes
    its rows over F, which the walk never filters under."""
    rng = random.Random(41)
    for F in (GF(2, 2), GF(3, 2), GF(5, 2), GF(13, 2), GF(2, 3), GF(3, 4)):
        for n in range(1, 5):
            for d in range(n + 1):
                for s in range(d + 1):
                    if gaussian_binomial(n - s, d - s, F.q) > 7000:
                        continue
                    for entries in [F.p] * (2 if s else 1) + [F.q] * (s > 0):
                        srows, pivots = [], ()
                        while len(srows) != s:
                            rows = [[rng.randrange(entries) if rng.random() < 0.5 else 0 for _ in range(n)] for _ in range(s)]
                            srows, pivots = _span_rows(F, rows)
                        yield F, srows, pivots, n, d


def test_orbit_filter_matches_the_test_on_built_rows():
    # the filter reads the free values off the product tuple; the reference
    # builds every basis and tests its lifted rows.  Same (basis, size)
    # pairs in the same order, and each frame's sizes add up to its
    # unfiltered bases
    frames = kept = 0
    ranks = set()
    for F, srows, pivots, n, d in _orbit_pool():
        got = [(tuple(map(tuple, b)), size) for b, size in _lift_bases(F, srows, pivots, n, d, orbits=True)]
        want = [(tuple(map(tuple, b)), size) for b, size in _reference_orbit_bases(F, srows, pivots, n, d)]
        assert got == want, (F, srows, n, d)
        unfiltered = sum(1 for _ in _lift_bases(F, srows, pivots, n, d))
        assert sum(size for _, size in got) == unfiltered == gaussian_binomial(n - len(srows), d - len(srows), F.q)
        frames += 1
        kept += len(got)
        ranks.add((F.q, len(srows), d))
    # every field meets every span rank from 0 to d for some d >= 2
    for F in (GF(2, 2), GF(3, 2), GF(5, 2), GF(13, 2), GF(2, 3), GF(3, 4)):
        assert {s for q, s, d in ranks if q == F.q and d == 2} == {0, 1, 2}, F
    assert frames >= 300 and kept >= 10000, (frames, kept)


def test_sampled_count_reports_nodes():
    got = sampled_subrep_count(THETA2, (1, 0), (3, 1), 13, max_ext_degree=2, trials=3, seed=0)
    assert got.method == "enumerate"
    assert got.modal == 1
    assert 0 < got.nodes <= 50
    solved = sampled_subrep_count(THETA2, (1, 1), (2, 2), 13, max_ext_degree=1, trials=2, seed=0, budget=10)
    assert solved.method == "solve" and solved.nodes == 0


def test_budget_gate_names_the_point_count():
    with pytest.raises(BudgetExceededError) as ei:
        enumerate_subreps(THETA2, V_ZERO, (1, 1), budget=10)
    assert ei.value.points == 36
    assert ei.value.budget == 10
    assert "36" in str(ei.value)


def test_kronecker_eligibility():
    assert _kronecker_form(THETA2, (1, 1), (2, 2)) == (0, 1)
    assert _kronecker_form(THETA4, (1, 2), (3, 3)) == (0, 1)
    # beta at the source must be 1 and the minor size must stay small
    assert _kronecker_form(THETA2, (2, 2), (4, 4)) is None
    assert _kronecker_form(Quiver(3, ((0, 1), (1, 2))), (1, 1, 1), (2, 2, 2)) is None
    assert _kronecker_form(theta(5), (1, 4), (2, 5)) is None


def test_minor_polys_match_numeric_determinants():
    # each chart's minors, evaluated at (s0, t0), against mat_det (Gaussian
    # elimination) of the same submatrix of [A_1 v | ... | A_m v]
    rng = random.Random(11)
    coords = {"0": (), "1": ((1,),), "s": ((0, 1),), "t": ((), (1,))}
    checks = 0
    for F in (GF(13), GF(101)):
        for _ in range(20):
            m, n_src, b = rng.randint(1, 4), rng.randint(1, 3), rng.randint(0, 2)
            n_tgt = rng.randint(b + 1, b + 2)
            V = random_rep(theta(m), (n_src, n_tgt), F, rng.randrange(10**6))
            for i in range(n_src):
                names = ["0"] * i + ["1"] + ["s", "t"][: n_src - 1 - i]
                minors = _minor_polys(F, V.mats, [coords[c] for c in names], b)
                for _ in range(3):
                    s0, t0 = F.sample(rng), F.sample(rng)
                    v = [{"0": 0, "1": 1, "s": s0, "t": t0}[c] for c in names]
                    cols = [mat_vec(F, A, v) for A in V.mats]
                    dets = [
                        mat_det(F, [[cols[c][r] for c in cs] for r in rs])
                        for rs in itertools.combinations(range(n_tgt), b + 1)
                        for cs in itertools.combinations(range(m), b + 1)
                    ]
                    values = [poly_eval(F, [poly_eval(F, c, s0) for c in f], t0) for f in minors]
                    assert values == dets, (F, V.mats, names, s0, t0)
                    checks += len(dets)
    assert checks >= 500


def test_minors_match_numeric_determinants():
    # every r x r minor over a field, against mat_det (Gaussian elimination)
    # of its submatrix; about a third of the entries are zero, so some
    # minors vanish and must be missing
    rng = random.Random(5)
    present = missing = 0
    for F in (GF(13), GF(101)):
        for _ in range(25):
            nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
            M = [[F.sample(rng) if rng.random() < 0.7 else 0 for _ in range(ncols)] for _ in range(nrows)]
            for r in range(1, 5):
                got = _minors(F, M, r)
                for rows in itertools.combinations(range(nrows), r):
                    for cols in itertools.combinations(range(ncols), r):
                        det = mat_det(F, [[M[i][j] for j in cols] for i in rows])
                        assert got.pop((rows, cols), 0) == det, (F, M, rows, cols)
                        present += det != 0
                        missing += det == 0
                assert not got  # no key that is not an r x r minor
    assert present >= 1000 and missing >= 100


def _sylvester(F, f: tuple, g: tuple) -> list[list]:
    """Numeric Sylvester matrix in block order: deg g shifts of f, then
    deg f shifts of g, coefficients descending."""
    m, n = len(f) - 1, len(g) - 1
    rows = [[0] * i + list(reversed(f)) + [0] * (n - 1 - i) for i in range(n)]
    return rows + [[0] * i + list(reversed(g)) + [0] * (m - 1 - i) for i in range(m)]


def test_resultant_t_matches_numeric_sylvester():
    # f, g in F_p[s][t] of t-degree 1..4 and s-degree <= 2: the resultant
    # at s0 is the determinant of the Sylvester matrix of f(s0, t) and
    # g(s0, t) wherever neither leading coefficient vanishes
    rng = random.Random(9)
    F13 = GF(13)
    Fs = _PolyRing(F13)

    def poly(tdeg):
        while True:
            cs = [ffield.poly_trim(F13, [F13.sample(rng) for _ in range(rng.randint(0, 3))]) for _ in range(tdeg + 1)]
            if cs[-1]:
                return tuple(cs)

    checks = 0
    for _ in range(30):
        f, g = poly(rng.randint(1, 4)), poly(rng.randint(1, 4))
        res = _resultant_t(F13, f, g)
        for s0 in range(13):
            fs, gs = ([poly_eval(F13, c, s0) for c in h] for h in (f, g))
            if fs[-1] and gs[-1]:
                assert poly_eval(F13, res, s0) == mat_det(F13, _sylvester(F13, fs, gs)), (f, g, s0)
                checks += 1
        # a common factor of positive t-degree makes the resultant vanish
        h = poly(rng.randint(1, 2))
        f1, g1 = poly(rng.randint(0, 2)), poly(rng.randint(0, 2))
        assert _resultant_t(F13, ffield.poly_mul(Fs, h, f1), ffield.poly_mul(Fs, h, g1)) == ()
    assert checks >= 300


def test_kronecker_solver_matches_enumeration():
    cases = [
        (THETA2, (1, 1), (2, 2)),
        (THETA2, (1, 1), (3, 3)),
        (THETA4, (1, 2), (3, 3)),
        (theta(3), (1, 1), (2, 3)),
        (THETA4, (1, 3), (2, 4)),
    ]
    checks = 0
    for Q, beta, alpha in cases:
        src, tgt = _kronecker_form(Q, beta, alpha)
        for seed in range(12):
            V = random_rep(Q, alpha, F5, seed)
            try:
                fast = _walk_subreps(Q, V, beta, False, source=_kronecker_lines(F5, _eliminate(Q, V, beta, src, tgt)))[0]
            except DegenerateSampleError:
                continue
            assert fast == enumerate_subreps(Q, V, beta), (Q.arrows, beta, alpha, seed)
            checks += 1
    assert checks >= 55


def test_kronecker_solver_matches_enumeration_extension_field():
    F9 = GF(3, 2)
    src, tgt = _kronecker_form(THETA4, (1, 2), (3, 3))
    agreed = 0
    for seed in range(6):
        V = random_rep(THETA4, (3, 3), F9, seed)
        try:
            lines = _kronecker_lines(F9, _eliminate(THETA4, V, (1, 2), src, tgt))
            fast = _walk_subreps(THETA4, V, (1, 2), False, source=lines)[0]
        except DegenerateSampleError:
            continue
        assert fast == enumerate_subreps(THETA4, V, (1, 2))
        agreed += 1
    assert agreed >= 4


def _elimination_pool(draws: int):
    """The solver-eligible draws among `draws` seeded ones: theta(2) ..
    theta(5), a source of dimension 1..3, b = 1..3, a target of dimension
    b..b+2, p in {3, 5, 13, 101}; draw i samples its representation with
    seed i."""
    rng = random.Random(7)
    fields = {}
    for i in range(draws):
        m, n_src, b = rng.randint(2, 5), rng.randint(1, 3), rng.randint(1, 3)
        n_tgt = rng.randint(b, b + 2)
        p = rng.choice((3, 5, 13, 101))
        Q, beta, alpha = theta(m), (1, b), (n_src, n_tgt)
        if _kronecker_form(Q, beta, alpha) is not None:
            yield Q, beta, random_rep(Q, alpha, fields.setdefault(p, GF(p)), i)


# a digest of repr(_eliminate(...)), or of the degeneracy message, over the
# eligible draws of _elimination_pool(150), as the solver gave them when
# every minor was a permutation expansion and every resultant a Bareiss
# elimination
ELIMINANTS_SHA256 = "d2cf68b427fad251546a53ad99f302fa3d734546a011f393caa3746b08f721fd"


def test_eliminants_match_pins():
    digest = hashlib.sha256()
    outcomes = {"eliminated": 0, "degenerate": 0}
    for Q, beta, V in _elimination_pool(150):
        try:
            out = _eliminate(Q, V, beta, 0, 1)
            outcomes["eliminated"] += 1
        except DegenerateSampleError as e:
            out = str(e)
            outcomes["degenerate"] += 1
        digest.update(repr(out).encode())
    assert outcomes == {"eliminated": 89, "degenerate": 35}
    assert digest.hexdigest() == ELIMINANTS_SHA256


def test_minors_in_s_alone_drop_the_chart_or_leave_a_vertical_line():
    # theta(3) with alpha(src) = 3 and a zero last column in every arrow:
    # on the chart v = (1, s, t) the images A_i v = A_i (1, s, 0) do not
    # depend on t, so every 2-minor is a polynomial in s alone.  Over F_5
    # the images are (1, s), (s, 1) and (1, 2): minors 1 - s^2, 2 - s and
    # 2s - 1 have no common root, and the chart holds no line.  With
    # (1, 1) as the third image the minors 1 - s^2, 1 - s and s - 1 share
    # s = 1, where every (1, 1, t) spans one image: a vertical line.
    Q = theta(3)
    first, second = ((1, 0, 0), (0, 1, 0)), ((0, 1, 0), (1, 0, 0))
    for third, common_root in ((((1, 0, 0), (2, 0, 0)), False), (((1, 0, 0), (1, 0, 0)), True)):
        V = FFRep(Q, F5, (3, 2), (first, second, third))
        if common_root:
            with pytest.raises(DegenerateSampleError, match="vertical line"):
                _eliminate(Q, V, (1, 1), 0, 1)
        else:
            # charts (1, s, t) and (0, 1, s) hold no line; (0, 0, 1) is in
            # every arrow's kernel
            assert _eliminate(Q, V, (1, 1), 0, 1) == [((0, 0, 1), None, None)]


def test_sampled_count_requires_zero_pairing():
    with pytest.raises(ValueError):
        sampled_subrep_count(Quiver(2, ((0, 1),)), (1, 1), (2, 2), 5)


def test_sampled_count_theta2_modal():
    got = sampled_subrep_count(THETA2, (1, 1), (2, 2), 101, max_ext_degree=2, trials=8, seed=0)
    assert got.modal == 2
    assert not got.inconclusive
    assert got.method == "solve"
    assert sum(got.tally.values()) == 8
    assert len(got.per_trial) == 8
    # every per-trial series is nondecreasing in the extension degree
    for series in got.per_trial:
        vals = [v for v in series if v is not None]
        assert vals == sorted(vals)


def test_sampled_count_enumerate_and_solve_agree():
    # same instance forced down both paths by the budget knob
    slow = sampled_subrep_count(
        THETA2, (1, 1), (2, 2), 13, max_ext_degree=2, trials=6, seed=1, budget=10**7
    )
    fast = sampled_subrep_count(
        THETA2, (1, 1), (2, 2), 13, max_ext_degree=2, trials=6, seed=1, budget=10
    )
    assert slow.method == "enumerate"
    assert fast.method == "solve"
    assert slow.per_trial == fast.per_trial
    assert slow.modal == fast.modal == 2


@pytest.mark.parametrize(
    "seed,per_trial",
    [
        (0, ((0, 0, 0, 0), (1, 3, 4, 3), (0, 2, 0, 6), (1, 3, 4, 3))),
        (1, ((3, 3, 6, 3), (1, 3, 4, 3), (1, 1, 1, 1), (0, 0, 0, 0))),
        (2, ((2, 2, 2, 6), (1, 3, 4, 3), (2, 2, 2, 6), (0, 0, 0, 0))),
    ],
)
def test_solve_path_theta4_per_trial_pins(seed, per_trial):
    # the solve path over GF(101^j), j <= 4, runs the table-free extension
    # arithmetic at j = 3 and 4
    got = sampled_subrep_count(THETA4, (1, 2), (3, 3), 101, max_ext_degree=4, trials=4, seed=seed)
    assert got.method == "solve"
    assert got.per_trial == per_trial


@pytest.mark.parametrize(
    "seed,per_trial,tally,modal,degenerate",
    [
        (3, ((2, 6, 2, 6), (3, 3, 6, 3), (1, 1, 1, 1), (1, 1, 1, 1)), {1: 2, 3: 1, 6: 1}, 1, 0),
        (4, ((0, 2, 0, 6), (0, 2, 0, 6), (0, 2, 0, 6), (1, 1, 1, 1)), {1: 1, 6: 3}, 6, 0),
        (5, ((1, 1, 1, 1), (2, 2, 2, 6), (1, 1, 1, 1), (4, 6, 4, 6)), {1: 2, 6: 2}, None, 0),
        (6, ((1, 3, 4, 3), (0, 0, 0, 0), (3, 3, 6, 3), (1, 3, 4, 3)), {0: 1, 3: 3}, 3, 0),
        (7, ((1, 3, 4, 3), (0, 0, 0, 0), (2, 6, 2, 6), (0, 2, 0, 6)), {0: 1, 3: 1, 6: 2}, 6, 0),
        (8, ((1, 1, 1, 1), (0, 0, 6, 0), (1, 1, 1, 1), (0, 0, 0, 0)), {0: 2, 1: 2}, None, 0),
        (9, ((1, 1, 4, 1), (1, 3, 4, 3), (3, 3, 6, 3), (0, 2, 0, 6)), {1: 1, 3: 2, 6: 1}, 3, 0),
    ],
)
def test_solve_path_theta4_more_seed_pins(seed, per_trial, tally, modal, degenerate):
    got = sampled_subrep_count(THETA4, (1, 2), (3, 3), 101, max_ext_degree=4, trials=4, seed=seed)
    assert got.method == "solve"
    assert got.per_trial == per_trial
    assert got.tally == tally
    assert got.modal == modal
    assert got.inconclusive == (modal is None)
    assert got.degenerate == degenerate


def _count_eliminations(monkeypatch) -> list:
    calls = []
    eliminate = oracles._eliminate

    def counted(*args):
        calls.append(args)
        return eliminate(*args)

    monkeypatch.setattr(oracles, "_eliminate", counted)
    return calls


def test_sampler_eliminates_once_per_trial(monkeypatch):
    calls = _count_eliminations(monkeypatch)
    got = sampled_subrep_count(THETA4, (1, 2), (3, 3), 101, max_ext_degree=4, trials=4, seed=0)
    assert got.method == "solve"
    assert len(calls) == 4
    # over the base field: the sample itself, before it is re-read over F_{101^j}
    assert all(V.field == GF(101) for _, V, *_ in calls)


def test_sampler_enumerates_or_solves_per_degree(monkeypatch):
    calls = _count_eliminations(monkeypatch)
    # 102^2 points at degree 1 fit the budget; about 10^8 at degree 2 do not
    got = sampled_subrep_count(THETA2, (1, 1), (2, 2), 101, max_ext_degree=2, trials=8, seed=1)
    assert got.method == "solve"
    assert got.nodes > 0
    assert len(calls) == 8
    # the values of the solve-only sampler
    assert got.per_trial == ((2, 2), (0, 2), (0, 2), (0, 2), (0, 2), (2, 2), (2, 2), (0, 2))
    assert got.tally == {2: 8} and got.modal == 2 and got.degenerate == 0


def test_basis_eliminates_once_per_sample_that_solves(monkeypatch):
    calls = _count_eliminations(monkeypatch)
    # every theta(4) sample solves from j = 1 on over GF(101)
    assert _raw_point_count(THETA4, (3, 3), (1, 2), 101) > 10**7
    rep = verify_determinant_basis(THETA4, (1, 2), (3, 3), GF(101), seed=0)
    assert rep.extension_degree == 4 and rep.samples_tried == 3
    assert len(calls) == rep.samples_tried
    # theta(2) enumerates at j = 1 and solves from j = 2 on
    for seed, solves in ((0, 0), (2, 1)):
        calls.clear()
        rep = verify_determinant_basis(THETA2, (1, 1), (2, 2), GF(101), seed=seed)
        assert rep.samples_tried == 1
        assert len(calls) == solves


def test_elimination_error_makes_every_extension_degenerate(monkeypatch):
    zero = tuple(((0, 0, 0),) * 3 for _ in range(4))
    V = FFRep(THETA4, GF(101), (3, 3), zero)
    with pytest.raises(DegenerateSampleError):
        _eliminate(THETA4, V, (1, 2), 0, 1)
    monkeypatch.setattr(oracles, "random_rep", lambda Q, alpha, F, seed: FFRep(Q, F, alpha, zero))
    got = sampled_subrep_count(THETA4, (1, 2), (3, 3), 101, max_ext_degree=4, trials=2, seed=0)
    assert got.method == "solve"
    assert got.per_trial == ((None, None, None, None),) * 2
    assert got.degenerate == 2 and got.modal is None and got.inconclusive


def test_root_phase_degeneracy_stays_with_its_field():
    # a two-coordinate chart whose eliminant s^2 - 2 has no root in F_5 and
    # two in F_25, where both minors, s^2 - 2 and (s^2 - 2) t, vanish for
    # every t: a vertical line over F_25 only
    u = (3, 0, 1)
    charts = [((1,), u, [[u], [(), u]])]
    assert _kronecker_lines(GF(5), charts) == []
    with pytest.raises(DegenerateSampleError):
        _kronecker_lines(GF(5, 2), charts)


@pytest.mark.parametrize(
    "options, message",
    [
        ({"max_ext_degree": 0}, "extension degree must be between 1 and 4"),
        ({"max_ext_degree": 5}, "extension degree must be between 1 and 4"),
        ({"trials": 0}, "at least one trial"),
    ],
)
def test_sampled_count_rejects_degrees_and_trials_out_of_range(options, message):
    with pytest.raises(ValueError, match=message):
        sampled_subrep_count(THETA2, (1, 1), (2, 2), 5, **options)


def test_oracles_never_reach_the_lr_kernel(monkeypatch):
    # the oracles check N and M, so they share no code with the LR kernel
    # that computes both.  One oracle call reaches it on purpose:
    # verify_determinant_basis takes the N and M it checks against from
    # verify_counts (which is why the bench's oracles workload does LR
    # work in its theta(4) basis case)
    class LRCalled(Exception):
        pass

    def refuse(self, *args):
        raise LRCalled

    for name in ("expand", "lr_coefficient"):
        monkeypatch.setattr(LREngine, name, refuse)
    V = random_rep(THETA2, (2, 2), F5, 0)
    assert enumerate_subreps(THETA2, V, (1, 1)) == len(list_subreps(THETA2, V, (1, 1)))
    walked = sampled_subrep_count(THETA2, (1, 1), (2, 2), 5, trials=3, seed=0)
    solved = sampled_subrep_count(THETA4, (1, 2), (3, 3), 13, max_ext_degree=3, trials=3, seed=0)
    assert (walked.method, solved.method) == ("enumerate", "solve")
    assert si_rank_oracle(THETA4, (1, 2), (2, 1), nv=10, nw=10) == 6
    assert si_rank_oracle(THETA4, (1, 2), (2, 1)) == 6
    # the patch is live: the named call does reach the kernel
    with pytest.raises(LRCalled):
        verify_determinant_basis(THETA4, (1, 2), (3, 3), GF(13))


def test_sampled_count_budget_error_when_no_path_fits():
    with pytest.raises(BudgetExceededError):
        sampled_subrep_count(THETA2, (2, 2), (4, 4), 5, trials=2, seed=0, budget=100)


def test_si_rank_pins():
    assert si_rank_oracle(THETA2, (1, 1), (1, 1)) == 2
    assert si_rank_oracle(THETA4, (1, 2), (2, 1)) == 6
    assert si_rank_oracle(THETA2, (2, 2), (0, 0)) == 1
    assert si_rank_oracle(THETA2, (0, 0), (1, 1)) == 1


def test_si_rank_requires_zero_pairing():
    with pytest.raises(NonzeroPairingError):
        si_rank_oracle(Quiver(2, ((0, 1),)), (1, 1), (1, 1))


def test_si_rank_seed_stability():
    a = si_rank_oracle(THETA2, (1, 1), (1, 1), seed=3)
    b = si_rank_oracle(THETA2, (1, 1), (1, 1), seed=3)
    assert a == b == 2


@pytest.mark.parametrize("sizes", [{"nv": 0}, {"nw": 0}, {"nv": 0, "nw": 3}, {"nv": -2, "nw": 3}, {"nv": 3, "nw": -1}])
def test_si_rank_rejects_sample_sizes_below_one(sizes):
    with pytest.raises(ValueError, match="must be at least 1"):
        si_rank_oracle(THETA2, (1, 1), (1, 1), **sizes)


def test_si_rank_keeps_a_given_size_when_the_other_is_omitted():
    assert si_rank_oracle(THETA2, (1, 1), (1, 1), nv=1) == 1
    assert si_rank_oracle(THETA2, (1, 1), (1, 1), nw=1) == 1


def test_si_rank_sizes_itself_to_the_dimension_plus_four():
    # theta(2) and theta(4), every third (4,2) triple flag, and seeded
    # random instances within criterion 5's enumeration budget: 92 in all.
    # On generic samples the self-sized oracle ends on the matrix with
    # M + 4 samples a side; M comes from the formula here, never in the oracle
    engine = LREngine()
    pool = [(theta(2), (1, 1), (2, 2)), (THETA4, (1, 2), (3, 3))]
    parts = partitions_in_rectangle(Rectangle(2, 2))
    triples = [(l, m, n) for l in parts for m in parts for n in parts if size(l) + size(m) + size(n) == 4]
    pool += [triple_flag_instance(*t, 2, 4, engine)[:3] for t in triples[::3]]
    rng = random.Random(5)
    while len(pool) < 92:
        Q, beta, alpha = random_instance(rng, min_arrows=1)
        if _raw_point_count(Q, alpha, beta, 13**2) <= 200000:
            pool.append((Q, beta, alpha))
    dims = set()
    for i, (Q, beta, alpha) in enumerate(pool):
        m = si_dimension(Q, beta, alpha, engine)
        dims.add(m)
        gamma = tuple(a - b for a, b in zip(alpha, beta))
        F = GF((13, 101)[i % 2])
        sized = si_rank_oracle(Q, beta, gamma, nv=m + 4, nw=m + 4, field=F, seed=i)
        assert si_rank_oracle(Q, beta, gamma, field=F, seed=i) == sized, (Q.arrows, beta, alpha)
    assert dims == {0, 1, 2, 6}


def test_si_rank_keeps_its_draws_when_a_size_grows(monkeypatch):
    # rounds at 4, 8, ..., 24 evaluate each entry once: the 24 x 24 matrix
    # that a weight space of dimension 20 ends on, and no redrawn sample
    calls = []
    cv = oracles.semiinvariant_cv
    monkeypatch.setattr(oracles, "semiinvariant_cv", lambda *a: calls.append(a) or cv(*a))
    assert si_rank_oracle(theta(6), (1, 3), (3, 1)) == 20
    assert len(calls) == 24 * 24


def test_basis_theta2_over_f5():
    rep = verify_determinant_basis(THETA2, (1, 1), (2, 2), GF(5), seed=0)
    assert rep.passed and not rep.inconclusive
    assert rep.k == rep.m_expected == rep.n_expected == 2
    assert rep.extension_degree == 1
    # permutation-diagonal shape: zeros off the diagonal, units on it
    assert rep.matrix == ((2, 0), (0, 2))


def test_basis_theta2_over_f101():
    rep = verify_determinant_basis(THETA2, (1, 1), (2, 2), GF(101), seed=0)
    assert rep.passed
    assert rep.k == 2
    for i, row in enumerate(rep.matrix):
        for j, v in enumerate(row):
            assert (v != 0) == (i == j)


@pytest.mark.parametrize(
    "Q,beta,alpha,seed,ext,samples,matrix",
    [
        (THETA2, (1, 1), (2, 2), 0, 1, 1, ((32, 0), (0, 69))),
        (THETA2, (1, 1), (2, 2), 1, 1, 1, ((100, 0), (0, 1))),
        (THETA2, (1, 1), (2, 2), 2, 2, 1, ((2727, 0), (0, 7474))),
        (THETA2, (1, 1), (2, 2), 3, 2, 1, ((303, 0), (0, 9898))),
        (THETA4, (1, 2), (3, 3), 0, 4, 3, (
            (41530886, 0, 0, 0, 0, 0), (0, 479529, 0, 0, 0, 0), (0, 0, 63172358, 0, 0, 0),
            (0, 0, 0, 550936, 0, 0), (0, 0, 0, 0, 100658710, 0), (0, 0, 0, 0, 0, 4840212),
        )),
        (THETA4, (1, 2), (3, 3), 1, 3, 1, (
            (83, 0, 0, 0, 0, 0), (0, 37, 0, 0, 0, 0), (0, 0, 78, 0, 0, 0),
            (0, 0, 0, 936822, 0, 0), (0, 0, 0, 0, 807231, 0), (0, 0, 0, 0, 0, 326911),
        )),
        (THETA4, (1, 2), (3, 3), 2, 4, 1, (
            (37, 0, 0, 0, 0, 0), (0, 56733268, 0, 0, 0, 0), (0, 0, 58669539, 0, 0, 0),
            (0, 0, 0, 47339359, 0, 0), (0, 0, 0, 0, 98, 0), (0, 0, 0, 0, 0, 47459852),
        )),
        (THETA4, (1, 2), (3, 3), 3, 2, 1, (
            (4108, 0, 0, 0, 0, 0), (0, 6229, 0, 0, 0, 0), (0, 0, 17, 0, 0, 0),
            (0, 0, 0, 84, 0, 0), (0, 0, 0, 0, 5364, 0), (0, 0, 0, 0, 0, 4859),
        )),
    ],
)
def test_basis_report_pins_over_f101(Q, beta, alpha, seed, ext, samples, matrix):
    k = len(matrix)
    assert verify_determinant_basis(Q, beta, alpha, GF(101), seed=seed) == BasisReport(
        passed=True,
        inconclusive=False,
        reason="",
        k=k,
        n_expected=k,
        m_expected=k,
        extension_degree=ext,
        samples_tried=samples,
        seed=seed,
        matrix=matrix,
    )


def test_basis_builds_no_extension_field_it_does_not_reach():
    ffield._field_data.cache_clear()
    rep = verify_determinant_basis(THETA2, (1, 1), (2, 2), GF(101), seed=0)
    assert rep.extension_degree == 1
    assert ffield._field_data.cache_info().misses == 0


def test_basis_rejects_extension_base_field():
    with pytest.raises(ValueError):
        verify_determinant_basis(THETA2, (1, 1), (2, 2), GF(3, 2), seed=0)


def test_basis_inconclusive_under_tiny_budget():
    # (2,2) at the source disqualifies the linear solver, and over GF(13)
    # already degree 1 has 31,110^2 = 967,832,100 points, above the
    # enumeration budget: no route at all
    rep = verify_determinant_basis(THETA2, (2, 2), (4, 4), GF(13), seed=0)
    assert rep.inconclusive and not rep.passed
    assert "budget" in rep.reason


def _evaluated_samples(monkeypatch) -> list:
    """The sample (read over its extension) of every evaluation matrix
    verify_determinant_basis forms, in order."""
    seen = []
    pair = oracles._subrep_quotient_pair

    def recorded(Q, V, *args):
        if not seen or seen[-1] is not V:
            seen.append(V)
        return pair(Q, V, *args)

    monkeypatch.setattr(oracles, "_subrep_quotient_pair", recorded)
    return seen


def test_basis_retries_a_sample_with_a_zero_diagonal_entry(monkeypatch):
    # over GF(2), 6 of the 7 points of P^2 can be rational solutions of a
    # non-generic sample: seed 1's first evaluation matrix, at degree 1,
    # has a zero on its diagonal, and sample 7 passes at degree 3
    seen = _evaluated_samples(monkeypatch)
    rep = verify_determinant_basis(THETA4, (1, 2), (3, 3), GF(2), seed=1)
    assert rep.passed and rep.k == rep.m_expected == 6
    assert (rep.samples_tried, rep.extension_degree) == (7, 3)
    assert [V.field.k for V in seen] == [1, 3]


def test_basis_reports_when_no_sample_has_n_subreps_and_a_nonzero_diagonal(monkeypatch):
    seen = _evaluated_samples(monkeypatch)
    rep = verify_determinant_basis(THETA4, (1, 2), (3, 3), GF(2), seed=0)
    assert not rep.passed and rep.inconclusive
    assert rep.reason == "no sample with exactly N rational subrepresentations and nonzero diagonal"
    assert rep.samples_tried == 20 and rep.k is None and rep.matrix is None
    # three samples got as far as an evaluation matrix, each retried
    assert [V.field.k for V in seen] == [1, 1, 2]


def test_basis_reports_a_nonzero_off_diagonal_entry(monkeypatch):
    monkeypatch.setattr(oracles, "semiinvariant_cv", lambda Q, V, W: 1)
    rep = verify_determinant_basis(THETA2, (1, 1), (2, 2), GF(5), seed=0)
    assert (rep.passed, rep.inconclusive) == (False, False)
    assert rep.reason == "nonzero off-diagonal evaluation (orthogonality violated)"
    assert (rep.k, rep.matrix) == (2, ((1, 1), (1, 1)))


def test_basis_reports_a_count_below_the_weight_space_dimension(monkeypatch):
    counts = oracles.verify_counts
    monkeypatch.setattr(oracles, "verify_counts", lambda *args: dataclasses.replace(counts(*args), m_value=3))
    rep = verify_determinant_basis(THETA2, (1, 1), (2, 2), GF(5), seed=0)
    assert (rep.passed, rep.inconclusive) == (False, False)
    assert rep.reason == "2 subrepresentations but weight space has dimension 3"
    assert (rep.k, rep.m_expected) == (2, 3)


def _mixed(F, listed):
    """The listed rows at each vertex, reversed, with the first of them
    added to the rest, so that they are not in reduced form."""
    return [[r if i == 0 else tuple(map(F.add, r, b[-1])) for i, r in enumerate(reversed(b))] for b in listed]


def _assert_sub_and_quotient(Q, V, beta, sub):
    """S(a) and Q(a) of _subrep_quotient_pair in the bases the basis
    check uses: the listed rows at each vertex, then (for the quotient)
    the unit vectors off their pivots."""
    F = V.field
    gamma = tuple(a - b for a, b in zip(V.dim, beta))
    S, R = oracles._subrep_quotient_pair(Q, V, beta, gamma, sub)
    free = [[c for c in range(n) if c not in mat_rref(F, [list(r) for r in b])[1]] for n, b in zip(V.dim, sub)]
    for a, (t, h) in enumerate(Q.arrows):
        A = V.mats[a]
        # rows_h^T S(a) = A rows_t^T
        for j, w in enumerate(sub[t]):
            combo = [reduce(F.add, (F.mul(row[k], S.mats[a][i][j]) for i, row in enumerate(sub[h])), F.zero)
                     for k in range(V.dim[h])]
            assert mat_vec(F, A, list(w)) == combo
        # A e_c = sum over c' of Q(a)[c'][c] e_c' modulo the subspace at h
        for c, col in enumerate(free[t]):
            rest = [row[col] for row in A]
            for cp, colp in enumerate(free[h]):
                rest[colp] = F.sub(rest[colp], R.mats[a][cp][c])
            assert mat_rank(F, [list(r) for r in sub[h]] + [rest]) == beta[h]


def test_subrep_quotient_pair_changes_basis_arrow_by_arrow():
    rng = random.Random(23)
    listed = 0
    for F in (F5, GF(3, 2), GF(2, 2)):
        for _ in range(40):
            Q, V, beta = _random_acyclic_instance(rng, F, max_points=3000)
            for sub in list_subreps(Q, V, beta):
                _assert_sub_and_quotient(Q, V, beta, sub)
                listed += 1
    solved = 0
    for seed in range(5):
        V1 = random_rep(THETA4, (3, 3), GF(101), seed)
        for Vj, count, listing in oracles._by_degree(THETA4, V1, (1, 2), (GF(101, j) for j in (1, 2, 3, 4)), 1):
            for sub in listing() if count else ():
                _assert_sub_and_quotient(THETA4, Vj, (1, 2), sub)
                solved += 1
    assert listed >= 1200 and solved >= 40, (listed, solved)


def test_subrep_quotient_pair_needs_reduced_rows():
    # the pair reads coordinates straight off reduced rows: listed rows
    # pass, and rows mixed out of reduced form, or too few, are refused
    A2 = Quiver(2, ((0, 1),))
    V = random_rep(A2, (1, 3), F5, 0)
    sub = list_subreps(A2, V, (1, 2))[0]
    oracles._subrep_quotient_pair(A2, V, (1, 2), (0, 1), sub)
    for bad in (_mixed(F5, sub), [sub[0], sub[1][:1]]):
        with pytest.raises(AssertionError, match="not a reduced basis"):
            oracles._subrep_quotient_pair(A2, V, (1, 2), (0, 1), bad)


def test_solver_listings_are_reduced():
    # the solver's twin of test_listed_bases_are_reduced_after_either_walk:
    # every degree of these samples solves (budget 1) and lists through
    # the walk, whose leaves reduce each basis
    listed = 0
    for Q, beta, alpha in ((THETA4, (1, 2), (3, 3)), (theta(3), (1, 1), (2, 3)), (THETA2, (1, 1), (2, 2))):
        for seed in range(4):
            V1 = random_rep(Q, alpha, GF(101), seed)
            for Vj, count, listing in oracles._by_degree(Q, V1, beta, (GF(101, j) for j in (1, 2, 3, 4)), 1):
                subs = listing() if count is not None else ()
                assert len(subs) == (count or 0)
                for sub in subs:
                    reduced = tuple(tuple(map(tuple, mat_rref(Vj.field, [list(r) for r in b])[0])) for b in sub)
                    assert sub == reduced, (Q.arrows, alpha, seed, Vj.field, sub)
                    listed += 1
    assert listed >= 40, listed


# -- Frobenius orbits ------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5])
def test_orbit_walk_count_matches_the_listing(p):
    # F_p-rational samples read over GF(p^j): the count walk takes one
    # subspace per Frobenius orbit and weights it, the listing walks all;
    # V from the sources and V* from the sinks alike
    rng = random.Random(20 + p)
    shortened = nontrivial = 0
    for j in (1, 2, 3, 4):
        Fj = GF(p, j)
        for _ in range(12):
            Q, V, beta = _random_acyclic_instance(rng, Fj, max_points=2000)
            V1 = random_rep(Q, V.dim, GF(p), rng.randrange(1 << 30))
            V = FFRep(Q, Fj, V.dim, V1.mats)
            gamma = tuple(a - b for a, b in zip(V.dim, beta))
            for R, dim in ((V, beta), (V.dual(), gamma)):
                count, _, nodes = _walk_subreps(R.quiver, R, dim, False)
                listed, found, full_nodes = _walk_subreps(R.quiver, R, dim, True)
                assert count == listed == len(found), (Q.arrows, V.dim, beta, j)
                assert nodes <= full_nodes
                shortened += nodes < full_nodes
                nontrivial += count > 1
    assert shortened >= 10 and nontrivial >= 10, (shortened, nontrivial)


def _sink_span_cases(R, dim) -> set:
    """Which of the cases s = 0 < d, 0 < s < d, 0 < s = d and s > d the
    count walk of R meets at its leaves, s the rank of a sink's images and
    d its dimension in dim: the tuples at the other vertices are listed
    with every sink set to its whole space, which holds any span."""
    Q, F = R.quiver, R.field
    tails = {t for t, _ in Q.arrows}
    sinks = [x for x in range(Q.nvertices) if x not in tails]
    whole = tuple(R.dim[x] if x in sinks else d for x, d in enumerate(dim))
    cases = set()
    for sub in list_subreps(Q, R, whole):
        for x in sinks:
            images = [mat_vec(F, R.mats[a], list(w)) for a, (t, h) in enumerate(Q.arrows) if h == x for w in sub[t]]
            s, d = len(mat_rref(F, images)[1]) if images else 0, dim[x]
            cases.add("s=0<d" if s == 0 < d else "0<s<d" if 0 < s < d else "0<s=d" if 0 < s == d else "s>d" if s > d else "")
    return cases


@pytest.mark.parametrize("p", [2, 3])
def test_count_walk_takes_each_sink_by_a_gaussian_binomial(p):
    # samples over GF(p^j) and F_p-rational ones read over it; V from the
    # sources and V* from the sinks: the count walk skips the sinks, the
    # listing walks them, and the pool meets every case of a sink's span
    rng = random.Random(40 + p)
    cases = set()
    for j in (1, 2, 3):
        Fj = GF(p, j)
        for trial in range(16):
            Q, V, beta = _random_acyclic_instance(rng, Fj, max_points=3000)
            if trial % 2:
                V = FFRep(Q, Fj, V.dim, random_rep(Q, V.dim, GF(p), rng.randrange(1 << 30)).mats)
            gamma = tuple(a - b for a, b in zip(V.dim, beta))
            for R, dim in ((V, beta), (V.dual(), gamma)):
                count = _walk_subreps(R.quiver, R, dim, False)[0]
                assert count == len(_walk_subreps(R.quiver, R, dim, True)[1]), (Q.arrows, V.dim, beta, j)
                cases |= _sink_span_cases(R, dim)
    assert cases >= {"s=0<d", "0<s<d", "0<s=d", "s>d"}, cases


def test_walk_chooser_drops_arrows_at_zero_dimensional_vertices():
    # arrows 0->1, 0->1, 0->2, 1->2 with alpha = (0,2,1), beta = (0,1,0):
    # vertex 0 carries nothing, so vertex 1 counts as a source and vertex
    # 2 as the only sink; V* starts there with one free subspace, not the
    # 10,202 lines of GF(101^2)^2, and its count walk takes 3 nodes
    Q = Quiver(3, ((0, 1), (0, 1), (0, 2), (1, 2)))
    V1 = random_rep(Q, (0, 2, 1), GF(101), 3)
    stats = {}
    assert enumerate_subreps(Q, FFRep(Q, GF(101, 2), V1.dim, V1.mats), (0, 1, 0), stats=stats) == 1
    assert stats["nodes"] == 3


def test_walk_deeper_than_the_recursion_limit():
    # the walk keeps one frame per vertex: 1,200 isolated vertices, and
    # a 1,100-vertex path sampled over GF(5), whose count walks the 1,099
    # vertices before the sink (1,100 nodes with the root)
    n = 1200
    Q = Quiver(n, ())
    V = random_rep(Q, (1,) * n, F5, 0)
    assert enumerate_subreps(Q, V, (0,) * n) == 1
    assert list_subreps(Q, V, (0,) * n) == (((),) * n,)
    path = Quiver(1100, tuple((i, i + 1) for i in range(1099)))
    got = sampled_subrep_count(path, (0,) * 1100, (1,) * 1100, 5, max_ext_degree=1, trials=1)
    assert got.per_trial == ((1,),) and got.nodes == 1100


def test_orbit_walk_node_pin():
    # theta(2) (1,1)/(2,2) over GF(13^2): the 14 rational lines at the
    # source and one of each of the 78 conjugate pairs are walked, not 170;
    # the count walk stops there and takes the sink by a Gaussian binomial,
    # so a trial walks 1 + 14 nodes over GF(13) and 1 + 92 over GF(13^2)
    got = sampled_subrep_count(THETA2, (1, 1), (2, 2), 13, max_ext_degree=2, seed=0)
    assert got.method == "enumerate"
    assert got.per_trial == ((1, 1), (0, 2), (0, 2), (2, 2), (2, 2), (0, 2), (2, 2), (2, 2), (2, 2), (0, 2))
    full = 0
    for i in range(got.trials):
        V1 = random_rep(THETA2, (2, 2), GF(13), i)
        for F in (GF(13), GF(13, 2)):
            full += _walk_subreps(THETA2, FFRep(THETA2, F, (2, 2), V1.mats), (1, 1), True)[2]
    assert (got.nodes, full) == (1080, 1890)


def test_orbit_walk_builds_only_the_bases_it_walks(monkeypatch):
    # trial 0 of that run over GF(13^2): the source frame builds a row list
    # for each of the 13 + 1 rational lines and the 78 least conjugates,
    # 92 of the 170 lines.  A module global `list` shadows the builtin
    # inside oracles, so the counter sees every row the generator copies
    # from its template; the count walk builds no other list here (the
    # source has no images, and the sink is taken by a binomial)
    built = [0]

    def counted(*args):
        built[0] += 1
        return list(*args)

    V = FFRep(THETA2, GF(13, 2), (2, 2), random_rep(THETA2, (2, 2), GF(13), 0).mats)
    monkeypatch.setattr(oracles, "list", counted, raising=False)
    assert _walk_subreps(THETA2, V, (1, 1), False)[::2] == (1, 93)
    assert built[0] == 92
    # unfiltered, the same frame builds every line
    built[0] = 0
    assert sum(1 for _ in _lift_bases(V.field, [], (), 2, 1)) == built[0] == 170


def test_orbit_weighted_solver_count_matches_the_listing():
    # the eliminations of _elimination_pool(150), each factored over F_p
    # once and read over GF(p^j), j <= 4: one line per Frobenius orbit,
    # weighted by its size, counts what the listing lists.  Where the
    # listing is too long to build, the count over every line stands in.
    checked = listed = 0
    for Q, beta, V in _elimination_pool(150):
        try:
            charts = _eliminate(Q, V, beta, 0, 1)
        except DegenerateSampleError:
            continue
        factors = [() if u is None else oracles._rational_factors(V.field, u) for _, u, _ in charts]
        for j in (1, 2, 3, 4):
            Vj = FFRep(Q, GF(V.field.p, j), V.dim, V.mats)
            try:
                every_line = _walk_subreps(Q, Vj, beta, False, source=_kronecker_lines(Vj.field, charts))[0]
            except DegenerateSampleError:
                with pytest.raises(DegenerateSampleError):
                    _kronecker_lines(Vj.field, charts, factors)
                continue
            assert _walk_subreps(Q, Vj, beta, False, source=_kronecker_lines(Vj.field, charts, factors))[0] == every_line
            if every_line <= 2000:
                listed_here = _walk_subreps(Q, Vj, beta, True, source=_kronecker_lines(Vj.field, charts))[1]
                assert len(listed_here) == every_line
                listed += 1
            checked += 1
    assert checked >= 300 and listed >= 250, (checked, listed)


def test_sampled_solver_matches_enumeration_in_small_characteristic():
    # every degree solves under budget 1 and enumerates under a budget
    # that fits; characteristic 2 factors its eliminants by the trace map
    # (theta(4) enumerates 6,643 lines of F_81^3 per trial at q = 3)
    rows = 0
    for Q, beta, alpha, q, trials in (
        (THETA4, (1, 2), (3, 3), 2, 6),
        (THETA4, (1, 2), (3, 3), 3, 2),
        (THETA2, (1, 1), (2, 2), 2, 6),
        (THETA2, (1, 1), (2, 2), 3, 6),
        (THETA2, (1, 1), (2, 2), 5, 6),
        (theta(3), (1, 1), (3, 2), 2, 6),
        (theta(3), (1, 1), (3, 2), 3, 6),
        (theta(3), (1, 1), (3, 2), 5, 6),
    ):
        solved = sampled_subrep_count(Q, beta, alpha, q, max_ext_degree=4, trials=trials, seed=0, budget=1)
        walked = sampled_subrep_count(Q, beta, alpha, q, max_ext_degree=4, trials=trials, seed=0, budget=10**9)
        assert (solved.method, walked.method) == ("solve", "enumerate")
        for s, e in zip(solved.per_trial, walked.per_trial):
            assert all(x is None or x == y for x, y in zip(s, e)), (Q.arrows, q, s, e)
            rows += any(x is not None for x in s)
    assert rows >= 36


def test_basis_lists_only_where_the_count_is_n(monkeypatch):
    # theta(4) over GF(101): 3 samples, 12 (sample, degree) counts, one listing
    collects = []
    walk = oracles._walk_subreps

    def recorded(*args):
        collects.append(args[3])
        return walk(*args)

    monkeypatch.setattr(oracles, "_walk_subreps", recorded)
    rep = verify_determinant_basis(THETA4, (1, 2), (3, 3), GF(101), seed=0)
    assert rep.passed and rep.samples_tried == 3 and rep.extension_degree == 4
    assert collects.count(False) == 12 and collects.count(True) == 1
