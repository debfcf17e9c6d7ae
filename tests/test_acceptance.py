"""Acceptance gate: one test per headline claim, exact integer equality.

Each test records its verdict in RESULTS before asserting, so the terminal
summary prints one pass/fail line per criterion even when a criterion fails.
Criterion 2 contains a sampling configuration that genuinely cannot see all
six subrepresentations (quadratic extensions are too small for the Galois
orbits that occur); it is asserted as stated and expected to fail, with the
working configuration demonstrated separately at the end of this file.
"""

import functools
import random
import time

from lr_reference import rectangle_partition, schubert_class
from quivercount.counting import (
    count_subreps,
    fiber_class,
    random_instance,
    random_zero_triple,
    si_dimension,
    triple_flag_instance,
    verify_counts,
)
from quivercount.covariants import covariant_count, covariant_multiplicity
from quivercount.ffield import GF
from quivercount.oracles import (
    _raw_point_count,
    sampled_subrep_count,
    si_rank_oracle,
    verify_determinant_basis,
)
from quivercount.partitions import (
    Rectangle,
    complement,
    conjugate,
    partitions_in_rectangle,
    size,
)
from quivercount.quiver import Quiver, euler_form

RESULTS: list[tuple[int, str, bool, str]] = []

A2 = Quiver(2, ((0, 1),))


def record(num: int, desc: str, ok: bool, note: str = "") -> None:
    RESULTS.append((num, desc, ok, note))


def theta(m: int) -> Quiver:
    return Quiver(2, tuple((0, 1) for _ in range(m)))


def partitions_of(n: int):
    def rec(rem, cap):
        if rem == 0:
            yield ()
            return
        for first in range(min(rem, cap), 0, -1):
            for rest in rec(rem - first, first):
                yield (first,) + rest

    return list(rec(n, n))


@functools.lru_cache(maxsize=1)
def random_zero_pairing_suite():
    """The 120 instances used by criteria 3 and 5: seeded, acyclic, at most
    4 vertices / 4 arrows / dimension 3, zero pairing of beta against the
    quotient vector.  Every third draw forces a denser shape so the suite is
    not dominated by instances with dead arrows."""
    rng = random.Random(0)
    out = []
    for i in range(120):
        if i % 3 == 2:
            out.append(
                random_instance(rng, max_verts=3, max_arrows=4, min_arrows=2)
            )
        else:
            out.append(random_instance(rng))
    return tuple(out)


@functools.lru_cache(maxsize=1)
def flag_suite_cases():
    rect = Rectangle(2, 2)
    parts = partitions_in_rectangle(rect)
    return tuple(
        (lam, mu, nu)
        for lam in parts
        for mu in parts
        for nu in parts
        if size(lam) + size(mu) + size(nu) == 4
    )


def test_criterion_1(engine):
    desc = "theta(2r) family counts 2, 6, 20, 70 by both formulas"
    t0 = time.monotonic()
    got_n = []
    got_m = []
    for r in (1, 2, 3, 4):
        Q = theta(2 * r)
        beta, alpha = (1, r), (r + 1, r + 1)
        got_n.append(count_subreps(Q, beta, alpha, engine))
        got_m.append(si_dimension(Q, beta, alpha, engine))
    elapsed = time.monotonic() - t0
    ok = got_n == [2, 6, 20, 70] and got_m == [2, 6, 20, 70] and elapsed < 60
    record(1, desc, ok, f"N={got_n} M={got_m} {elapsed:.1f}s")
    assert got_n == [2, 6, 20, 70]
    assert got_m == [2, 6, 20, 70]
    assert elapsed < 60


def test_criterion_2(engine):
    desc = "theta(4) six lines: N = M = 6, sampled modal 6 at ext <= 2, rank 6"
    t0 = time.monotonic()
    Q = theta(4)
    n = count_subreps(Q, (1, 2), (3, 3), engine)
    m = si_dimension(Q, (1, 2), (3, 3), engine)
    rank = si_rank_oracle(Q, (1, 2), (2, 1))
    got = sampled_subrep_count(
        Q, (1, 2), (3, 3), 101, max_ext_degree=2, trials=10, seed=0
    )
    elapsed = time.monotonic() - t0
    ok = n == m == rank == 6 and got.modal == 6 and elapsed < 120
    record(
        2, desc, ok,
        f"N={n} M={m} rank={rank} modal={got.modal} tally={got.tally} {elapsed:.1f}s",
    )
    assert n == 6 and m == 6 and rank == 6
    assert elapsed < 120
    assert got.modal == 6, (
        f"modal vote over quadratic extensions is {got.modal} (tally"
        f" {got.tally}): the six subrepresentations of a random sample fall"
        " into Galois orbits of size up to 6, so degree <= 2 rarely sees all"
        " of them; see test_theta4_sampling_needs_higher_extensions below"
    )


def test_criterion_3(engine):
    desc = "N = M on 120 seeded random zero-pairing instances"
    t0 = time.monotonic()
    instances = random_zero_pairing_suite()
    failures = []
    nontrivial = 0
    for Q, beta, alpha in instances:
        rep = verify_counts(Q, beta, alpha, engine)
        if not rep.passed:
            failures.append((Q.arrows, beta, alpha, rep.n_value, rep.m_value))
        if rep.n_value > 1:
            nontrivial += 1
    elapsed = time.monotonic() - t0
    ok = not failures and len(instances) >= 100 and elapsed < 600
    record(
        3, desc, ok,
        f"{len(instances)} instances, {nontrivial} with N > 1, {elapsed:.1f}s",
    )
    assert len(instances) >= 100
    assert not failures, failures[:5]
    assert nontrivial >= 10
    assert elapsed < 600


def test_criterion_4(engine):
    desc = "triple-flag counts equal LR coefficients, exhaustive n=4 r=2"
    t0 = time.monotonic()
    rect = Rectangle(2, 2)
    cases = flag_suite_cases()
    failures = []
    for lam, mu, nu in cases:
        Q, beta, alpha, expected = triple_flag_instance(lam, mu, nu, 2, 4, engine)
        got = count_subreps(Q, beta, alpha, engine)
        direct = engine.lr_coefficient(lam, mu, complement(nu, rect))
        if not (got == expected == direct):
            failures.append((lam, mu, nu, got, expected, direct))
    elapsed = time.monotonic() - t0
    ok = not failures and len(cases) == 27 and elapsed < 60
    record(4, desc, ok, f"{len(cases)} triples {elapsed:.1f}s")
    assert len(cases) == 27
    assert not failures, failures[:5]
    assert elapsed < 60


def test_criterion_5(engine):
    desc = "sampling and rank oracles agree on every in-budget suite instance"
    t0 = time.monotonic()
    q, ext, trials, budget = 13, 2, 11, 200000
    pool = [
        (theta(2 * r), (1, r), (r + 1, r + 1)) for r in (1, 2, 3, 4)
    ]
    pool += list(random_zero_pairing_suite())
    for lam, mu, nu in flag_suite_cases():
        Q, beta, alpha, _ = triple_flag_instance(lam, mu, nu, 2, 4, engine)
        pool.append((Q, beta, alpha))

    seen = set()
    checked = 0
    failures = []
    for Q, beta, alpha in pool:
        key = (Q.nvertices, Q.arrows, beta, alpha)
        if key in seen:
            continue
        seen.add(key)
        if _raw_point_count(Q, alpha, beta, q**ext) > budget:
            continue
        n = count_subreps(Q, beta, alpha, engine)
        m = si_dimension(Q, beta, alpha, engine)
        got = sampled_subrep_count(
            Q, beta, alpha, q, max_ext_degree=ext, trials=trials, seed=0,
            budget=budget,
        )
        gamma = tuple(a - b for a, b in zip(alpha, beta))
        rank = si_rank_oracle(Q, beta, gamma)
        checked += 1
        if got.modal != n or rank != m:
            failures.append((Q.arrows, beta, alpha, n, got.modal, m, rank))
    elapsed = time.monotonic() - t0
    ok = not failures and checked >= 10
    record(
        5, desc, ok,
        f"{checked} of {len(seen)} instances in budget, {elapsed:.1f}s",
    )
    assert checked >= 10
    assert not failures, failures[:5]


def test_criterion_6(engine):
    desc = "covariant count = multiplicity = class coefficient, 31 instances"
    t0 = time.monotonic()
    rng = random.Random(1)
    cases = []
    while len(cases) < 30:
        dense = len(cases) % 3 == 2
        if dense:
            Q, beta, alpha = random_instance(
                rng, max_verts=3, max_arrows=4, min_arrows=2,
                require_zero_pairing=False,
            )
        else:
            Q, beta, alpha = random_instance(rng, require_zero_pairing=False)
        gamma = tuple(a - b for a, b in zip(alpha, beta))
        if 0 <= euler_form(Q, beta, gamma) <= 3:
            cases.append((Q, beta, alpha))
    cases.append((A2, (1, 1), (2, 2)))

    failures = []
    labelings = 0
    for Q, beta, alpha in cases:
        fc = fiber_class(Q, beta, alpha, engine)
        for mu, coeff in fc.sorted_items():
            cc = covariant_count(Q, beta, alpha, mu, engine)
            cm = covariant_multiplicity(Q, beta, alpha, mu, engine)
            labelings += 1
            if not (cc == cm == coeff):
                failures.append((Q.arrows, beta, alpha, mu, coeff, cc, cm))

    # the two-vertex one-arrow example: two labelings, both with coefficient 1
    a2 = dict(fiber_class(A2, (1, 1), (2, 2), engine).sorted_items())
    a2_ok = a2 == {((1,), ()): 1, ((), (1,)): 1}
    elapsed = time.monotonic() - t0
    ok = not failures and a2_ok and len(cases) >= 30 and elapsed < 300
    record(6, desc, ok, f"{len(cases)} instances, {labelings} labelings, {elapsed:.1f}s")
    assert a2_ok, a2
    assert len(cases) >= 30 and labelings >= 25
    assert not failures, failures[:5]
    assert elapsed < 300


def test_criterion_7(engine):
    desc = "chain multiplicativity on 26 pairwise-zero triples"
    t0 = time.monotonic()
    T2 = theta(2)
    triples = [(T2, (1, 1), (1, 1), (1, 1))]  # 2*3 = 3*2, all factors > 1
    rng = random.Random(2)
    for _ in range(25):
        triples.append(random_zero_triple(rng))
    failures = []
    nontrivial = 0
    for Q, beta, gamma, delta in triples:
        bg = tuple(b + g for b, g in zip(beta, gamma))
        bgd = tuple(x + d for x, d in zip(bg, delta))
        gd = tuple(g + d for g, d in zip(gamma, delta))
        lhs = count_subreps(Q, beta, bg, engine) * count_subreps(Q, bg, bgd, engine)
        rhs = count_subreps(Q, beta, bgd, engine) * count_subreps(Q, gamma, gd, engine)
        if lhs != rhs:
            failures.append((Q.arrows, beta, gamma, delta, lhs, rhs))
        if lhs > 1:
            nontrivial += 1
    elapsed = time.monotonic() - t0
    ok = not failures and len(triples) >= 20
    record(
        7, desc, ok,
        f"{len(triples)} triples, {nontrivial} with product > 1, {elapsed:.1f}s",
    )
    assert len(triples) >= 20
    assert not failures, failures[:5]
    assert nontrivial >= 1


def test_criterion_8():
    desc = "determinant dual basis on theta(2) and theta(4): diagonal, k = M"
    t0 = time.monotonic()
    reports = [
        ("theta(2)", verify_determinant_basis(theta(2), (1, 1), (2, 2), GF(5), seed=0), 2),
        ("theta(4)", verify_determinant_basis(theta(4), (1, 2), (3, 3), GF(101), seed=0), 6),
    ]
    problems = []
    for name, rep, expected_k in reports:
        if rep.inconclusive or not rep.passed:
            problems.append((name, rep.reason))
            continue
        if rep.k != expected_k or rep.k != rep.m_expected:
            problems.append((name, f"k={rep.k} m={rep.m_expected}"))
            continue
        diag_bad = any(
            (v != 0) != (i == j)
            for i, row in enumerate(rep.matrix)
            for j, v in enumerate(row)
        )
        if diag_bad:
            problems.append((name, rep.matrix))
    elapsed = time.monotonic() - t0
    ok = not problems
    note = ", ".join(
        f"{name} k={rep.k} ext={rep.extension_degree}" for name, rep, _ in reports
    )
    record(8, desc, ok, f"{note}, {elapsed:.1f}s")
    assert not problems, problems


def test_criterion_9(engine):
    desc = "LR kernel: symmetry, conjugation, associativity, oracle, duality"
    t0 = time.monotonic()
    allparts = {n: partitions_of(n) for n in range(10)}

    # symmetry and conjugation invariance, all |lam| + |mu| <= 6
    for a in range(7):
        for b in range(7 - a):
            for lam in allparts[a]:
                for mu in allparts[b]:
                    for nu in allparts[a + b]:
                        c = engine.lr_coefficient(lam, mu, nu)
                        assert c == engine.lr_coefficient(mu, lam, nu)
                        assert c == engine.lr_coefficient(
                            conjugate(lam), conjugate(mu), conjugate(nu)
                        )

    # associativity of the induced product, factors of size <= 2 each
    small = allparts[0] + allparts[1] + allparts[2]
    for lam in small:
        for mu in small:
            for kappa in small:
                total = size(lam) + size(mu) + size(kappa)
                for rho in allparts[total]:
                    left = sum(
                        engine.lr_coefficient(lam, mu, nu)
                        * engine.lr_coefficient(nu, kappa, rho)
                        for nu in allparts[size(lam) + size(mu)]
                    )
                    right = sum(
                        engine.lr_coefficient(mu, kappa, sigma)
                        * engine.lr_coefficient(lam, sigma, rho)
                        for sigma in allparts[size(mu) + size(kappa)]
                    )
                    assert left == right, (lam, mu, kappa, rho)

    # product expansion against the semistandard-tableau oracle, <= 6 cells
    nvars = 6
    for a in range(7):
        for b in range(7 - a):
            for lam in allparts[a]:
                for mu in allparts[b]:
                    prod: dict = {}
                    for e1, c1 in engine.schur_polynomial(lam, nvars).items():
                        for e2, c2 in engine.schur_polynomial(mu, nvars).items():
                            key = tuple(x + y for x, y in zip(e1, e2))
                            prod[key] = prod.get(key, 0) + c1 * c2
                    combo: dict = {}
                    for nu in allparts[a + b]:
                        c = engine.lr_coefficient(lam, mu, nu)
                        if c and len(nu) <= nvars:
                            for e, cc in engine.schur_polynomial(nu, nvars).items():
                                combo[e] = combo.get(e, 0) + c * cc
                    assert prod == combo, (lam, mu)

    # Poincare duality in every rectangle up to 4x4
    for rows in range(1, 5):
        for cols in range(1, 5):
            rect = Rectangle(rows, cols)
            top = rectangle_partition(rect)
            for lam in partitions_in_rectangle(rect):
                prod = engine.schubert_multiply(
                    schubert_class(rect, lam),
                    schubert_class(rect, complement(lam, rect)),
                )
                assert prod.coeffs == {top: 1}, (rect, lam, prod.coeffs)

    elapsed = time.monotonic() - t0
    ok = elapsed < 300
    record(9, desc, ok, f"{elapsed:.1f}s")
    assert elapsed < 300


def test_theta4_sampling_needs_higher_extensions():
    """Companion to criterion 2: the same sampling plan recovers 6 once the
    extension cap admits the full Galois orbits (degree 4 suffices for the
    modal vote, though single trials can still undercount)."""
    got = sampled_subrep_count(
        theta(4), (1, 2), (3, 3), 101, max_ext_degree=4, trials=60, seed=0
    )
    assert got.modal == 6
    assert got.tally[6] == max(got.tally.values())
