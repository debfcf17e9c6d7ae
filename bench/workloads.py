"""The benchmark's workloads: seeded instance sets with their references.

Each builder returns the cases of one pass.  A case computes one answer
through the package's public functions and checks it against a reference
that does not come from the route being timed: a closed form (binomials),
the LR tableau count (computed during set-up with an engine of its own),
the covariant routes, or the oracles against pinned N and M.

Module attributes are looked up when a case runs, not when it is built,
so that the tracer's wrappers (installed after set-up) are the ones
called.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
from typing import Any, Callable

from quivercount import counting, covariants, ffield, lr, oracles, partitions
from quivercount.quiver import Quiver


@dataclass
class Case:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


@dataclass
class Workload:
    cases: list[Case]
    # engines the timed cases use, empty when the pass starts
    engines: list


def relabel(Q: Quiver, beta, alpha, rng: random.Random):
    """The same instance under a random renumbering of its vertices.

    Arrows keep their order, so every arrow-by-arrow computation does the
    same work; only the vertex positions in the keys move.
    """
    perm = list(range(Q.nvertices))
    rng.shuffle(perm)
    arrows = tuple((perm[t], perm[h]) for t, h in Q.arrows)
    b = [0] * Q.nvertices
    a = [0] * Q.nvertices
    for x in range(Q.nvertices):
        b[perm[x]] = beta[x]
        a[perm[x]] = alpha[x]
    return Quiver(Q.nvertices, arrows), tuple(b), tuple(a)


def theta(m: int) -> Quiver:
    return Quiver(2, tuple((0, 1) for _ in range(m)))


# -- kronecker ------------------------------------------------------------------


def kronecker(seed: int, smoke: bool) -> Workload:
    """theta(2r), beta = (1, r), alpha = (r+1, r+1): N = M = binom(2r, r)."""
    rng = random.Random(seed)
    rs = [2, 3, 4] if smoke else [4, 5, 6, 7, 8]
    rng.shuffle(rs)
    engine = lr.LREngine()
    cases = []
    for r in rs:
        Q, beta, alpha = relabel(theta(2 * r), (1, r), (r + 1, r + 1), rng)
        cases.append(_count_case(f"theta({2 * r})", Q, beta, alpha, comb(2 * r, r), engine))
    return Workload(cases, [engine])


def _count_case(label, Q, beta, alpha, expected, engine) -> Case:
    def check(rep) -> bool:
        return rep.n_value == expected and rep.m_value == expected

    return Case(label, lambda: counting.verify_counts(Q, beta, alpha, engine), check)


# -- triple flags ---------------------------------------------------------------


def _size_triples(n: int, r: int, total: int):
    parts = partitions.partitions_in_rectangle(partitions.Rectangle(r, n - r))
    return [
        (lam, mu, nu)
        for lam in parts
        for mu in parts
        for nu in parts
        if sum(lam) + sum(mu) + sum(nu) == total
    ]


def tripleflag(seed: int, smoke: bool) -> Workload:
    """Every triple-flag instance of (n, r), in seeded order, one engine
    shared by the pass as `verify --tripleflag` does: N = M = c_{lam,mu}^{nu^c}."""
    n, r = (5, 2) if smoke else (7, 3)
    rng = random.Random(seed)
    triples = _size_triples(n, r, r * (n - r))
    rng.shuffle(triples)
    reference = lr.LREngine()
    engine = lr.LREngine()
    cases = []
    for lam, mu, nu in triples:
        Q, beta, alpha, expected = counting.triple_flag_instance(lam, mu, nu, r, n, reference)
        Q, beta, alpha = relabel(Q, beta, alpha, rng)
        cases.append(_count_case(f"flag{lam}{mu}{nu}", Q, beta, alpha, expected, engine))
    return Workload(cases, [engine])


# -- fiber classes --------------------------------------------------------------


def flag_quiver(lam, mu, nu, r: int, n: int):
    """Three inward flags of length n-1 meeting a central n-space, with the
    jumps of beta set by the three partitions.

    The same construction as `triple_flag_instance`, without its demand that
    the sizes fill the r x (n-r) rectangle: sizes summing to r(n-r) - c give
    Euler pairing c.
    """
    arm = n - 1
    center = 3 * arm
    arrows = []
    for k in range(3):
        arrows += [(k * arm + j, k * arm + j + 1) for j in range(arm - 1)]
        arrows.append((k * arm + arm - 1, center))
    alpha = [0] * (center + 1)
    beta = [0] * (center + 1)
    for k, p in enumerate((lam, mu, nu)):
        padded = list(p) + [0] * (r - len(p))
        for j in range(1, n):
            alpha[k * arm + j - 1] = j
            beta[k * arm + j - 1] = sum(1 for i in range(1, r + 1) if n - r - padded[i - 1] + i <= j)
    alpha[center] = n
    beta[center] = r
    return Quiver(center + 1, tuple(arrows)), tuple(beta), tuple(alpha)


# A fixed stratified sample of the 756 (6,3) flag instances whose sizes sum
# to 9 (pairing 0) or 8 (pairing 1): every 25th instance in order of
# fiber-class cost at the commit that added the benchmark, starting from
# the second costliest.  A seeded draw from that population has a cost
# spread of about a third of its median between seeds (one instance takes
# 2 s, the median 0.07 s), far above the benchmark's bounds, so the set is
# fixed and the seed renumbers the vertices and orders the cases instead.
FIBER_SAMPLE = (
    ((), (2, 2, 1), (2, 1)),
    ((), (2, 2, 2), (1, 1)),
    ((), (3, 3), (1, 1)),
    ((1, 1), (), (2, 2, 2)),
    ((1, 1), (2, 2), (2,)),
    ((1, 1, 1), (1, 1, 1), (2,)),
    ((1, 1, 1), (3, 1), (1,)),
    ((2, 1, 1), (1,), (1, 1, 1)),
    ((2, 2, 1), (), (3,)),
    ((2, 2, 2), (2,), ()),
    ((3, 1), (1,), (1, 1, 1)),
    ((3, 1, 1), (1, 1), (1,)),
    ((3, 2), (1, 1, 1), ()),
    ((3, 3), (), (2,)),
    ((1,), (1, 1, 1), (2, 2, 1)),
    ((1, 1), (1, 1), (2, 2, 1)),
    ((1, 1), (2, 2), (1, 1, 1)),
    ((1, 1), (3, 2), (2,)),
    ((1, 1, 1), (2,), (3, 1)),
    ((1, 1, 1), (2, 2), (2,)),
    ((2,), (1, 1, 1), (3, 1)),
    ((2,), (2, 1, 1), (2, 1)),
    ((2, 1), (2, 1), (1, 1, 1)),
    ((2, 1, 1), (2, 1), (1, 1)),
    ((2, 2), (1, 1), (3,)),
    ((2, 2, 1), (), (2, 2)),
    ((2, 2, 1), (1, 1, 1), (1,)),
    ((3,), (), (2, 2, 2)),
    ((3, 2), (3,), (1,)),
    ((3, 2, 1), (3,), ()),
    ((3, 2, 2), (1, 1), ()),
)

SMOKE_FIBER_SAMPLE = (  # (5,2) flags, pairing 0 then pairing 1
    ((1,), (1,), (3, 1)),
    ((1, 1), (2,), (1, 1)),
    ((2, 1), (), (2, 1)),
    ((), (), (3, 2)),
    ((1,), (1, 1), (1, 1)),
    ((1, 1), (), (3,)),
)


def fiber(seed: int, smoke: bool) -> Workload:
    """fiber_class at pairing 0 (its one coefficient is the LR coefficient)
    and at pairing 1 (every coefficient equals covariant_count and
    covariant_multiplicity), one engine shared by the pass."""
    n, r = (5, 2) if smoke else (6, 3)
    sample = SMOKE_FIBER_SAMPLE if smoke else FIBER_SAMPLE
    rng = random.Random(seed)
    order = list(sample)
    rng.shuffle(order)
    reference = lr.LREngine()
    rect = partitions.Rectangle(r, n - r)
    engine = lr.LREngine()
    cases = []
    for lam, mu, nu in order:
        pairing = r * (n - r) - sum(lam) - sum(mu) - sum(nu)
        Q, beta, alpha = relabel(*flag_quiver(lam, mu, nu, r, n), rng)
        label = f"fiber{lam}{mu}{nu}"
        if pairing == 0:
            lrc = reference.lr_coefficient(lam, mu, partitions.complement(nu, rect))
            expected = {tuple(() for _ in range(Q.nvertices)): lrc} if lrc else {}
            cases.append(_fiber_case0(label, Q, beta, alpha, expected, engine))
        else:
            cases.append(_fiber_case1(label, Q, beta, alpha, engine))
    return Workload(cases, [engine])


def _fiber_case0(label, Q, beta, alpha, expected, engine) -> Case:
    return Case(
        label,
        lambda: counting.fiber_class(Q, beta, alpha, engine),
        lambda fc: fc.coeffs == expected,
    )


def _fiber_case1(label, Q, beta, alpha, engine) -> Case:
    def run():
        fc = counting.fiber_class(Q, beta, alpha, engine)
        routes = {
            mu: (
                covariants.covariant_count(Q, beta, alpha, mu, engine),
                covariants.covariant_multiplicity(Q, beta, alpha, mu, engine),
            )
            for mu in fc.coeffs
        }
        return fc, routes

    def check(answer) -> bool:
        fc, routes = answer
        return all(routes[mu] == (c, c) for mu, c in fc.coeffs.items())

    return Case(label, run, check)


# -- oracles --------------------------------------------------------------------

# Pinned instances with N = M = 2 (two of them from `verify --oracles`).
N2_INSTANCES = (
    ("theta(2)", theta(2), (1, 1), (2, 2)),
    ("3v-chain", Quiver(3, ((0, 1), (0, 1), (1, 2))), (1, 1, 2), (2, 2, 2)),
    ("3v-fork", Quiver(3, ((0, 2), (0, 2), (1, 2))), (1, 0, 1), (2, 2, 2)),
)
THETA4 = (theta(4), (1, 2), (3, 3))  # N = M = 6
# The heavy oracle cases sample with this fixed seed: their cost depends
# on the sampled representations (the dual-basis check needs from 1 to 3
# samples), which would otherwise swing a pass by a third between seeds.
HEAVY_SEED = 0


def oracles_workload(seed: int, smoke: bool) -> Workload:
    """Finite-field and rank oracles against pinned N and M; no LR work."""
    instances = N2_INSTANCES[:1] if smoke else N2_INSTANCES
    cases = []
    for label, Q, beta, alpha in instances:
        gamma = tuple(a - b for a, b in zip(alpha, beta))
        cases.append(_sampled_case(f"{label} sampled", Q, beta, alpha, 13, 2, 11, seed, 2))
        cases.append(
            Case(
                f"{label} rank",
                lambda Q=Q, beta=beta, gamma=gamma: oracles.si_rank_oracle(
                    Q, beta, gamma, nv=6, nw=6, field=ffield.GF(13), seed=seed
                ),
                lambda rank: rank == 2,
            )
        )
    if not smoke:
        # enumeration over all lines of F_{13^2}^3, N = M = 1
        cases.append(_sampled_case("theta(2) (1,0)/(3,1) sampled", theta(2), (1, 0), (3, 1), 13, 2, 3, HEAVY_SEED, 1))
        cases.append(_solve_case(HEAVY_SEED))
        cases.append(_basis_case(HEAVY_SEED))
    rng = random.Random(seed)
    rng.shuffle(cases)
    return Workload(cases, [])


def _sampled_case(label, Q, beta, alpha, q, ext, trials, seed, n_expected) -> Case:
    return Case(
        label,
        lambda: oracles.sampled_subrep_count(Q, beta, alpha, q, max_ext_degree=ext, trials=trials, seed=seed),
        lambda got: got.modal == n_expected,
    )


def _solve_case(seed: int) -> Case:
    """The elimination path over GF(101^j), j <= 4: a non-degenerate trial
    never sees more than the N = 6 subrepresentations."""
    Q, beta, alpha = THETA4

    def check(got) -> bool:
        counts = [c for trial in got.per_trial for c in trial if c is not None]
        return got.method == "solve" and bool(counts) and all(0 <= c <= 6 for c in counts)

    return Case(
        "theta(4) solve",
        lambda: oracles.sampled_subrep_count(Q, beta, alpha, 101, max_ext_degree=4, trials=4, seed=seed),
        check,
    )


def _basis_case(seed: int) -> Case:
    """Dual-basis check over GF(101): passes with k = M = 6 on a diagonal matrix."""
    Q, beta, alpha = THETA4

    def check(rep) -> bool:
        E = rep.matrix
        diagonal = E is not None and all(
            (E[i][j] != 0) == (i == j) for i in range(len(E)) for j in range(len(E))
        )
        return rep.passed and rep.k == rep.m_expected == 6 and diagonal

    return Case(
        "theta(4) basis",
        lambda: oracles.verify_determinant_basis(Q, beta, alpha, ffield.GF(101), seed=seed),
        check,
    )


BUILDERS = {
    "kronecker": kronecker,
    "tripleflag": tripleflag,
    "fiber": fiber,
    "oracles": oracles_workload,
}
