"""The frontier DP's plan: one arrow order per instance, arrows of
capacity 0 folded in without work, the shape-keyed closing lookup and
its kit, closing steps fed by one state or by several, the lone state
held through closing steps, the size window of the scanning steps,
read from one label table per rectangle, and the products with an empty
factor, answered with no `expand`."""

import hashlib
import random
from itertools import product

from quivercount import counting
from quivercount.counting import (
    _closing_kit,
    _label_table,
    _labeled_sum,
    _plan,
    _product,
    count_subreps,
    count_subreps_detailed,
    fiber_class,
    random_instance,
    si_dimension_detailed,
    triple_flag_instance,
    verify_counts,
)
from quivercount.covariants import build_hat, covariant_count, covariant_multiplicity
from quivercount.lr import LREngine
from quivercount.partitions import Rectangle, complement, conjugate, fits, partitions_in_rectangle
from quivercount.quiver import Quiver, euler_form


def test_verify_counts_orders_the_arrows_once(monkeypatch, engine):
    calls = []
    order = counting._greedy_arrow_order

    def counted(Q, rect_sizes):
        calls.append(Q)
        return order(Q, rect_sizes)

    monkeypatch.setattr(counting, "_greedy_arrow_order", counted)
    Q, beta, alpha, expected = triple_flag_instance((2, 1), (2, 1), (2, 1), 3, 6, engine)
    rep = verify_counts(Q, beta, alpha, engine)
    assert rep.n_value == rep.m_value == expected == 2
    assert calls == [Q]


def test_plan_orders_arrows_by_label_count():
    # binom(beta(t) + gamma(h), beta(t)) is the length of the label table
    # on either side; dimensions up to 5 give rectangles such as 1x4 and
    # 2x2 with equal box counts but different label counts
    rng = random.Random(3)
    for _ in range(300):
        Q, beta, alpha = random_instance(rng, max_verts=5, max_arrows=8, max_dim=5, require_zero_pairing=False)
        gamma = tuple(a - b for a, b in zip(alpha, beta))
        order = [a for a, *_ in _plan(Q, beta, gamma).steps]
        for conjugated in (False, True):
            sizes = [len(_label_table(Rectangle(beta[t], gamma[h]))[conjugated]) for t, h in Q.arrows]
            assert order == counting._greedy_arrow_order(Q, sizes)


# -- arrows of capacity 0 ---------------------------------------------------------


def _with_empty_arrows(rng, Q, beta, alpha):
    """Q with 1-4 more arrows t -> h of capacity beta(t) gamma(h) = 0, and
    half the time a new last vertex with gamma 0 to receive them.  The
    Euler pairing and every count stay the same."""
    beta = list(beta)
    gamma = [a - b for a, b in zip(alpha, beta)]
    nv = Q.nvertices
    if rng.random() < 0.5:
        beta.append(rng.randint(0, 2))
        gamma.append(0)
        nv += 1
    empty = [(t, h) for t in range(nv) for h in range(t + 1, nv) if beta[t] == 0 or gamma[h] == 0]
    arrows = list(Q.arrows)
    for _ in range(rng.randint(1, 4) if empty else 0):
        arrows.insert(rng.randint(0, len(arrows)), rng.choice(empty))
    return Quiver(nv, tuple(arrows)), tuple(beta), tuple(b + g for b, g in zip(beta, gamma))


def _zero_cap_pool(engine, size: int):
    """(base instance, instance with empty arrows added), seeded; most
    bases have N >= 2."""
    rng = random.Random(7)
    pool = []
    while len(pool) < size:
        base = random_instance(rng, max_verts=4, max_arrows=5, min_arrows=2)
        if count_subreps(*base, engine) < 2 and rng.random() < 0.7:
            continue
        inst = _with_empty_arrows(rng, *base)
        if len(inst[0].arrows) > len(base[0].arrows):
            pool.append((base, inst))
    return pool


# (N, M, N states, M states, breakdown rows) for each instance of
# _zero_cap_pool(engine, 40), and a digest of all the breakdown rows, as
# the DP gave them before arrows of capacity 0 were skipped
ZERO_CAP_PINS = [
    (1, 1, 9, 9, 1), (1, 1, 8, 8, 1), (1, 1, 6, 6, 1), (10, 10, 35, 13, 10),
    (1, 1, 7, 7, 1), (1, 1, 5, 5, 1), (6, 6, 21, 13, 6), (1, 1, 6, 6, 1),
    (2, 2, 9, 8, 2), (1, 1, 7, 7, 1), (3, 3, 13, 11, 3), (1, 1, 7, 7, 1),
    (1, 1, 5, 5, 1), (1, 1, 6, 6, 1), (1, 1, 7, 7, 1), (1, 1, 4, 4, 1),
    (1, 1, 9, 9, 1), (2, 2, 11, 10, 2), (2, 2, 10, 9, 2), (20, 20, 42, 23, 20),
    (1, 1, 4, 4, 1), (0, 0, 2, 2, 0), (10, 10, 25, 16, 10), (3, 3, 10, 8, 3),
    (1, 1, 7, 7, 1), (0, 0, 7, 7, 0), (1, 1, 7, 7, 1), (1, 1, 10, 10, 1),
    (20, 20, 70, 20, 20), (1, 1, 7, 7, 1), (1, 1, 9, 9, 1), (1, 1, 6, 6, 1),
    (1, 1, 10, 10, 1), (1, 1, 5, 5, 1), (1, 1, 7, 7, 1), (0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0), (1, 1, 7, 7, 1), (6, 6, 18, 10, 6), (1, 1, 10, 10, 1),
]
ZERO_CAP_BREAKDOWN_SHA256 = "cd520ae14a4b06b29ecef11915f4619cf15591fd10c07480fef7a94c6543c63a"


def test_zero_capacity_pool_matches_pins(engine):
    digest = hashlib.sha256()
    got = []
    at_closed = at_open = 0
    for base, (Q, beta, alpha) in _zero_cap_pool(engine, len(ZERO_CAP_PINS)):
        n, n_states, rows = count_subreps_detailed(Q, beta, alpha, engine, breakdown=True)
        m, m_states = si_dimension_detailed(Q, beta, alpha, engine)
        plain = verify_counts(*base, engine)
        assert (n, m) == (plain.n_value, plain.m_value)
        assert sum(c for _, c in rows) == n
        digest.update(repr(rows).encode())
        got.append((n, m, n_states, m_states, len(rows)))
        # where the empty arrows fall: at a vertex with boxes whose
        # other arrows are all folded in already, or at one still open
        plan = _plan(Q, beta, tuple(a - b for a, b in zip(alpha, beta)))
        left = list(plan.left)
        for _, t, h, cap, left_t, left_h, _ in plan.steps:
            if not cap:
                at_closed += sum(plan.full[x] > 0 and left[x] == 0 for x in (t, h))
                at_open += sum(left[x] > 0 for x in (t, h))
            left[t], left[h] = left_t, left_h
    assert got == ZERO_CAP_PINS
    assert digest.hexdigest() == ZERO_CAP_BREAKDOWN_SHA256
    assert at_closed >= 5 and at_open >= 20
    assert sum(n > 1 for n, *_ in got) >= 10


def test_covariant_routes_agree_across_empty_arrows(engine):
    rng = random.Random(11)
    pieces = started = 0
    while pieces < 40:
        Q, beta, alpha = random_instance(rng, max_arrows=5, min_arrows=2, require_zero_pairing=False)
        gamma = tuple(a - b for a, b in zip(alpha, beta))
        if not 1 <= euler_form(Q, beta, gamma) <= 2:
            continue
        Q, beta, alpha = _with_empty_arrows(rng, Q, beta, alpha)
        for mu, c in fiber_class(Q, beta, alpha, engine).sorted_items():
            assert covariant_multiplicity(Q, beta, alpha, mu, engine) == c
            assert covariant_count(Q, beta, alpha, mu, engine) == c
            pieces += 1
            started += any(mu)
    # most pieces start the exterior-side DP from nonempty shapes
    assert started >= 20


# -- the closing lookup -----------------------------------------------------------


def _label_index(rect, conjugated):
    """The lookup the shape-keyed one replaced: maps from tail factor and
    from head factor to the row index in the label table."""
    table = _label_table(rect)[conjugated]
    return {row[1]: i for i, row in enumerate(table)}, {row[2]: i for i, row in enumerate(table)}


def _complement_in(lam, bound):
    """Complement of lam inside the full rectangle `bound` (a partition)."""
    if not bound:
        return ()
    cols = bound[0]
    return bound[len(lam):] + tuple(cols - p for p in reversed(lam) if p < cols)


def test_closing_lookup_matches_complement_lookup():
    # the closing end reads column `side`, so the kept end reads 3 - side
    dims = [Rectangle(r, c) for r in range(6) for c in range(6)]
    shapes = {R: partitions_in_rectangle(R) for R in dims}
    for rect in dims:
        for conjugated in (False, True):
            by_factor = _label_index(rect, conjugated)
            for side in (1, 2):
                for R in dims:
                    bound = (R.cols,) * R.rows if R.cols else ()
                    by_shape = _closing_kit(rect, conjugated, 3 - side, R.rows, R.cols, 0, 0, False)[0]
                    assert all(fits(s, R) for s in by_shape)
                    for shape in shapes[R]:
                        want = by_factor[side - 1].get(_complement_in(shape, bound))
                        assert by_shape.get(shape) == want, (rect, conjugated, side, R, shape)
    _closing_kit.cache_clear()


def _closing_labels(rect, conjugated, side, bound):
    """The closing map as its own helper built it before the kit: from the
    shape of a vertex that closes on the full rectangle `bound` to the
    index of the label whose factor in column `side` completes it."""
    R = Rectangle(len(bound), bound[0] if bound else 0)
    table = _label_table(rect)[conjugated]
    return {complement(row[side], R): i for i, row in enumerate(table) if fits(row[side], R)}


def test_closing_kit_matches_its_parts():
    # every label rectangle up to 5x5, both sides, each closing mode
    # (tail kept, head kept, both closing), and the end rectangles an
    # arrow with that rectangle joins: the tail's rows (columns on the
    # exterior side) are rect.rows and the head's columns (rows) are
    # rect.cols.  Two rectangles take every pair of ends up to 5x5.
    dims = [(r, c) for r in range(6) for c in range(6)]
    every_pair = {Rectangle(0, 2), Rectangle(2, 3)}
    kits = 0
    for rect in map(Rectangle._make, dims):
        for conjugated in (False, True):
            table = _label_table(rect)[conjugated]
            ref = {
                (side, bound): _closing_labels(rect, conjugated, side, bound)
                for side in (1, 2)
                for bound in {(c,) * r if c else () for r, c in dims}
            }
            if rect in every_pair:
                ends = list(product(dims, dims))
            elif conjugated:
                ends = [((x, rect.rows), (rect.cols, y)) for x in range(6) for y in range(6)]
            else:
                ends = [((rect.rows, x), (y, rect.cols)) for x in range(6) for y in range(6)]
            for (rt, ct), (rh, ch) in ends:
                for col, both in ((1, False), (2, False), (2, True)):
                    # col 1 keeps the tail and shuts the head, col 2 the reverse
                    (rs, cs), (rk, ck) = ((rh, ch), (rt, ct)) if col == 1 else ((rt, ct), (rh, ch))
                    bound_shut = (cs,) * rs if cs else ()
                    bound_keep = (ck,) * rk if ck else ()
                    kit = _closing_kit(rect, conjugated, col, rs, cs, rk, ck, both)
                    by_shut, by_keep, got_table, got_shut, got_keep = kit
                    assert by_shut == ref[3 - col, bound_shut]
                    assert by_keep == (ref[2, bound_keep] if both else None)
                    assert got_table is table
                    assert (got_shut, got_keep) == (bound_shut, bound_keep)
                    kits += 1
        _closing_kit.cache_clear()
    assert kits == 34 * 2 * 36 * 3 + 2 * 2 * 36 * 36 * 3


# -- closing steps fed by one state or by several ----------------------------------


def _merging_pool(size: int):
    """(quiver, beta, gamma, pairing), seeded, with pairing 0 to 2 and at
    least three arrows, so closing steps often receive several states."""
    rng = random.Random(13)
    pool = []
    while len(pool) < size:
        Q, beta, alpha = random_instance(
            rng, max_verts=4, max_arrows=6, max_dim=3, min_arrows=3, require_zero_pairing=False
        )
        gamma = tuple(a - b for a, b in zip(alpha, beta))
        pairing = euler_form(Q, beta, gamma)
        if 0 <= pairing <= 2:
            pool.append((Q, beta, gamma, pairing))
    return pool


def _covariant_starts(beta, gamma, pairing):
    """Exterior-side start shapes, as covariant_multiplicity takes them,
    of every piece mu: per-vertex partitions in beta(x) x gamma(x) whose
    sizes add up to the pairing."""
    per = [[p for p in partitions_in_rectangle(Rectangle(b, g)) if sum(p) <= pairing] for b, g in zip(beta, gamma)]
    return [[conjugate(p) for p in mu] for mu in product(*per) if sum(map(sum, mu)) == pairing]


def _closing_census(plan, engine, conjugated, start=None):
    """(closing steps fed by one state that yield states, closing steps
    fed by several, closing steps where states merge), read off folds of
    the plan's prefixes: the states before a step are fed to it one at a
    time, and a merge leaves fewer states than they give alone."""
    lone = several = merged = 0
    left = list(plan.left)
    for j, step in enumerate(plan.steps):
        _, t, h, cap, left_t, left_h, _ = step
        if cap and not (left_t and left_h):
            before, _ = _labeled_sum(plan._replace(steps=plan.steps[:j]), engine, conjugated, start)
            after, _ = _labeled_sum(plan._replace(steps=plan.steps[: j + 1]), engine, conjugated, start)
            one_step = plan._replace(left=tuple(left), steps=(step,))
            alone = sum(len(_labeled_sum(one_step, engine, conjugated, key)[0]) for key in before)
            lone += len(before) == 1 and bool(after)
            several += len(before) > 1
            merged += alone > len(after)
        left[t], left[h] = left_t, left_h
    return lone, several, merged


def test_merging_closing_folds_match_pins(engine):
    # slack 0 throughout: zero pairings fold from empty shapes on both
    # sides, positive ones from every piece's covariant start shapes on
    # the exterior side, each with and without collecting labels; pinned
    # from the fold that hashed every new key twice and read its closing
    # maps per step
    digest = hashlib.sha256()
    folds = total = created = nonempty = 0
    pairings = [0] * 3
    census = {"default": (0, 0, 0), "covariant": (0, 0, 0)}
    for Q, beta, gamma, pairing in _merging_pool(40):
        pairings[pairing] += 1
        plan = _plan(Q, beta, gamma)
        starts = [None] if not pairing else _covariant_starts(beta, gamma, pairing)
        for start in starts:
            for conjugated in (False, True) if start is None else (True,):
                for collect in (False, True):
                    final, states = _labeled_sum(plan, engine, conjugated, start, collect=collect)
                    folds += 1
                    total += sum(final.values())
                    created += states
                    nonempty += bool(final)
                    digest.update(repr(list(final.items())).encode())
                kind = "default" if start is None else "covariant"
                found = _closing_census(plan, engine, conjugated, start)
                census[kind] = tuple(map(sum, zip(census[kind], found)))
    assert pairings == [21, 10, 9]
    assert (folds, total, created, nonempty) == (188, 424, 1344, 124)
    assert digest.hexdigest() == "20eeab03031b2488888d257853883fe97e14a2f083e53db8dbce6d54ebd651e4"
    # both the one-state insertion and the merging one run, on both kinds
    # of start, and states do merge at closing steps
    assert census == {"default": (12, 12, 12), "covariant": (14, 15, 14)}


# -- the held lone state -------------------------------------------------------------


def _held_pool(engine, size: int):
    """(quiver, beta, gamma, start), seeded: (5,2) triple flags at pairing
    2 with each piece's covariant start shapes (folded on the exterior
    side), and each piece's hat at pairing 0 with start None (folded on
    both sides); every quiver with arrows of capacity 0 added.  A lone
    state branches where a center vertex expands, and the arms close it
    back to one key."""
    rng = random.Random(29)
    parts = partitions_in_rectangle(Rectangle(2, 3))
    triples = [p for p in product(parts, repeat=3) if sum(map(sum, p)) == 4]
    rng.shuffle(triples)
    Q, alpha = counting._triple_flag_frame(5)
    pool = []
    for triple in triples[:size]:
        # as in triple_flag_instance: beta at arm position j counts the
        # i < 2 whose jump 4 - p_i + i is at most j
        arms = [[sum(4 - (p[i] if i < len(p) else 0) + i <= j for i in range(2)) for j in range(1, 5)] for p in triple]
        beta = (*arms[0], *arms[1], *arms[2], 2)
        for piece in fiber_class(Q, beta, alpha, engine).coeffs:
            hat = build_hat(Q, beta, alpha, piece)
            flag = _with_empty_arrows(rng, Q, beta, alpha)
            # a vertex that _with_empty_arrows adds starts empty
            start = [conjugate(p) for p in piece] + [()] * (flag[0].nvertices - Q.nvertices)
            hat = _with_empty_arrows(rng, hat.quiver, hat.beta, hat.alpha)
            for (P, b, a), shapes in ((flag, start), (hat, None)):
                pool.append((P, b, tuple(x - y for x, y in zip(a, b)), shapes))
    return pool


def _held_census(plan, engine, conjugated, start, collect):
    """(lone states that branch, states held again after a branch, arrows of
    capacity 0 folded while a state is held) in one fold, read off the state
    counts of its prefixes: a prefix folds the later arrows as arrows of
    capacity 0, so that collected keys keep their length."""
    steps = plan.steps
    emptied = [(a, t, h, 0, *rest) for a, t, h, _, *rest in steps]
    sizes = []
    for j in range(len(steps) + 1):
        prefix = plan._replace(steps=steps[:j] + tuple(emptied[j:]))
        sizes.append(len(_labeled_sum(prefix, engine, conjugated, start, collect=collect)[0]))
    held = branched = False
    branches = again = idle = 0
    for j, (_, _, _, cap, left_t, left_h, _) in enumerate(steps):
        if not sizes[j]:
            break
        if not cap:
            idle += held
        elif left_t and left_h:
            held = False
        elif sizes[j] == 1:
            # a closing step fed by one state holds it, and keeps holding
            # it unless its one expand gives several terms
            if not held:
                again += branched
                branched = False
            held = sizes[j + 1] == 1
            if sizes[j + 1] > 1:
                branches += 1
                branched = True
        else:
            held = False
    return branches, again, idle


def test_held_lone_state_folds_match_pins(monkeypatch, engine):
    # slack 0 throughout, with and without collecting labels; folds, sums,
    # created states and the digest of the final states pinned from the
    # fold that held no state and stored a lone state's keys with one
    # hash each
    runs = [
        ("covariant" if start else "NM"[conjugated], _plan(Q, beta, gamma), conjugated, start, collect)
        for Q, beta, gamma, start in _held_pool(engine, 3)
        for conjugated in ((True,) if start else (False, True))
        for collect in (False, True)
    ]
    digest = hashlib.sha256()
    total = created = 0
    census = {}
    for kind, plan, conjugated, start, collect in runs:
        final, states = _labeled_sum(plan, engine, conjugated, start, collect=collect)
        total += sum(final.values())
        created += states
        digest.update(repr(list(final.items())).encode())
        found = _held_census(plan, engine, conjugated, start, collect)
        census[kind, collect] = tuple(map(sum, zip(census.get((kind, collect), (0, 0, 0)), found)))
    assert (len(runs), total, created) == (264, 282, 9226)
    assert digest.hexdigest() == "dc4a881f94628c5c11bf5837c0cb4d9f9ba3240ccc82d9b2a23428c313ea7629"
    # on each side and each kind of start, with and without collecting, a
    # held state branches, a state is held again after a branch, and
    # arrows of capacity 0 are folded while a state is held
    assert census == {
        ("N", False): (18, 6, 252), ("N", True): (18, 4, 252),
        ("M", False): (18, 6, 252), ("M", True): (18, 4, 252),
        ("covariant", False): (19, 7, 179), ("covariant", True): (19, 6, 176),
    }
    # a closing step of a held state builds no key: a module global `tuple`
    # shadows the builtin inside counting, so the counter sees every key
    # the folds build (the caches the folds read are warm by now); the
    # fold that held no state built 5,063
    built = [0]

    def counted(*args):
        built[0] += 1
        return tuple(*args)

    monkeypatch.setattr(counting, "tuple", counted, raising=False)
    for _, plan, conjugated, start, collect in runs:
        _labeled_sum(plan, engine, conjugated, start, collect=collect)
    assert built[0] == 1219


def test_six_three_triple_flags_close_a_vertex_at_every_step(engine):
    # the triple-flag quiver is a tree, so every arrow that brings boxes
    # closes one of its ends; the (6,3) totals pinned from the fold that
    # scanned, the (7,3) ones (the tripleflag workload's instances) from
    # the fold that stored a lone state's keys with one hash each
    pins = {(6, 3): (435, 229, 7021, 7021), (7, 3): (1699, 761, 33222, 33222)}
    for n, r in pins:
        parts = partitions_in_rectangle(Rectangle(r, n - r))
        total = n_states = m_states = instances = 0
        for lam, mu, nu in product(parts, repeat=3):
            if sum(lam) + sum(mu) + sum(nu) != r * (n - r):
                continue
            Q, beta, alpha, expected = triple_flag_instance(lam, mu, nu, r, n, engine)
            rep = verify_counts(Q, beta, alpha, engine)
            assert rep.n_value == rep.m_value == expected, (lam, mu, nu)
            plan = _plan(Q, beta, tuple(a - b for a, b in zip(alpha, beta)))
            assert all(not left_t or not left_h for _, _, _, cap, left_t, left_h, _ in plan.steps if cap)
            total += rep.n_value
            n_states += rep.n_labelings
            m_states += rep.m_labelings
            instances += 1
        assert (instances, total, n_states, m_states) == pins[n, r]


# -- the scanning steps' size window ----------------------------------------------


def test_size_starts_match_the_graded_label_table():
    for rect in (Rectangle(r, c) for r in range(7) for c in range(7)):
        sym, ext, starts = _label_table(rect)
        parts = partitions_in_rectangle(rect)
        # graded, and starts[s] counts the labels of size below s
        sizes = [sum(p) for p in parts]
        assert sizes == sorted(sizes)
        assert list(starts) == [sum(x < s for x in sizes) for s in range(rect.rows * rect.cols + 2)], rect
        # both sides list the same labels in the same order; the exterior
        # factors are the conjugates of the symmetric ones
        assert [row[0] for row in sym] == [row[0] for row in ext] == parts
        for lam, (_, tail, head, s), (_, ext_tail, ext_head, ext_s) in zip(parts, sym, ext):
            assert (tail, head, s) == (lam, complement(lam, rect), sum(lam))
            assert (ext_tail, ext_head, ext_s) == (conjugate(tail), conjugate(head), s)


def test_each_label_rectangle_is_enumerated_once(monkeypatch, engine):
    # N and M of a triple flag close on both sides; the fiber class of a
    # positive pairing scans on the symmetric side, each piece's hat count
    # closes there, and its exterior fold from start shapes scans at the
    # steps whose two ends both stay open.  Both sides' tables and the
    # size index of a rectangle come from one pass over its partitions.
    calls = []
    listed = counting.partitions_in_rectangle

    def counted(rect):
        calls.append(rect)
        return listed(rect)

    monkeypatch.setattr(counting, "partitions_in_rectangle", counted)
    _label_table.cache_clear()
    _closing_kit.cache_clear()
    rng = random.Random(3)
    pool = []
    while len(pool) < 5:
        Q, beta, alpha = random_instance(rng, max_verts=3, max_arrows=4, min_arrows=2, require_zero_pairing=False)
        gamma = tuple(a - b for a, b in zip(alpha, beta))
        if 1 <= euler_form(Q, beta, gamma) <= 2:
            pool.append((Q, beta, alpha, gamma))
    open_steps = pieces = 0
    for Q, beta, alpha, gamma in pool:
        open_steps += any(cap and left_t and left_h for _, _, _, cap, left_t, left_h, _ in _plan(Q, beta, gamma).steps)
        for mu, c in fiber_class(Q, beta, alpha, engine).sorted_items():
            assert covariant_count(Q, beta, alpha, mu, engine) == c
            assert covariant_multiplicity(Q, beta, alpha, mu, engine) == c
            pieces += 1
    Q, beta, alpha, expected = triple_flag_instance((2, 1), (2, 1), (2, 1), 3, 6, engine)
    rep = verify_counts(Q, beta, alpha, engine)
    assert rep.n_value == rep.m_value == expected == 2
    assert open_steps == 3 and pieces >= 5
    assert len(set(calls)) == 8
    assert len(calls) == len(set(calls))


def _scanning_pool(size: int):
    """(quiver, beta, gamma, pairing), seeded, with pairing 0 to 3 and
    room for arrows between the same two vertices, so most folds have
    steps that scan with both ends open."""
    rng = random.Random(5)
    pool = []
    while len(pool) < size:
        Q, beta, alpha = random_instance(
            rng, max_verts=5, max_arrows=7, max_dim=4, min_arrows=2, require_zero_pairing=False
        )
        gamma = tuple(a - b for a, b in zip(alpha, beta))
        pairing = euler_form(Q, beta, gamma)
        if 0 <= pairing <= 3:
            pool.append((Q, beta, gamma, pairing))
    return pool


def test_scanning_folds_match_pins(engine):
    # every slack up to the pairing, both sides, with and without
    # collecting labels; pinned from the fold that scanned the whole
    # label table and summed the other vertices' shortfall per state
    digest = hashlib.sha256()
    folds = total = created = nonempty = 0
    pairings = [0] * 4
    for Q, beta, gamma, pairing in _scanning_pool(120):
        pairings[pairing] += 1
        plan = _plan(Q, beta, gamma)
        for slack in range(pairing + 1):
            for conjugated in (False, True):
                for collect in (False, True):
                    final, states = _labeled_sum(plan, engine, conjugated, slack=slack, collect=collect)
                    folds += 1
                    total += sum(final.values())
                    created += states
                    nonempty += bool(final)
                    digest.update(repr(list(final.items())).encode())
    assert pairings == [53, 19, 25, 23]
    assert (folds, total, created, nonempty) == (1032, 1512, 5130, 348)
    assert digest.hexdigest() == "fd0d650f4bc0c6c1248daae4e585015de2d06157f7472c8c894665499effd56e"


# -- products with an empty factor --------------------------------------------------


def test_empty_factors_are_answered_as_expand_answers_them():
    # every factor of a label rectangle, on both sides, times the empty
    # shape, and every shape of a vertex rectangle times the empty factor,
    # with that rectangle as the bound (() when it has no columns).  A
    # factor wider than the bound or with more rows than it gives ()
    engine = LREngine()
    rects = [Rectangle(r, c) for r in range(4) for c in range(4)]
    seen = set()
    for rect in rects:
        sym, ext, _ = _label_table(rect)
        factors = {row[col] for table in (sym, ext) for row in table for col in (1, 2)}
        for box in rects:
            bound = (box.cols,) * box.rows if box.cols else ()
            pairs = [((), f) for f in factors] + [(cur, ()) for cur in partitions_in_rectangle(box)]
            for cur, f in pairs:
                got = _product(engine, cur, f, bound)
                assert got == engine.expand(cur, f, bound), (cur, f, bound)
                if f and not got:
                    seen.add("wider" if len(f) <= box.rows else "taller")
                seen.add("fits" if got else "empty")
                if not bound:
                    seen.add("no columns")
    assert seen == {"wider", "taller", "fits", "empty", "no columns"}


def test_no_expand_call_has_an_empty_factor(monkeypatch):
    # every product with an empty factor is answered in the fold: on the
    # (5,2) triple flags through verify_counts and fiber_class, whose
    # steps all close a vertex, and on seeded random instances, whose
    # scanning steps run at pairing 0 and, with slack, in the fiber class
    # and its covariant pieces at pairing 1-3
    parts = partitions_in_rectangle(Rectangle(2, 3))
    flags = [
        triple_flag_instance(lam, mu, nu, 2, 5)
        for lam, mu, nu in product(parts, repeat=3)
        if sum(lam) + sum(mu) + sum(nu) == 6
    ]
    rng = random.Random(39)
    pool = []
    while len(pool) < 40:
        Q, beta, alpha = random_instance(rng, max_verts=4, max_arrows=5, require_zero_pairing=False)
        pairing = euler_form(Q, beta, tuple(a - b for a, b in zip(alpha, beta)))
        if 0 <= pairing <= 3:
            pool.append((Q, beta, alpha, pairing))
    calls = []
    expand = LREngine.expand

    def recorded(self, lam, mu, bound):
        calls.append((lam, mu))
        return expand(self, lam, mu, bound)

    monkeypatch.setattr(LREngine, "expand", recorded)
    engine = LREngine()
    for Q, beta, alpha, expected in flags:
        rep = verify_counts(Q, beta, alpha, engine)
        assert rep.n_value == rep.m_value == expected
        assert fiber_class(Q, beta, alpha, engine).coefficient(((),) * Q.nvertices) == expected
    flag_calls = len(calls)
    assert flag_calls
    for Q, beta, alpha, pairing in pool:
        if not pairing:
            rep = verify_counts(Q, beta, alpha, engine)
            assert rep.n_value == rep.m_value
        for mu, c in fiber_class(Q, beta, alpha, engine).sorted_items():
            assert covariant_count(Q, beta, alpha, mu, engine) == covariant_multiplicity(Q, beta, alpha, mu, engine) == c
    assert len(calls) > flag_calls
    assert all(lam and mu for lam, mu in calls)
