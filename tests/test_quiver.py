import random
import re

import pytest

from quivercount import oracles
from quivercount.ffield import GF
from quivercount.oracles import (
    FFRep,
    NonSquarePairingError,
    build_dvw,
    hom_ext_dims,
    random_rep,
    semiinvariant_cv,
)
from quivercount.quiver import (
    NegativePairingError,
    NonzeroPairingError,
    Quiver,
    check_dimvector,
    check_instance,
    euler_form,
)

THETA2 = Quiver(2, ((0, 1), (0, 1)))
A2 = Quiver(2, ((0, 1),))


def test_quiver_validation():
    with pytest.raises(ValueError):
        Quiver(2, ((0, 2),))
    with pytest.raises(ValueError):
        Quiver(2, ((-1, 1),))
    Quiver(1, ())  # a single vertex with no arrows is fine


@pytest.mark.parametrize(
    "nvertices, arrows, message",
    [
        (-1, (), "negative vertex count"),
        (2, ((0, 1), (0, 2)), "arrow (0,2) out of range for 2 vertices"),
        (2, ((5, 5),), "arrow (5,5) out of range for 2 vertices"),
        (3, ((0, 1), (2, 2), (0, 3)), "loop at vertex 2 not allowed"),
        (3, ((0, 1), (1, 2), (2, 0)), "quiver contains an oriented cycle"),
    ],
)
def test_malformed_quiver_messages(nvertices, arrows, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Quiver(nvertices, arrows)


def test_non_integral_quivers_are_rejected():
    # int() would truncate the arrow to (0, 1) and answer for another quiver
    with pytest.raises(ValueError, match=re.escape("non-integral vertex 0.5 in arrow (0.5, 1.7)")):
        Quiver(2, ((0.5, 1.7),))
    with pytest.raises(ValueError, match=re.escape("non-integral vertex 1.5 in arrow (0, 1.5)")):
        Quiver(3, ((0, 1), (0, 1.5)))
    # reported before an earlier arrow's range error, as int() failures are
    with pytest.raises(ValueError, match="non-integral vertex 0.5"):
        Quiver(2, ((0, 7), (0.5, 1)))
    with pytest.raises(ValueError, match=re.escape("non-integral vertex count 2.5")):
        Quiver(2.5, ())


def test_integral_values_are_normalized_to_int():
    Q = Quiver(2.0, [[0.0, 1]])
    assert Q == A2 and Q.topo_order == (0, 1)
    assert type(Q.nvertices) is int and type(Q.arrows[0]) is tuple
    assert [type(x) for x in Q.arrows[0]] == [int, int]
    assert [type(x) for x in Quiver(2, ((True, 0),)).arrows[0]] == [int, int]


@pytest.mark.parametrize(
    "arrows",
    [
        ((0, 0),),
        ((0, 1), (1, 0)),
        ((0, 1), (1, 2), (2, 0)),
        ((0, 1), (1, 2), (2, 3), (3, 0)),
    ],
)
def test_cycles_rejected(arrows):
    n = 1 + max(max(t, h) for t, h in arrows)
    with pytest.raises(ValueError):
        Quiver(n, arrows)


def test_toposort_respects_arrows():
    Q = Quiver(4, ((2, 0), (0, 3), (2, 3), (1, 0)))
    pos = {x: i for i, x in enumerate(Q.topo_order)}
    for t, h in Q.arrows:
        assert pos[t] < pos[h]


def _toposort_by_arrow_scan(n: int, arrows) -> tuple[int, ...]:
    # reference: Kahn's algorithm scanning every arrow for each popped vertex
    indeg = [0] * n
    for _, h in arrows:
        indeg[h] += 1
    ready = [x for x in range(n) if indeg[x] == 0]
    order = []
    while ready:
        x = ready.pop()
        order.append(x)
        for t, h in arrows:
            if t == x:
                indeg[h] -= 1
                if indeg[h] == 0:
                    ready.append(h)
    return tuple(order)


def test_toposort_order_matches_the_arrow_scan():
    # random acyclic quivers: arrows go from a lower to a higher rank in a
    # shuffled ranking, listed in random order, with repeats
    rng = random.Random(3)
    for _ in range(500):
        n = rng.randint(1, 8)
        rank = list(range(n))
        rng.shuffle(rank)
        arrows = []
        for _ in range(rng.randint(0, 12) if n > 1 else 0):
            a, b = rng.sample(range(n), 2)
            arrows.append((a, b) if rank[a] < rank[b] else (b, a))
        assert Quiver(n, tuple(arrows)).topo_order == _toposort_by_arrow_scan(n, arrows), (n, arrows)


def test_check_dimvector():
    assert check_dimvector(THETA2, [1, 2]) == (1, 2)
    with pytest.raises(ValueError):
        check_dimvector(THETA2, (1,))
    with pytest.raises(ValueError):
        check_dimvector(THETA2, (1, -1))
    assert check_dimvector(THETA2, (1, -1), signed=True) == (1, -1)


def test_non_integral_entries_are_rejected():
    # int() would truncate 1.5 to 1 and answer for another instance
    with pytest.raises(ValueError, match="non-integral entry 1.5"):
        check_instance(A2, (1.5, 1), (2, 2))
    with pytest.raises(ValueError, match="non-integral"):
        check_dimvector(A2, iter([2, 0.25]))
    with pytest.raises(ValueError, match="non-integral"):
        FFRep(A2, GF(5), (1, 1.5), ((),))
    assert check_dimvector(A2, iter([2.0, 1])) == (2, 1)


def test_check_instance_states_the_pairing_requirement():
    theta3 = Quiver(2, ((0, 1),) * 3)
    # None requires nothing: the pairing comes back whatever its sign
    assert check_instance(theta3, (1, 1), (2, 2))[3] == -1
    assert check_instance(A2, (1, 1), (2, 2))[3] == 1
    assert check_instance(A2, (1, 1), (2, 2), "nonnegative")[3] == 1
    assert check_instance(THETA2, (1, 1), (2, 2), "zero")[3] == 0
    for require in ("nonnegative", "zero"):
        with pytest.raises(NegativePairingError, match="negative Euler pairing -1"):
            check_instance(theta3, (1, 1), (2, 2), require)
    with pytest.raises(NonzeroPairingError, match="nonzero Euler pairing 1") as info:
        check_instance(A2, (1, 1), (2, 2), "zero")
    assert type(info.value) is NonzeroPairingError
    # a misspelled requirement is refused, whatever the pairing
    for require in ("non-negative", "", 0, "Zero"):
        with pytest.raises(ValueError, match="pairing requirement must be None, 'nonnegative' or 'zero'"):
            check_instance(THETA2, (1, 1), (2, 2), require)


def test_euler_form_pins():
    assert euler_form(THETA2, (1, 1), (1, 1)) == 0
    assert euler_form(THETA2, (2, 2), (1, 1)) == 0
    assert euler_form(THETA2, (1, 2), (2, 1)) == 2
    assert euler_form(A2, (1, 1), (1, 1)) == 1
    assert euler_form(Quiver(1, ()), (3,), (4,)) == 12


def test_euler_form_matches_definition_fuzz():
    rng = random.Random(9)
    for _ in range(500):
        nv = rng.randint(1, 5)
        arrows = []
        for _ in range(rng.randint(0, 5)):
            t, h = rng.randrange(nv), rng.randrange(nv)
            if t != h:
                arrows.append((min(t, h), max(t, h)))
        Q = Quiver(nv, tuple(arrows))
        a = tuple(rng.randint(0, 4) for _ in range(nv))
        b = tuple(rng.randint(0, 4) for _ in range(nv))
        direct = sum(x * y for x, y in zip(a, b)) - sum(a[t] * b[h] for t, h in Q.arrows)
        assert euler_form(Q, a, b) == direct
        # bilinearity in each slot
        c = tuple(rng.randint(0, 3) for _ in range(nv))
        summed = tuple(x + y for x, y in zip(b, c))
        assert euler_form(Q, a, summed) == euler_form(Q, a, b) + euler_form(Q, a, c)


def test_random_rep_golden():
    V = random_rep(THETA2, (2, 2), GF(101), 12345)
    assert V.mats == (((53, 93), (1, 38)), ((47, 24), (34, 72)))


def test_random_rep_seed_determinism():
    F = GF(13, 2)
    a = random_rep(THETA2, (2, 3), F, 7)
    b = random_rep(THETA2, (2, 3), F, 7)
    c = random_rep(THETA2, (2, 3), F, 8)
    assert a.mats == b.mats
    assert a.mats != c.mats


def test_ffrep_shape_validation():
    F = GF(5)
    with pytest.raises(ValueError):
        FFRep(A2, F, (2, 2), (((1, 2),),))  # 1x2 instead of 2x2
    with pytest.raises(ValueError):
        FFRep(A2, F, (2, 2), ())


@pytest.mark.parametrize("field, entry", [(GF(5, 2), 30), (GF(5, 2), -1), (GF(5), 5)])
def test_ffrep_rejects_entries_outside_the_field(field, entry):
    # an entry past q - 1 would index past GF's log table; a negative one
    # is no residue
    with pytest.raises(ValueError, match=f"arrow 1: entry {entry} is not an element of {re.escape(str(field))}"):
        FFRep(THETA2, field, (1, 1), (((1,),), ((entry,),)))


def test_dual_transposes_onto_the_opposite_quiver():
    F = GF(5)
    V = random_rep(Quiver(3, ((0, 1), (0, 1), (1, 2))), (2, 3, 1), F, 4)
    D = V.dual()
    assert D.quiver.arrows == ((1, 0), (1, 0), (2, 1))
    assert D.dim == V.dim
    for i in range(3):
        assert D.mats[i] == tuple(zip(*V.mats[i]))
    assert D.dual() == V
    # an arrow into a zero-dimensional vertex has no rows; its transpose
    # still has one (empty) row per dimension of the tail
    Z = FFRep(A2, F, (2, 0), ((),))
    assert Z.dual().mats == (((), ()),)
    assert Z.dual().dual() == Z


def test_dvw_block_structure_single_arrow():
    # for A2 with dims (1,1) the map sends f = (f_0, f_1) to w f_0 - f_1 v,
    # so the matrix row holds w and -v in the two f-coordinate columns
    F = GF(101)
    v, w = 17, 29
    V = FFRep(A2, F, (1, 1), (((v,),),))
    W = FFRep(A2, F, (1, 1), (((w,),),))
    D = build_dvw(A2, V, W)
    assert len(D) == 1 and len(D[0]) == 2
    assert sorted(D[0]) == sorted((w, F.neg(v)))


def test_dvw_dimensions_general():
    F = GF(7)
    Q = Quiver(3, ((0, 1), (1, 2), (0, 2)))
    V = random_rep(Q, (1, 2, 1), F, 3)
    W = random_rep(Q, (2, 1, 2), F, 4)
    D = build_dvw(Q, V, W)
    rows = sum(v * w for (t, h) in Q.arrows for v, w in [(V.dim[t], W.dim[h])])
    cols = sum(v * w for v, w in zip(V.dim, W.dim))
    assert len(D) == rows
    assert all(len(r) == cols for r in D)


def test_hom_ext_match_euler_form():
    # dim Hom - dim Ext equals the Euler pairing for every pair
    rng = random.Random(21)
    F = GF(5)
    for _ in range(40):
        nv = rng.randint(1, 3)
        arrows = []
        for _ in range(rng.randint(0, 3)):
            t, h = rng.randrange(nv), rng.randrange(nv)
            if t != h:
                arrows.append((min(t, h), max(t, h)))
        Q = Quiver(nv, tuple(arrows))
        a = tuple(rng.randint(0, 3) for _ in range(nv))
        b = tuple(rng.randint(0, 3) for _ in range(nv))
        V = random_rep(Q, a, F, rng.randrange(1 << 30))
        W = random_rep(Q, b, F, rng.randrange(1 << 30))
        hom, ext = hom_ext_dims(Q, V, W)
        assert hom - ext == euler_form(Q, a, b)
        assert hom >= 0 and ext >= 0


def test_hom_of_identity_pair():
    F = GF(11)
    V = FFRep(A2, F, (1, 1), (((1,),),))
    hom, ext = hom_ext_dims(A2, V, V)
    assert (hom, ext) == (1, 0)


def test_semiinvariant_requires_zero_pairing():
    F = GF(5)
    V = random_rep(A2, (1, 1), F, 0)
    W = random_rep(A2, (1, 1), F, 1)
    with pytest.raises(NonSquarePairingError):
        semiinvariant_cv(A2, V, W)


@pytest.mark.parametrize(
    "v_quiver, w_quiver, w_field, message",
    [
        (THETA2, A2, GF(5), "V lives on a different quiver"),
        (A2, THETA2, GF(5), "W lives on a different quiver"),
        (A2, A2, GF(7), "field mismatch: GF(5) vs GF(7)"),
        # several faults at once: V's quiver, then W's, then the field
        (THETA2, THETA2, GF(7), "V lives on a different quiver"),
        (A2, THETA2, GF(7), "W lives on a different quiver"),
    ],
)
def test_semiinvariant_checks_its_pair(v_quiver, w_quiver, w_field, message):
    # pairing -1 and 0 on A2: a bad pair is named before a nonzero pairing
    for v_dim, w_dim in (((1, 0), (0, 1)), ((0, 1), (1, 0))):
        V = random_rep(v_quiver, v_dim, GF(5), 0)
        W = random_rep(w_quiver, w_dim, w_field, 1)
        with pytest.raises(ValueError, match=re.escape(message)) as ei:
            semiinvariant_cv(A2, V, W)
        assert not isinstance(ei.value, NonSquarePairingError)


def test_semiinvariant_checks_its_pair_once(monkeypatch):
    # build_dvw's check is the only one: one call per determinant, a good
    # pair or a nonzero pairing alike
    calls = []
    check = oracles._check_pair
    monkeypatch.setattr(oracles, "_check_pair", lambda *args: calls.append(args) or check(*args))
    F = GF(5)
    V, W = random_rep(THETA2, (1, 1), F, 0), random_rep(THETA2, (1, 1), F, 1)
    semiinvariant_cv(THETA2, V, W)
    assert len(calls) == 1
    with pytest.raises(NonSquarePairingError, match="euler pairing is 1"):
        semiinvariant_cv(A2, random_rep(A2, (1, 1), F, 0), random_rep(A2, (1, 1), F, 1))
    assert len(calls) == 2


def test_semiinvariant_theta2_values():
    # <(1,1),(1,1)> = 0 for two arrows; c^V(W) = v0 w1 - v1 w0 in suitable
    # coordinates, zero iff the two representations are isomorphic
    F = GF(101)
    V = FFRep(THETA2, F, (1, 1), (((3,),), ((5,),)))
    W1 = FFRep(THETA2, F, (1, 1), (((3,),), ((5,),)))
    W2 = FFRep(THETA2, F, (1, 1), (((3,),), ((6,),)))
    assert semiinvariant_cv(THETA2, V, W1) == 0
    assert semiinvariant_cv(THETA2, V, W2) != 0


def test_semiinvariant_vanishes_exactly_on_hom():
    # c^V(W) = 0 iff Hom(V, W) != 0; V = (I, diag(1,2)) has the coordinate
    # axes as eigen-lines, so W = (1,1) maps in while W = (1,3) does not
    F = GF(13)
    V = FFRep(THETA2, F, (2, 2), (((1, 0), (0, 1)), ((1, 0), (0, 2))))
    W_in = FFRep(THETA2, F, (1, 1), (((1,),), ((1,),)))
    W_out = FFRep(THETA2, F, (1, 1), (((1,),), ((3,),)))
    assert euler_form(THETA2, (2, 2), (1, 1)) == 0
    assert hom_ext_dims(THETA2, V, W_in)[0] > 0
    assert semiinvariant_cv(THETA2, V, W_in) == 0
    assert hom_ext_dims(THETA2, V, W_out)[0] == 0
    assert semiinvariant_cv(THETA2, V, W_out) != 0
