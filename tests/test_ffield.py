import itertools
import random
import re
import time
from functools import reduce

import pytest

from quivercount.ffield import (
    GF,
    distinct_degree_factorization,
    is_prime,
    mat_det,
    mat_kernel,
    mat_rank,
    mat_rref,
    mat_vec,
    poly_deg,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_monic,
    poly_mul,
    poly_orbit_roots,
    poly_powmod,
    poly_roots,
    poly_scale,
    poly_sub,
    poly_trim,
    split_order,
    _min_irreducible,
    _power,
)


def _pow(F, a, e):
    """a^e in F for e >= 0, by the square-and-multiply that GF uses."""
    return _power(F.mul, a, e)


def test_is_prime_pins():
    primes = [2, 3, 5, 7, 11, 101, 2**31 - 1]
    composites = [0, 1, 4, 9, 91, 561, 1 << 16]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in composites)


def test_is_prime_rejects_composites_that_pass_trial_division():
    # 1763 = 41 * 43 and 3215031751 = 151 * 751 * 28351 have no factor
    # among the trial divisors, so Miller-Rabin itself rejects them
    assert not is_prime(1763)
    assert not is_prime(3215031751)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: GF(2147483659), ValueError, "too large (need p < 2^31)"),
        (lambda: GF(5).inv(0), ZeroDivisionError, "inverse of zero"),
        (lambda: GF(101, 2).inv(0), ZeroDivisionError, "inverse of zero"),
        (lambda: mat_det(GF(5), [[1, 2]]), ValueError, "non-square"),
        (lambda: poly_divmod(GF(5), (1, 1), ()), ZeroDivisionError, "division by zero"),
    ],
    ids=["prime-too-large", "inv0-prime", "inv0-extension", "det-non-square", "divmod-by-zero"],
)
def test_input_checks(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_gf_rejects_bad_parameters():
    with pytest.raises(ValueError):
        GF(4)
    with pytest.raises(ValueError):
        GF(3, 0)
    with pytest.raises(ValueError):
        GF(3, 5)
    for p, k in [(13.5, 1), (13, 2.5), ("13", 1), (13, "2")]:
        with pytest.raises(ValueError, match="non-integral field parameters"):
            GF(p, k)


def test_gf_takes_integral_parameters_as_ints():
    # an integral float is read as its int, so the field is GF(13) itself
    F = GF(13.0)
    assert F.add(5, 9) == 1 and type(F.add(5, 9)) is int
    assert (F.p, F.q) == (13, 13) and type(F.p) is int
    assert F == GF(13) and hash(F) == hash(GF(13))
    E = GF(13, 2.0)
    assert E == GF(13, 2) and E.k == 2 and type(E.k) is int
    assert E.mul(14, E.inv(14)) == 1


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)])
def test_field_axioms_exhaustive(p, k):
    F = GF(p, k)
    els = list(F.elements())
    assert len(els) == p**k
    for a, b in itertools.product(els, repeat=2):
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
        assert F.add(a, F.neg(a)) == F.zero
        if a != F.zero:
            assert F.mul(a, F.inv(a)) == F.one
    for a, b, c in itertools.product(els[: min(len(els), 8)], repeat=3):
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_frozen_moduli():
    # deterministic minimal irreducibles; these exact coefficient tuples are
    # relied on by seeded golden values elsewhere
    assert GF(2, 2).modulus == (1, 1, 1)
    assert GF(3, 2).modulus == (1, 0, 1)
    assert GF(2, 4).modulus == (1, 1, 0, 0, 1)
    assert GF(3, 4).modulus == (2, 1, 0, 0, 1)
    assert GF(101, 2).modulus == (2, 0, 1)


def _has_monic_factor(p: int, f: tuple) -> bool:
    # reference: trial division by every monic polynomial of degree 1 .. k-1
    F = GF(p)
    return any(
        not poly_divmod(F, f, tail + (1,))[1]
        for d in range(1, len(f) - 1)
        for tail in itertools.product(range(p), repeat=d)
    )


def _is_irreducible(F, f: tuple) -> bool:
    # the predicate _min_irreducible applies: f's distinct-degree
    # factorization is f alone
    return distinct_degree_factorization(F, f) == [(len(f) - 1, f)]


def _monics_by_encoding(p: int, k: int):
    for tail in range(p**k):
        yield tuple(tail // p**i % p for i in range(k)) + (1,)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_min_irreducible_matches_factor_search(p, k):
    expected = next(f for f in _monics_by_encoding(p, k) if not _has_monic_factor(p, f))
    assert _min_irreducible(p, k) == expected


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3)])
def test_irreducibility_test_matches_factor_search(p, k):
    for f in _monics_by_encoding(p, k):
        assert _is_irreducible(GF(p), f) == (not _has_monic_factor(p, f)), f


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("p", [p for p in range(50) if is_prime(p)])
def test_min_irreducible_matches_unskipped_search(p, k):
    # reference: the irreducibility test on every tail in encoding order, binomials included
    expected = next(f for f in _monics_by_encoding(p, k) if _is_irreducible(GF(p), f))
    assert _min_irreducible(p, k) == expected


@pytest.mark.parametrize("p,k", [(1000000007, 4), (65537, 3)])
def test_min_irreducible_is_fast_where_no_binomial_is_irreducible(p, k):
    # each of the p binomials x^k + c is reducible here; testing them all
    # took seconds at p = 65537 and did not finish at p = 10^9 + 7
    start = time.perf_counter()
    modulus = _min_irreducible(p, k)
    assert time.perf_counter() - start < 1.0
    assert GF(p, k).modulus == modulus
    assert _is_irreducible(GF(p), modulus)


def test_min_irreducible_pins():
    # the moduli of the fields the oracles build; seeded pins elsewhere rest on them
    assert _min_irreducible(101, 2) == (2, 0, 1)
    assert _min_irreducible(101, 3) == (1, 1, 0, 1)
    assert _min_irreducible(101, 4) == (2, 0, 0, 0, 1)
    assert _min_irreducible(13, 2) == (2, 0, 1)


def test_modulus_is_a_root_of_itself():
    for p, k in [(2, 2), (3, 2), (5, 2), (101, 2), (2, 4)]:
        F = GF(p, k)
        # the generator x (encoded as p) satisfies the modulus
        x = p
        acc = F.zero
        power = F.one
        for c in F.modulus:
            acc = F.add(acc, F.mul(c % p, power))
            power = F.mul(power, x)
        assert acc == F.zero


def test_large_prime_arithmetic_without_tables():
    F = GF(2**31 - 1)
    a, b = 2**30, 12345
    assert F.mul(a, F.inv(a)) == 1
    assert F.add(a, F.neg(a)) == 0
    assert F.mul(a, b) == a * b % F.p


def test_extension_mul_agrees_with_table_free_path():
    F = GF(61, 2)  # 3721 elements, within table range
    assert F._exp is not None
    rng = random.Random(5)
    for _ in range(200):
        a = rng.randrange(F.q)
        b = rng.randrange(F.q)
        assert F.mul(a, b) == F._mul_poly(a, b)


@pytest.mark.parametrize("p,k", [(2, 3), (3, 4), (101, 3), (101, 4)])
def test_extension_inverse_matches_fermat(p, k):
    F = GF(p, k)
    rng = random.Random(p + k)
    for _ in range(100):
        a = rng.randrange(1, F.q)
        assert F.inv(a) == _pow(F, a, F.q - 2)
        assert F.mul(a, F.inv(a)) == F.one


def _digits(a, p, k):
    return [a // p**i % p for i in range(k)]


@pytest.mark.parametrize("p,k", [(101, 2), (101, 3), (101, 4)])
def test_arithmetic_past_table_limit_matches_reference(p, k):
    # reference: digit-wise sums, and digit convolution reduced by
    # polynomial division against the modulus over GF(p)
    F, base = GF(p, k), GF(p)
    assert F.q > GF.TABLE_LIMIT and F._exp is None
    rng = random.Random(k)
    for _ in range(300):
        a, b = rng.randrange(F.q), rng.randrange(F.q)
        da, db = _digits(a, p, k), _digits(b, p, k)
        total = sum((x + y) % p * p**i for i, (x, y) in enumerate(zip(da, db)))
        assert F.add(a, b) == total
        assert F.sub(total, b) == a
        assert F.add(a, F.neg(a)) == 0
        conv = [0] * (2 * k - 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                conv[i + j] += x * y
        rem = poly_divmod(base, poly_trim(base, [c % p for c in conv]), F.modulus)[1]
        assert F.mul(a, b) == sum(c * p**i for i, c in enumerate(rem))


@pytest.mark.parametrize("p,k", [(3, 2), (5, 3), (101, 2), (101, 3), (101, 4)])
def test_prime_subfield_arithmetic_matches_digit_path(p, k):
    # reference: digit-wise sums and differences, the table-free product,
    # and Fermat inverses formed with the table-free product
    F = GF(p, k)

    def digitwise(a, b, op):
        pairs = zip(_digits(a, p, k), _digits(b, p, k))
        return sum(op(x, y) % p * p**i for i, (x, y) in enumerate(pairs))

    def check(a, b):
        assert F.add(a, b) == digitwise(a, b, int.__add__)
        assert F.sub(a, b) == digitwise(a, b, int.__sub__)
        assert F.mul(a, b) == F._mul_poly(a, b)

    for a in range(p):
        assert F.neg(a) == digitwise(0, a, int.__sub__)
        if a:
            assert F.inv(a) == _power(F._mul_poly, a, F.q - 2)
    for a, b in itertools.product(range(p), repeat=2):
        check(a, b)
    rng = random.Random(p * 10 + k)
    for _ in range(500):
        small, big = rng.randrange(p), rng.randrange(p, F.q)
        check(small, big)
        check(big, small)
        assert F.neg(big) == digitwise(0, big, int.__sub__)


def test_powmod_with_prime_field_coefficients_ignores_the_extension():
    # x^(p^4) mod f, for f over F_p, is the same tuple whether the
    # coefficients are read in F_p or in F_{p^4}
    f = (3, 0, 7, 1, 1)
    assert poly_powmod(GF(101, 4), (0, 1), 101**4, f) == poly_powmod(GF(101, 1), (0, 1), 101**4, f)


# every field with log/exp tables: p^k <= GF.TABLE_LIMIT, k = 2..4 (28 fields)
_TABLE_FIELDS = [
    (p, k) for k in (2, 3, 4) for p in range(2, 65) if is_prime(p) and p**k <= GF.TABLE_LIMIT
]


@pytest.mark.parametrize("p,k", _TABLE_FIELDS)
def test_generator_is_the_smallest_counted_from_two(p, k):
    # reference: the primitive-root test with the table-free product, g is
    # a generator iff g^((q-1)/f) != 1 for each prime f dividing q - 1
    F = GF(p, k)
    n = F.q - 1
    factors = [f for f in range(2, n + 1) if n % f == 0 and is_prime(f)]
    expected = next(
        g for g in range(2, F.q) if all(_power(F._mul_poly, g, n // f) != 1 for f in factors)
    )
    assert F._exp[1] == expected
    # exp and log are inverse permutations of the units
    assert sorted(F._exp) == list(range(1, F.q))
    assert all(F._log[x] == i for i, x in enumerate(F._exp))
    assert all(F._exp[F._log[x]] == x for x in range(1, F.q))


def test_field_data_built_once_per_field():
    assert GF(13, 2)._exp is GF(13, 2)._exp
    assert GF(101, 4)._rows is GF(101, 4)._rows


def test_fields_compare_and_hash_by_p_and_k():
    assert GF(13) == GF(13) and GF(13) != GF(13, 2)
    assert GF(13) != 13 and 13 != GF(13)
    assert len({GF(13), GF(13), GF(13, 2)}) == 2


def test_frobenius_fixes_prime_subfield():
    F = GF(3, 2)
    for a in range(3):
        assert _pow(F, a, 3) == a
    moved = [a for a in F.elements() if _pow(F, a, 3) != a]
    assert len(moved) == 6


@pytest.mark.parametrize("p,k", [(2, 2), (2, 4), (3, 3), (13, 2), (61, 2), (101, 2), (101, 4)])
def test_frobenius_is_the_pth_power(p, k):
    # tabled fields look a^p up, the others power
    F = GF(p, k)
    rng = random.Random(p * 10 + k)
    for a in list(range(min(F.q, 50))) + [rng.randrange(F.q) for _ in range(100)]:
        assert F.frobenius(a) == _pow(F, a, p)


# -- matrices ------------------------------------------------------------------


def rand_matrix(F, rng, n, m):
    return [[F.sample(rng) for _ in range(m)] for _ in range(n)]


def _mat_mul(F, A, B):
    return [[reduce(F.add, (F.mul(a, b) for a, b in zip(row, col)), F.zero) for col in zip(*B)] for row in A]


def test_rref_shape_and_pivots():
    F = GF(5)
    A = [[1, 2, 3], [2, 4, 1], [0, 0, 4]]
    R, pivots = mat_rref(F, A)
    assert pivots == (0, 2)
    assert mat_rank(F, A) == 2
    # pivot columns reduced to unit vectors
    for r, c in enumerate(pivots):
        col = [R[i][c] for i in range(len(R))]
        assert col[r] == 1 and all(x == 0 for i, x in enumerate(col) if i != r)


@pytest.mark.parametrize("p,k", [(5, 1), (13, 2), (101, 2), (101, 4)])
def test_rank_without_inverses_matches_the_rref(p, k):
    # GF(13^2) has log/exp tables, GF(101^2) and GF(101^4) have none; half
    # the matrices are products through r < min(n, m), and some rows are zeroed
    F = GF(p, k)
    rng = random.Random(10 * p + k)
    deficient = 0
    for _ in range(40):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        A = rand_matrix(F, rng, n, m)
        if rng.random() < 0.5:
            r = rng.randint(0, min(n, m) - 1)
            A = _mat_mul(F, rand_matrix(F, rng, n, r), rand_matrix(F, rng, r, m)) if r else [[F.zero] * m for _ in range(n)]
        for i in rng.sample(range(n), rng.randint(0, n // 2)):
            A[i] = [F.zero] * m
        rank = len(mat_rref(F, A)[1])
        assert mat_rank(F, A) == rank, A
        deficient += rank < min(n, m)
    assert deficient >= 15
    assert mat_rank(F, []) == 0


def test_inverse_and_determinant():
    F = GF(7)
    rng = random.Random(0)
    for _ in range(30):
        n = rng.randint(1, 4)
        A = rand_matrix(F, rng, n, n)
        assert (mat_det(F, A) == 0) == (mat_rank(F, A) < n)
    assert mat_det(F, []) == F.one


def test_kernel_vectors_annihilate():
    F = GF(3, 2)
    rng = random.Random(1)
    for _ in range(20):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        A = rand_matrix(F, rng, n, m)
        basis = mat_kernel(F, A, m)
        assert len(basis) == m - mat_rank(F, A)
        for v in basis:
            assert all(x == F.zero for x in mat_vec(F, A, v))


# -- polynomials ---------------------------------------------------------------


def test_poly_divmod_identity():
    F = GF(13)
    rng = random.Random(3)
    for _ in range(50):
        f = poly_trim(F, [rng.randrange(13) for _ in range(rng.randint(0, 6))])
        g = poly_trim(F, [rng.randrange(13) for _ in range(rng.randint(1, 4))])
        if not g:
            continue
        qt, r = poly_divmod(F, f, g)
        assert poly_trim(F, [a for a in r]) == r
        recomb = tuple(poly_trim(F, _padd(F, poly_mul(F, qt, g), r)))
        assert recomb == f


def _padd(F, f, g):
    out = list(f) + [F.zero] * (len(g) - len(f))
    for i, c in enumerate(g):
        out[i] = F.add(out[i], c)
    return out


def test_poly_roots_prime_field():
    F = GF(101)
    # (x-1)(x-2)(x-3) with a leading unit
    f = poly_mul(F, poly_mul(F, (100, 1), (99, 1)), (98, 1))
    f = tuple(F.mul(5, c) for c in f)
    assert sorted(poly_roots(F, f)) == [1, 2, 3]
    assert poly_roots(F, (1,)) == []


def test_poly_roots_deterministic_across_calls():
    F = GF(101)
    f = poly_mul(F, poly_mul(F, (100, 1), (94, 1)), (51, 1))
    assert poly_roots(F, f) == poly_roots(F, f)


def test_poly_roots_extension_field():
    F = GF(3, 2)
    # x^2 + 1 factors over F_9 though not over F_3
    roots = poly_roots(F, (1, 0, 1))
    assert len(roots) == 2
    for r in roots:
        assert F.add(F.mul(r, r), F.one) == F.zero


def _nonsquare(F):
    e = (F.q - 1) // 2
    return next(n for n in range(2, F.q) if _pow(F, n, e) != F.one)


@pytest.mark.parametrize("field", [(13, 1), (13, 2), (101, 2), (101, 3)])
def test_poly_roots_lists_repeated_roots_once(field):
    # GF(13^j) is scanned; GF(101^j) takes gcd(x^q - x, f) and splits it
    F = GF(*field)
    p = F.p
    a, b = F.q - 2, 3  # a lies outside F_p when F is an extension

    def power(g, e):
        f = (F.one,)
        for _ in range(e):
            f = poly_mul(F, f, g)
        return f

    def x_minus(c):
        return (F.neg(c), F.one)

    quad = (F.neg(_nonsquare(F)), F.zero, F.one)  # irreducible over F
    cases = [
        (poly_mul(F, power(x_minus(a), 3), x_minus(b)), {a, b}),
        (poly_mul(F, power(quad, 2), x_minus(a)), {a}),
        # the first factor has zero derivative
        (poly_mul(F, power(x_minus(1), p), x_minus(2)), {1, 2}),
    ]
    for f, roots in cases:
        if F.q <= 4096:
            roots = {c for c in F.elements() if poly_eval(F, f, c) == F.zero}
        found = poly_roots(F, f)
        assert len(found) == len(set(found))
        assert set(found) == roots


def _irreducibles(p: int, d: int, count: int, rng) -> list[tuple]:
    """`count` distinct monic irreducibles of degree d over F_p."""
    out: list[tuple] = []
    while len(out) < count:
        f = tuple(rng.randrange(p) for _ in range(d)) + (1,)
        if f not in out and _is_irreducible(GF(p), f):
            out.append(f)
    return out


def _product(F, factors) -> tuple:
    out = (F.one,)
    for f in factors:
        out = poly_mul(F, out, f)
    return out


def _roots_split_over_the_extension(F, f) -> list:
    # the roots of f in the order of the textbook Cantor-Zassenhaus split
    # of gcd(x^q - x, f) over F: gcd((x + c)^((q-1)/2) - 1, h) for c drawn
    # from the seeded rng, its roots first
    x = (F.zero, F.one)
    f = poly_monic(F, f)
    lin = poly_gcd(F, poly_sub(F, poly_powmod(F, x, F.q, f), x), f)
    rng = random.Random(0x5EED)
    roots: list = []

    def split(h):
        if poly_deg(h) == 1:
            roots.append(F.neg(h[0]))
            return
        while True:
            a = (F.sample(rng), F.one)
            g = poly_gcd(F, poly_sub(F, poly_powmod(F, a, (F.q - 1) // 2, h), (F.one,)), h)
            if 0 < poly_deg(g) < poly_deg(h):
                split(g)
                split(poly_divmod(F, h, g)[0])
                return

    if poly_deg(lin) > 0:
        split(lin)
    return roots


@pytest.mark.parametrize("p,j", [(101, 2), (101, 3), (101, 4), (13, 4)])
def test_poly_roots_of_prime_field_polynomials_in_extensions(p, j):
    # f is a product over F_p of irreducibles of degree 1..4, some repeated;
    # its roots in GF(p^j) are those of the factors whose degree d divides
    # j, d of each, listed as a direct split over GF(p^j) lists them.
    # GF(13^4) has 28,561 elements, so it splits too.
    F = GF(p, j)
    assert F.q > GF.TABLE_LIMIT
    rng = random.Random(p * 10 + j)
    for _ in range(4):
        counts = {d: rng.randint(0, 2) for d in range(1, 5)}
        factors = [h for d, n in counts.items() for h in _irreducibles(p, d, n, rng)]
        repeated = factors[: rng.randint(0, len(factors))]
        f = poly_scale(F, rng.randrange(1, p), _product(F, factors + repeated))
        roots = poly_roots(F, f)
        assert len(roots) == len(set(roots)) == sum(d * n for d, n in counts.items() if j % d == 0)
        assert all(poly_eval(F, f, r) == F.zero for r in roots)
        assert roots == _roots_split_over_the_extension(F, f)
    # no factor of degree dividing j: no roots
    odd = 3 if j != 3 else 2
    assert poly_roots(F, _product(F, _irreducibles(p, odd, 2, rng))) == []
    # degree 1, over F_p and outside it
    assert poly_roots(F, (5, 3)) == [F.neg(F.mul(5, F.inv(3)))]
    assert poly_roots(F, (F.neg(F.q - 1), 1)) == [F.q - 1]
    # a coefficient outside F_p keeps the split over F
    a = F.q - 2
    f = _product(F, [(F.neg(a), F.one), (F.neg(3), F.one), _irreducibles(p, 2, 1, rng)[0]])
    roots = poly_roots(F, f)
    assert len(roots) == len(set(roots)) == (4 if j % 2 == 0 else 2)
    assert a in roots and 3 in roots
    assert all(poly_eval(F, f, r) == F.zero for r in roots)


@pytest.mark.parametrize("p,j", [(10007, 1), (65537, 1), (101, 2), (101, 3), (101, 4), (13, 4)])
def test_poly_roots_split_matches_the_textbook_split(p, j):
    # products of linear factors x - a, some repeated, times an irreducible
    # quadratic over F, with a leading unit.  Over an extension every a
    # lies outside F_p, so no factor of f but the leading unit is over F_p.
    F = GF(p, j)
    assert F.q > GF.TABLE_LIMIT
    rng = random.Random(p * 10 + j)
    lo = p if j > 1 else 0
    for _ in range(4):
        roots = rng.sample(range(lo, F.q), rng.randint(2, 6))
        linear = [(F.neg(a), F.one) for a in roots]
        n = next(n for n in iter(lambda: rng.randrange(lo, F.q), None) if _pow(F, n, (F.q - 1) // 2) != F.one)
        quad = (F.neg(n), F.zero, F.one)
        f = poly_scale(F, rng.randrange(1, F.q), _product(F, linear + linear[:2] + [quad]))
        found = poly_roots(F, f)
        assert sorted(found) == sorted(roots)
        assert found == _roots_split_over_the_extension(F, f)


@pytest.mark.parametrize("p,k", [(3, 4), (13, 2), (13, 4), (101, 2), (101, 3), (101, 4)])
def test_split_order_replays_poly_roots(p, k):
    # distinct root sets of 1..7 elements, two of them repeated in f and
    # all handed over shuffled, come out in poly_roots' order: scanned up
    # to GF.TABLE_LIMIT (GF(3^4), GF(13^2)) and split above it, where the
    # textbook split lists them the same way
    F = GF(p, k)
    rng = random.Random(p * 10 + k)
    for _ in range(20):
        roots = rng.sample(range(F.q), rng.randint(1, 7))
        linear = [(F.neg(r), F.one) for r in roots]
        f = poly_scale(F, rng.randrange(1, F.q), _product(F, linear + linear[:2]))
        rng.shuffle(roots)
        replayed = split_order(F, roots)
        assert replayed == poly_roots(F, f)
        if F.q > GF.TABLE_LIMIT:
            assert replayed == _roots_split_over_the_extension(F, f)
    assert split_order(F, []) == []


@pytest.mark.parametrize("p", [3, 13, 101])
def test_embedding_is_an_injective_homomorphism_that_commutes_with_frobenius(p):
    E, F = GF(p, 2), GF(p, 4)
    image = [F.embed(a, 2) for a in E.elements()]
    assert image[:p] == list(range(p))  # the identity on F_p
    assert len(set(image)) == E.q
    # E's generator goes to a root of its modulus
    assert poly_eval(F, E.modulus, image[p]) == F.zero
    rng = random.Random(p)
    pairs = itertools.product(E.elements(), repeat=2) if p < 101 else ((E.sample(rng), E.sample(rng)) for _ in range(3000))
    for a, b in pairs:
        assert image[E.add(a, b)] == F.add(image[a], image[b])
        assert image[E.mul(a, b)] == F.mul(image[a], image[b])
    assert all(image[E.frobenius(a)] == F.frobenius(image[a]) for a in E.elements())
    # over F_p and over F itself every element is its own image
    assert [F.embed(a, 1) for a in range(p)] == list(range(p))
    assert all(F.embed(a, 4) == a for a in rng.sample(range(F.q), 50))
    with pytest.raises(ValueError):
        GF(p, 3).embed(p, 2)


@pytest.mark.parametrize("p,k", [(2, 3), (2, 4), (3, 4), (13, 2), (101, 2), (101, 3), (101, 4), (13, 4)])
def test_poly_one_root_of_prime_field_irreducibles(p, k):
    # poly_orbit_roots on a leading unit times n distinct F_p-irreducibles
    # of one degree d | k (F_2 has 2, 1, 2, 3 of degree 1..4): one root in
    # GF(p^k) per factor, scanned up to GF.TABLE_LIMIT and split above it,
    # whose orbit polynomials prod (x - r^(p^i)), i < d, are the factors
    F = GF(p, k)
    rng = random.Random(p * 10 + k)
    for d in (d for d in range(1, k + 1) if k % d == 0):
        for n in range(1, (2, 1, 2, 3)[d - 1] + 1 if p == 2 else 4):
            hs = _irreducibles(p, d, n, rng)
            roots = poly_orbit_roots(F, poly_scale(F, rng.randrange(1, p), _product(F, hs)), d)
            orbits = [_product(F, [(F.neg(_pow(F, r, p**i)), F.one) for i in range(d)]) for r in roots]
            assert len(roots) == n and sorted(orbits) == sorted(hs), (d, hs, roots)


def test_distinct_degree_factorization_partition():
    F = GF(2)
    # x^4 + x = x (x+1) (x^2+x+1): degree-1 part x^2+x, degree-2 part x^2+x+1
    f = (0, 1, 0, 0, 1)
    parts = dict(distinct_degree_factorization(F, poly_monic(F, f)))
    assert parts[1] == (0, 1, 1)
    assert parts[2] == (1, 1, 1)


def test_distinct_degree_factorization_over_a_large_prime_field():
    F = GF(101)
    rng = random.Random(4)
    by_degree = {d: _irreducibles(101, d, n, rng) for d, n in ((1, 3), (2, 1), (3, 2), (4, 1))}
    f = _product(F, [h for hs in by_degree.values() for h in hs])
    assert distinct_degree_factorization(F, f) == [
        (d, _product(F, hs)) for d, hs in by_degree.items()
    ]


@pytest.mark.parametrize("p", [2, 3, 5, 101])
def test_distinct_degree_factorization_lists_repeated_factors_once(p):
    # f = leading unit * prod h^m over irreducibles h of degree 1..5, with
    # multiplicities m up to 3: each h counts once in its degree's part.
    # F_2 has one irreducible quadratic, and two or more of every other
    # degree up to 5.
    F = GF(p)
    rng = random.Random(p)
    for _ in range(6):
        chosen = {d: _irreducibles(p, d, rng.randint(0, 1 if (p, d) == (2, 2) else 2), rng) for d in range(1, 6)}
        hs = [h for d in chosen for h in chosen[d]]
        if not hs:
            continue
        f = _product(F, [h for h in hs for _ in range(rng.randint(1, 3))])
        f = poly_scale(F, rng.randrange(1, p), f)
        assert distinct_degree_factorization(F, f) == [
            (d, poly_monic(F, _product(F, chosen[d]))) for d in chosen if chosen[d]
        ]


def test_poly_gcd_pins():
    F = GF(7)
    f = poly_mul(F, (1, 1), (2, 1))
    g = poly_mul(F, (1, 1), (3, 1))
    assert poly_gcd(F, f, g) == poly_monic(F, (1, 1))


def test_zero_scale_and_zero_monic_give_the_zero_polynomial():
    F = GF(7)
    assert poly_scale(F, 0, (1, 2, 3)) == ()
    assert poly_monic(F, ()) == ()
    assert poly_monic(F, (2, 4)) == (4, 1)


def test_poly_eval_horner():
    F = GF(11)
    f = (3, 0, 1)  # x^2 + 3
    assert poly_eval(F, f, 5) == (25 + 3) % 11
