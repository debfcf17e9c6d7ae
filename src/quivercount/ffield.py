"""Finite fields F_{p^k} with k <= 4, plus field-generic linear algebra and
univariate polynomial tools.

Field elements are plain ints 0..q-1: the base-p digits of an element are
the coefficients of its polynomial expression in the extension generator.
Constants 0..p-1 therefore mean the same thing in F_p and in every
extension F_{p^k}, which is what lets a representation sampled over F_p be
re-read over an extension without translation.

`GF` does its arithmetic in one of three regimes: integers mod p for the
prime field; extensions up to `GF.TABLE_LIMIT` elements, log/exp tables of
the smallest generator, the first of p, p + 1, .. whose powers meet
every unit; and, above that, digit arithmetic that reduces products with
precomputed residues of x^k .. x^(2k-2) and inverts by the extended
Euclidean algorithm in F_p[x].  In every regime, operands in the prime
subfield (ints below p) take integer arithmetic mod p: F_p is closed
under the field operations, so the result is the same int.  Without
tables, a product with one operand in F_p scales the other's base-p
digits mod p.

The matrix and polynomial helpers are generic over a small field protocol
(attributes `zero`, `one`; methods add/sub/neg/mul/inv/sample).  Matrices
are lists of row lists; polynomials are tuples of coefficients in
ascending degree order with no trailing zeros, () being the zero
polynomial.  The ring-level polynomial helpers (`poly_trim`, `poly_add`,
`poly_neg`, `poly_sub`, `poly_scale`, `poly_mul`, `poly_deg`,
`poly_eval`) need only `zero`, `one`, add, neg and mul, so they work over
any commutative ring: `oracles` uses them over F[s], whose elements are
themselves such tuples, and over F[s][t], whose elements are tuples of
those.

`poly_roots` lists the roots in F of any polynomial over F.  It scans
fields of at most `GF.TABLE_LIMIT` elements, the same threshold as the
tables; in larger fields one Cantor-Zassenhaus splitter finds them,
forming (x + c)^((q-1)/2) through the norm to F_p so that its powering
runs to (p-1)/2 only.  `distinct_degree_factorization` groups the
irreducible factors of a polynomial by degree, and `poly_orbit_roots`
takes one root of each factor of such a group over F_p in an extension
where it splits, i.e. one root per Frobenius orbit, with the same scan
and splitter: `oracles` groups an eliminant's factors over F_p once and
counts one root per orbit in every extension it reads it over.  It takes
each orbit's root in the field the orbit generates, GF(p, d), and
carries it into each larger GF(p, k), d | k, with `GF.embed`, a fixed
embedding built once per (p, d, k) when first asked for.  `split_order`
lists known roots in the order `poly_roots` would list them, replaying
its seeded splits on the roots themselves, with no polynomial arithmetic.
"""

from __future__ import annotations

import random
from functools import cache
from typing import Iterable

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond the 2^31 cap used here."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class GF:
    """The field with q = p**k elements, p prime, 1 <= k <= 4.

    For k > 1 the modulus is the minimal monic irreducible of degree k
    over F_p, "minimal" meaning smallest integer encoding sum(c_i p^i) of
    the non-leading coefficients -- a deterministic choice, so equal (p, k)
    always gives the same field.  Arithmetic runs in one of three regimes:

    - k = 1: integer arithmetic mod p.
    - q <= TABLE_LIMIT: mul and inv look up log/exp tables of the smallest
      generator, the first of p, p + 1, .. whose powers meet every unit.
    - q > TABLE_LIMIT: mul convolves the base-p digits and folds the
      coefficients of x^k .. x^(2k-2) back with their precomputed residues
      mod the modulus; inv runs the extended Euclidean algorithm in F_p[x]
      against the modulus.

    For k > 1, add, neg, sub, mul and inv take integer arithmetic mod p
    whenever every operand is below p, i.e. lies in the prime subfield,
    in both the table and the table-free regime.  Otherwise add, neg and
    sub work on the encoded ints directly: the integer sum or difference,
    corrected by one carry p^(i+1) at each digit i that left 0..p-1.  In
    the table-free regime, mul with one operand below p multiplies each
    base-p digit of the other by it mod p, the same int as the digit
    convolution gives.  The modulus, the residues and the tables are built
    once per (p, k) in a process (`_field_data`).

    TABLE_LIMIT is also where `poly_roots` stops scanning the field and
    starts splitting.
    """

    TABLE_LIMIT = 4096

    def __init__(self, p: int, k: int = 1) -> None:
        if (int(p), int(k)) != (p, k):
            raise ValueError(f"non-integral field parameters p={p!r}, k={k!r}")
        p, k = int(p), int(k)
        if not is_prime(p):
            raise ValueError(f"field characteristic {p} is not prime")
        if p >= 1 << 31:
            raise ValueError(f"prime {p} too large (need p < 2^31)")
        if not 1 <= k <= 4:
            raise ValueError(f"extension degree {k} out of range 1..4")
        self.p = p
        self.k = k
        self.q = p**k
        self.zero = 0
        self.one = 1 % self.q
        self.modulus: tuple[int, ...] | None = None
        self._width = 0
        self._rows: tuple[int, ...] = ()
        self._exp: tuple[int, ...] | None = None
        self._log: tuple[int, ...] | None = None
        self._frob: tuple[tuple[int, ...], ...] = ()
        # p, p^2, .., p^k: one carry out of each digit
        self._carries = tuple(p ** (i + 1) for i in range(k))
        if k > 1:
            self.modulus, self._width, self._rows, self._frob, self._exp, self._log = _field_data(p, k)

    # -- element arithmetic --------------------------------------------------

    def add(self, a: int, b: int) -> int:
        p = self.p
        if self.k == 1 or (a < p and b < p):
            return (a + b) % p
        out = a + b
        for carry in self._carries:
            if a % p + b % p >= p:
                out -= carry
            a //= p
            b //= p
        return out

    def neg(self, a: int) -> int:
        return self.sub(0, a)

    def sub(self, a: int, b: int) -> int:
        p = self.p
        if self.k == 1 or (a < p and b < p):
            return (a - b) % p
        out = a - b
        for carry in self._carries:
            if a % p < b % p:
                out += carry
            a //= p
            b //= p
        return out

    def mul(self, a: int, b: int) -> int:
        p = self.p
        if self.k == 1 or (a < p and b < p):
            return a * b % p
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]
        if b < p:
            a, b = b, a
        if a < p:
            # a scalar in F_p: scale b's base-p digits
            out, unit = 0, 1
            while b:
                b, d = divmod(b, p)
                out += a * d % p * unit
                unit *= p
            return out
        return self._mul_poly(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        p = self.p
        if self.k == 1 or a < p:
            return pow(a, p - 2, p)
        if self._exp is not None:
            return self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)]
        return self._inv_poly(a)

    def frobenius(self, a: int) -> int:
        """a^p, the image of a under the Frobenius automorphism of F/F_p;
        it fixes exactly the prime subfield, the ints below p.  With tables
        it is one lookup; without, it is F_p-linear in the base-p digits,
        with digit i of a scaling the digits of (x^i)^p."""
        p = self.p
        if a < p:
            return a
        if self._exp is not None:
            return self._exp[self._log[a] * p % (self.q - 1)]
        return _linear_image(p, self.k, self._frob, a)

    def embed(self, a: int, d: int) -> int:
        """The image of a, an element of GF(p, d) with d dividing k, under
        one fixed embedding of GF(p, d) in this field: it sends GF(p, d)'s
        generator to a root here of its modulus (`_embedding`), so it is
        F_p-linear in a's base-p digits, fixes the prime subfield and
        commutes with Frobenius.  For d = k it is the identity."""
        if self.k % d:
            raise ValueError(f"GF({self.p},{d}) is not a subfield of {self!r}")
        if a < self.p or d == self.k:
            return a
        return _linear_image(self.p, self.k, _embedding(self.p, d, self.k), a)

    def elements(self) -> range:
        return range(self.q)

    def sample(self, rng) -> int:
        return rng.randrange(self.q)

    # -- internals -----------------------------------------------------------

    def _mul_poly(self, a: int, b: int) -> int:
        """Table-free product, valid for every k > 1."""
        return _mul_mod(self.p, self.k, self._width, self._rows, a, b)

    def _inv_poly(self, a: int) -> int:
        # Extended Euclid on digit lists (ascending, no trailing zeros),
        # keeping s * a = r mod the modulus for the last two remainders r.
        p = self.p
        r0, r1 = list(self.modulus), []
        while a:
            r1.append(a % p)
            a //= p
        s0, s1 = [], [1]
        while len(r1) > 1:
            d = len(r1) - 1
            lead = pow(r1[-1], -1, p)
            rem = r0[:]
            quo = [0] * (len(r0) - d)
            for i in range(len(r0) - 1, d - 1, -1):
                c = rem[i] * lead % p
                if c:
                    quo[i - d] = c
                    for j, y in enumerate(r1):
                        rem[i - d + j] -= c * y
            rem = [x % p for x in rem[:d]]
            while rem[-1] == 0:
                rem.pop()  # never empties: gcd(a, modulus) = 1
            s = s0 + [0] * (len(quo) + len(s1) - 1 - len(s0))
            for i, c in enumerate(quo):
                if c:
                    for j, y in enumerate(s1):
                        s[i + j] -= c * y
            r0, r1 = r1, rem
            s0, s1 = s1, [x % p for x in s]
        c = pow(r1[0], -1, p)
        out = 0
        for x in reversed(s1):
            out = out * p + x * c % p
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GF):
            return NotImplemented
        return (self.p, self.k) == (other.p, other.k)

    def __hash__(self) -> int:
        return hash(("GF", self.p, self.k))

    def __repr__(self) -> str:
        return f"GF({self.p})" if self.k == 1 else f"GF({self.p},{self.k})"


@cache
def _field_data(p: int, k: int):
    """(modulus, width, rows, frob, exp, log) of GF(p, k), k > 1.

    Products are formed on ints that pack one coefficient into each
    `width`-bit field; rows[i] is the residue of x^(k+i) mod the modulus,
    i = 0..k-2, packed the same way.  frob[i] holds the base-p digits of
    (x^i)^p, i = 0..k-1.  exp and log are None above GF.TABLE_LIMIT; else
    exp walks the powers of the first g = p, p + 1, .. to meet q - 1 units
    before 1 (the constants below p have order dividing p - 1, so g is the
    smallest generator) and log inverts it.
    """
    modulus = _min_irreducible(p, k)
    row = [-c % p for c in modulus[:k]]
    red = [row]
    for _ in range(k - 2):
        # times x: shift up and fold the coefficient of x^k back in
        top = row[-1]
        row = [(x + top * r) % p for x, r in zip([0] + row[:-1], red[0])]
        red.append(row)
    # a reduced product coefficient is below this, so no field carries
    width = (k * (p - 1) ** 2 * (1 + (k - 1) * (p - 1))).bit_length()
    rows = tuple(sum(r << (width * j) for j, r in enumerate(row)) for row in red)

    def mul(a: int, b: int) -> int:
        return _mul_mod(p, k, width, rows, a, b)

    frob = tuple(tuple(_power(mul, p**i, p) // p**j % p for j in range(k)) for i in range(k))
    q = p**k
    if q > GF.TABLE_LIMIT:
        return modulus, width, rows, frob, None, None

    for g in range(p, q):
        exp, x = [1], g
        while x != 1:
            exp.append(x)
            x = mul(x, g)
        if len(exp) == q - 1:
            break
    log = [0] * q
    for i, x in enumerate(exp):
        log[x] = i
    return modulus, width, rows, frob, tuple(exp), tuple(log)


@cache
def _embedding(p: int, d: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The base-p digits in GF(p, k) of the images of x^0 .. x^(d-1) under
    `GF.embed`'s embedding of GF(p, d), 1 < d < k, d | k: the powers of one
    root in GF(p, k) of GF(p, d)'s modulus, taken by `poly_orbit_roots`.
    Built when first asked for, once per (p, d, k) in a process."""
    F = GF(p, k)
    r = poly_orbit_roots(F, GF(p, d).modulus, d)[0]
    powers = [F.one]
    for _ in range(d - 1):
        powers.append(F.mul(powers[-1], r))
    return tuple(tuple(x // p**j % p for j in range(k)) for x in powers)


def _linear_image(p: int, k: int, images: tuple, a: int) -> int:
    # the F_p-linear map that sends x^i to the element with base-p digits
    # images[i], applied to a's digits
    digits = [0] * k
    for image in images:
        a, d = divmod(a, p)
        if d:
            digits = [x + d * y for x, y in zip(digits, image)]
    out = 0
    for x in reversed(digits):
        out = out * p + x % p
    return out


def _mul_mod(p: int, k: int, width: int, rows: tuple, a: int, b: int) -> int:
    # Kronecker substitution: one integer product of the packed digits
    # is the convolution, its top k-1 fields are folded back with rows.
    top = k * width
    A = B = 0
    for shift in range(0, top, width):
        a, x = divmod(a, p)
        b, y = divmod(b, p)
        A |= x << shift
        B |= y << shift
    C = A * B
    low = C & ((1 << top) - 1)
    C >>= top
    mask = (1 << width) - 1
    for row in rows:
        low += (C & mask) * row
        C >>= width
    out = 0
    for shift in range(top - width, -1, -width):
        out = out * p + (low >> shift & mask) % p
    return out


def _power(mul, a: int, e: int) -> int:
    out = 1
    while e:
        if e & 1:
            out = mul(out, a)
        a = mul(a, a)
        e >>= 1
    return out


def _min_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Smallest-encoding monic irreducible of degree k over F_p.

    Returned as the full ascending coefficient tuple (c_0..c_{k-1}, 1).
    The search skips the binomials x^k + c (tails below p) where none is
    irreducible: for k = 3 and p != 1 mod 3 every element of F_p is a
    cube, and for k = 4 and p = 3 mod 4, x^4 + c splits into quadratics.
    For large p those p tails would dominate the search.
    """
    base = GF(p)
    binomials_reducible = (k == 3 and p % 3 != 1) or (k == 4 and p % 4 == 3)
    for tail in range(p if binomials_reducible else 0, p**k):
        digits = []
        t = tail
        for _ in range(k):
            digits.append(t % p)
            t //= p
        f = tuple(digits) + (1,)
        # irreducible iff its distinct-degree factorization is f alone
        if distinct_degree_factorization(base, f) == [(k, f)]:
            return f
    raise AssertionError(f"no irreducible of degree {k} over F_{p}")


# -- matrices over a generic field -------------------------------------------


def mat_identity(F, n: int) -> list[list]:
    return [[F.one if i == j else F.zero for j in range(n)] for i in range(n)]


def mat_vec(F, A: list[list], v: list) -> list:
    out = []
    for row in A:
        s = F.zero
        for a, x in zip(row, v):
            if a != F.zero and x != F.zero:
                s = F.add(s, F.mul(a, x))
        out.append(s)
    return out


def mat_rref(F, A: list[list]) -> tuple[list[list], tuple[int, ...]]:
    """Reduced row echelon form (new matrix) and its pivot columns."""
    M = [list(row) for row in A]
    nrows = len(M)
    ncols = len(M[0]) if M else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if M[i][c] != F.zero), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        inv = F.inv(M[r][c])
        M[r] = [F.mul(inv, x) for x in M[r]]
        for i in range(nrows):
            if i != r and M[i][c] != F.zero:
                f = M[i][c]
                M[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return M, tuple(pivots)


def mat_rank(F, A: list[list]) -> int:
    """Rank by forward elimination without inverses: each row is reduced
    against the echelon rows kept so far, v <- e[c] v - v[c] e at the
    leading column c of each e, and kept when it stays nonzero.  A kept
    row is zero at the leading columns of the rows kept before it, so the
    kept rows are independent and span the rows seen."""
    zero, sub, mul = F.zero, F.sub, F.mul
    echelon: list[tuple[int, list]] = []
    for row in A:
        v = list(row)
        for c, e in echelon:
            b = v[c]
            if b != zero:
                a = e[c]
                v = [sub(mul(a, x), mul(b, y)) for x, y in zip(v, e)]
        c = next((i for i, x in enumerate(v) if x != zero), None)
        if c is not None:
            echelon.append((c, v))
    return len(echelon)


def mat_det(F, A: list[list]):
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return F.one  # empty determinant convention
    M = [list(row) for row in A]
    det = F.one
    for c in range(n):
        pr = next((i for i in range(c, n) if M[i][c] != F.zero), None)
        if pr is None:
            return F.zero
        if pr != c:
            M[c], M[pr] = M[pr], M[c]
            det = F.neg(det)
        pivot = M[c][c]
        det = F.mul(det, pivot)
        inv = F.inv(pivot)
        for i in range(c + 1, n):
            if M[i][c] != F.zero:
                f = F.mul(inv, M[i][c])
                M[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(M[i], M[c])]
    return det


def mat_kernel(F, A: list[list], ncols: int | None = None) -> list[list]:
    """Basis of the right kernel {v : A v = 0}."""
    if not A:
        n = ncols or 0
        return [row[:] for row in mat_identity(F, n)]
    n = len(A[0])
    R, pivots = mat_rref(F, A)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [F.zero] * n
        v[fc] = F.one
        for r, pc in enumerate(pivots):
            v[pc] = F.neg(R[r][fc])
        basis.append(v)
    return basis


# -- univariate polynomials over a generic field ------------------------------


def poly_trim(F, cs: Iterable) -> tuple:
    out = list(cs)
    while out and out[-1] == F.zero:
        out.pop()
    return tuple(out)


def poly_deg(f: tuple) -> int:
    return len(f) - 1  # zero polynomial gets -1


def poly_add(F, f: tuple, g: tuple) -> tuple:
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] = F.add(out[i], c)
    return poly_trim(F, out)


def poly_neg(F, f: tuple) -> tuple:
    return tuple(F.neg(c) for c in f)


def poly_sub(F, f: tuple, g: tuple) -> tuple:
    return poly_add(F, f, poly_neg(F, g))


def poly_scale(F, c, f: tuple) -> tuple:
    if c == F.zero:
        return ()
    return poly_trim(F, [F.mul(c, x) for x in f])


def poly_mul(F, f: tuple, g: tuple) -> tuple:
    if not f or not g:
        return ()
    out = [F.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a != F.zero:
            for j, b in enumerate(g):
                out[i + j] = F.add(out[i + j], F.mul(a, b))
    return poly_trim(F, out)


def poly_divmod(F, f: tuple, g: tuple) -> tuple[tuple, tuple]:
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    if len(f) < len(g):
        return (), f
    rem = list(f)
    glead = F.inv(g[-1])
    dg = len(g) - 1
    quo = [F.zero] * (len(f) - dg)
    for i in range(len(f) - 1, dg - 1, -1):
        c = rem[i]
        if c != F.zero:
            c = F.mul(c, glead)
            quo[i - dg] = c
            for j in range(dg + 1):
                rem[i - dg + j] = F.sub(rem[i - dg + j], F.mul(c, g[j]))
    return poly_trim(F, quo), poly_trim(F, rem)


def poly_mod(F, f: tuple, g: tuple) -> tuple:
    return poly_divmod(F, f, g)[1]


def poly_monic(F, f: tuple) -> tuple:
    if not f:
        return f
    return poly_scale(F, F.inv(f[-1]), f)


def poly_gcd(F, f: tuple, g: tuple) -> tuple:
    while g:
        f, g = g, poly_mod(F, f, g)
    return poly_monic(F, f)


def poly_eval(F, f: tuple, x):
    out = F.zero
    for c in reversed(f):
        out = F.add(F.mul(out, x), c)
    return out


def poly_powmod(F, f: tuple, e: int, m: tuple) -> tuple:
    out = poly_mod(F, (F.one,), m)
    f = poly_mod(F, f, m)
    while e:
        if e & 1:
            out = poly_mod(F, poly_mul(F, out, f), m)
        f = poly_mod(F, poly_mul(F, f, f), m)
        e >>= 1
    return out


def distinct_degree_factorization(F, f: tuple) -> list[tuple[int, tuple]]:
    """Group the distinct monic irreducible factors of f by degree: (d,
    product of those of degree d) pairs, ascending in d.  f need not be
    squarefree; each factor counts once, whatever its multiplicity."""
    f = poly_monic(F, f)
    out = []
    x = (F.zero, F.one)
    h = poly_mod(F, x, f)  # x^(q^d) mod f
    d = 0
    while poly_deg(f) > 0:
        d += 1
        if 2 * d > poly_deg(f):
            # every factor left has degree >= d: two would exceed deg f
            out.append((poly_deg(f), f))
            break
        h = poly_powmod(F, h, F.q, f)
        g = poly_gcd(F, poly_sub(F, h, poly_mod(F, x, f)), f)
        if poly_deg(g) > 0:
            out.append((d, g))
            while poly_deg(g) > 0:  # every copy of every factor of g
                f = poly_divmod(F, f, g)[0]
                g = poly_gcd(F, f, g)
            h = poly_mod(F, h, f)
    return out


def poly_roots(F, f: tuple) -> list:
    """All roots of f in F, each listed once.

    A linear f gives its root directly, and fields of at most
    `GF.TABLE_LIMIT` elements are scanned, which meets each root once.
    Larger ones form x^(p^i) mod f for i = 1..k by repeated p-th powers,
    take lin = gcd(x^q - x, f), the product of f's distinct linear
    factors, and list its roots in the order that `_split_linear` splits
    lin, seeded the same on every call.  Seeded results that list
    subrepresentations, such as the dual-basis matrix, rest on this
    order: the solver's listing, which already has the roots, replays it
    with `split_order`.
    """
    f = poly_monic(F, f)
    if poly_deg(f) <= 0:
        return []
    if poly_deg(f) == 1:
        return [F.neg(f[0])]
    if F.q <= GF.TABLE_LIMIT:
        return [x for x in F.elements() if poly_eval(F, f, x) == F.zero]
    x = (F.zero, F.one)
    frob = _frobenius_powers(F, f, F.k)
    lin = poly_gcd(F, poly_sub(F, frob.pop(), x), f)
    roots: list = []
    if poly_deg(lin) > 0:
        _split_linear(F, lin, [poly_mod(F, xi, lin) for xi in frob], random.Random(0x5EED), roots)
    return roots


def split_order(F, roots) -> list:
    """The distinct roots `roots` in F of a polynomial f, all of f's roots
    in F, in the order poly_roots(F, f) lists them, found without f.

    Up to `GF.TABLE_LIMIT` elements that is the scan's, ascending order.
    Above it, `_split_linear`'s seeded splits are replayed on the roots
    themselves, element by element: a split with the draw c keeps in its
    first part g = gcd(N^((p-1)/2) - 1, h) exactly the roots r of h with
    N_{F/F_p}(r + c)^((p-1)/2) = 1, and it is retried with the next draw
    while g or h/g is empty, as `_split_once` retries."""
    if F.q <= GF.TABLE_LIMIT:
        return sorted(roots)
    out: list = []
    _replay_split(F, list(roots), random.Random(0x5EED), out)
    return out


def _replay_split(F, roots: list, rng, out: list) -> None:
    if len(roots) <= 1:
        out += roots
        return
    p = F.p
    while True:
        c = F.sample(rng)
        first, rest = [], []
        for r in roots:
            # N(r + c), the product of the conjugates of r + c, lies in F_p
            y = norm = F.add(r, c)
            for _ in range(F.k - 1):
                y = F.frobenius(y)
                norm = F.mul(norm, y)
            (first if pow(norm, (p - 1) // 2, p) == 1 else rest).append(r)
        if first and rest:
            break
    _replay_split(F, first, rng, out)
    _replay_split(F, rest, rng, out)


def poly_orbit_roots(F, f: tuple, d: int) -> list:
    """One root in F of each irreducible factor of f, a polynomial with
    coefficients in F_p that is a product of distinct F_p-irreducibles of
    degree d, d dividing k: the d roots of each are one Frobenius orbit.

    A factor is prod over i < d of (x - r^(p^i)) for any root r of it, so
    each root found has its factor divided out of f before the next is
    sought.  Fields of at most `GF.TABLE_LIMIT` elements are scanned, the
    next scan starting past the root before it, whose factor held f's
    least root.  Larger ones split f as `_split_linear` does, but keep
    only the part of lower degree after each split, so the other roots
    are never separated."""
    f = poly_monic(F, f)
    roots: list = []
    frob: list = []
    start = 0
    rng = random.Random(0x5EED)
    while True:
        if poly_deg(f) == 1:
            r = F.neg(f[0])
        elif F.q <= GF.TABLE_LIMIT:
            r = next(x for x in range(start, F.q) if poly_eval(F, f, x) == F.zero)
            start = r + 1
        else:
            # x^(p^i) mod f for 0 < i < k, reduced from those of the first f
            frob = [poly_mod(F, xi, f) for xi in frob] if frob else _frobenius_powers(F, f, F.k - 1)
            h, hfrob = f, frob
            while poly_deg(h) > 1:
                g = _split_once(F, h, hfrob, rng)
                h = min(g, poly_divmod(F, h, g)[0], key=len)
                hfrob = [poly_mod(F, xi, h) for xi in hfrob]
            r = F.neg(h[0])
        roots.append(r)
        if poly_deg(f) == d:
            return roots
        orbit = (F.one,)
        for _ in range(d):
            orbit = poly_mul(F, orbit, (F.neg(r), F.one))
            r = F.frobenius(r)
        f = poly_divmod(F, f, orbit)[0]


def _frobenius_powers(F, f: tuple, n: int) -> list:
    # x^(p^i) mod f for i = 1..n, each the p-th power of the one before
    out = [(F.zero, F.one)]
    for _ in range(n):
        out.append(poly_powmod(F, out[-1], F.p, f))
    return out[1:]


def _split_linear(F, h: tuple, frob: list, rng, out: list) -> None:
    # h is monic and a product of distinct linear factors over F = GF(p^k);
    # frob holds x^(p^i) mod h for 0 < i < k.  Appends h's roots, split by
    # `_split_once`, the roots of its factor g first.
    if poly_deg(h) == 1:
        out.append(F.neg(h[0]))
        return
    g = _split_once(F, h, frob, rng)
    for part in (g, poly_divmod(F, h, g)[0]):
        _split_linear(F, part, [poly_mod(F, xi, part) for xi in frob], rng, out)


def _split_once(F, h: tuple, frob: list, rng) -> tuple:
    # A proper factor of h, monic of degree >= 2 and a product of distinct
    # linear factors over F = GF(p^k), with frob as in _split_linear, by
    # Cantor-Zassenhaus: g = gcd((x + c)^((q-1)/2) - 1, h) for a random c
    # is a proper factor about half the time.  (x + c)^((q-1)/2) is formed
    # as N^((p-1)/2) mod h: N = prod over i < k of (x^(p^i) + c^(p^i))
    # takes the value N_{F/F_p}(r + c), in F_p, at each root r of h, and
    # (r + c)^((q-1)/2) = N_{F/F_p}(r + c)^((p-1)/2).  p is odd: k <= 4, so
    # every field of characteristic 2 has q <= 16, and such fields are
    # scanned instead.
    while True:
        c = F.sample(rng)
        norm = (c, F.one)
        for xi in frob:
            c = F.frobenius(c)
            norm = poly_mod(F, poly_mul(F, norm, poly_add(F, xi, (c,))), h)
        g = poly_gcd(F, poly_sub(F, poly_powmod(F, norm, (F.p - 1) // 2, h), (F.one,)), h)
        if 0 < poly_deg(g) < poly_deg(h):
            return g
