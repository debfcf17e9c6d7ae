"""Covariant components of the subrepresentation locus.

When the Euler pairing of beta with gamma = alpha - beta is positive, the
locus of beta-dimensional subrepresentations of a general representation
is no longer finite but decomposes into pieces indexed by per-vertex
partition tuples mu (the keys of fiber_class).  Each piece is counted two
ways here: by rebuilding it as an honest finite counting problem on an
enlarged quiver with one flag arm per vertex (covariant_count), and by
the frontier DP over the original quiver with one extra exterior-power
factor per vertex (covariant_multiplicity).  The two must agree with each
other and with the fiber_class coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass

from .counting import _labeled_sum, _plan, count_subreps
from .lr import LREngine
from .partitions import Rectangle, complement, conjugate, fits, partition, size
from .quiver import Quiver, check_instance, euler_form


def _check_piece(Q: Quiver, beta, alpha, mu):
    """Validate an instance and its piece mu; return (beta, gamma, mu)
    with mu normalized."""
    beta, _, gamma, pairing = check_instance(Q, beta, alpha)
    if len(mu) != Q.nvertices:
        raise ValueError(f"mu has {len(mu)} entries, quiver has {Q.nvertices} vertices")
    out = []
    for x in range(Q.nvertices):
        p = partition(mu[x])
        if not fits(p, Rectangle(beta[x], gamma[x])):
            raise ValueError(
                f"mu({x}) = {p} does not fit in {beta[x]}x{gamma[x]}"
            )
        out.append(p)
    total = sum(size(p) for p in out)
    if total != pairing:
        raise ValueError(
            f"mu sizes sum to {total}, Euler pairing is {pairing}; the piece is empty or ill-posed"
        )
    return beta, gamma, tuple(out)


@dataclass(frozen=True)
class HatInstance:
    """Flag-arm enlargement of a counting instance.

    Original vertices keep their ids; vertex x grows an arm of gamma(x)
    new vertices chained away from it, numbered after those of the arms
    of the vertices before x.  The instance always has zero Euler
    pairing, so its subrepresentation count is finite.
    """

    quiver: Quiver
    beta: tuple[int, ...]
    alpha: tuple[int, ...]


def build_hat(Q: Quiver, beta, alpha, mu) -> HatInstance:
    """Enlarge (Q, beta, alpha) by one flag arm per vertex according to mu.

    Arm vertex i (1-based) of x gets gamma-part gamma(x) - i + 1 and
    beta-part the number of parts >= i of the complement of mu(x) in the
    beta(x) x gamma(x) box: the arm carries the conjugate of that
    complement.  The pairing of the enlarged beta with its gamma drops to
    zero exactly because the mu sizes exhaust the original pairing.
    """
    beta, gamma, mu = _check_piece(Q, beta, alpha, mu)
    n = Q.nvertices
    arrows = list(Q.arrows)
    hat_beta = list(beta)
    hat_gamma = list(gamma)
    nxt = n
    for x in range(n):
        arm = conjugate(complement(mu[x], Rectangle(beta[x], gamma[x])))
        prev = x
        for i in range(1, gamma[x] + 1):
            arrows.append((prev, nxt))
            hat_beta.append(arm[i - 1] if i <= len(arm) else 0)
            hat_gamma.append(gamma[x] - i + 1)
            prev = nxt
            nxt += 1

    hatQ = Quiver(nxt, tuple(arrows))
    hat_beta = tuple(hat_beta)
    hat_alpha = tuple(b + g for b, g in zip(hat_beta, hat_gamma))
    if euler_form(hatQ, hat_beta, tuple(hat_gamma)) != 0:
        raise AssertionError("arm enlargement failed to cancel the pairing")
    return HatInstance(hatQ, hat_beta, hat_alpha)


def covariant_count(Q: Quiver, beta, alpha, mu, engine: LREngine | None = None) -> int:
    """Points of the mu-piece, counted as plain subrepresentations of a
    general representation of the arm-enlarged quiver."""
    hat = build_hat(Q, beta, alpha, mu)
    return count_subreps(hat.quiver, hat.beta, hat.alpha, engine)


def covariant_multiplicity(Q: Quiver, beta, alpha, mu, engine: LREngine | None = None) -> int:
    """Dimension of the weight space with one extra exterior power per
    vertex, computed by the frontier DP over the original quiver: on the
    exterior side vertex x starts at the conjugate of mu(x)."""
    beta, gamma, mu = _check_piece(Q, beta, alpha, mu)
    start = [conjugate(p) for p in mu]
    final, _ = _labeled_sum(_plan(Q, beta, gamma), engine or LREngine(), conjugated=True, start=start)
    return sum(final.values())
