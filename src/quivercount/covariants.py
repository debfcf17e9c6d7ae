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
from operator import add, mul

from .counting import _check_key, _labeled_sum, _piece_plan, count_subreps
from .lr import LREngine
from .partitions import conjugate
from .quiver import Quiver, check_instance


def _check_piece(Q: Quiver, beta, alpha, mu):
    """Validate an instance and its piece mu, whose sizes must add up to the
    (nonnegative) pairing; return (beta, gamma, mu) with mu normalized."""
    beta, _, gamma, pairing = check_instance(Q, beta, alpha, "nonnegative")
    mu = _check_key(mu, list(zip(beta, gamma)))
    total = sum(map(sum, mu))
    if total != pairing:
        raise ValueError(
            f"mu sizes sum to {total}, Euler pairing is {pairing}; the piece is empty or ill-posed"
        )
    return beta, gamma, mu


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


# Hat frames by (Q, gamma), oldest first, at most 8 (see build_hat)
_frames: dict = {}


def build_hat(Q: Quiver, beta, alpha, mu) -> HatInstance:
    """Enlarge (Q, beta, alpha) by one flag arm per vertex according to mu.

    Arm vertex i (1-based) of x gets gamma-part gamma(x) - i + 1 and
    beta-part beta(x) - #{parts of mu(x) > gamma(x) - i}: the arm carries
    the conjugate of the complement of mu(x) in the beta(x) x gamma(x)
    box, read straight off mu(x).  The pairing of the enlarged beta with
    its gamma drops to zero exactly because the mu sizes exhaust the
    original pairing.

    The hat quiver and its gamma, the frame, depend on (Q, gamma) alone,
    so they are built and validated once and kept for the next pieces
    (the last 8 frames); only beta-hat is built per piece.
    """
    beta, gamma, mu = _check_piece(Q, beta, alpha, mu)
    frame = _frames.get((Q, gamma))
    if frame is None:
        arrows = list(Q.arrows)
        hat_gamma = list(gamma)
        nxt = Q.nvertices
        for x, g in enumerate(gamma):
            hat_gamma += range(g, 0, -1)
            arrows.extend(zip((x, *range(nxt, nxt + g - 1)), range(nxt, nxt + g)))
            nxt += g
        if len(_frames) == 8:
            del _frames[next(iter(_frames))]
        frame = _frames[Q, gamma] = Quiver(nxt, tuple(arrows)), tuple(hat_gamma)
    quiver, hat_gamma = frame
    hat_beta = list(beta)
    for b, g, p in zip(beta, gamma, mu):
        hat_beta += [b - sum(1 for part in p if part > g - i) for i in range(1, g + 1)]

    # the Euler form on the tuples just built
    pairing = sum(map(mul, hat_beta, hat_gamma)) - sum([hat_beta[t] * hat_gamma[h] for t, h in quiver.arrows])
    if pairing != 0:
        raise AssertionError("arm enlargement failed to cancel the pairing")
    hat_beta = tuple(hat_beta)
    return HatInstance(quiver, hat_beta, tuple(map(add, hat_beta, hat_gamma)))


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
    final, _ = _labeled_sum(_piece_plan(Q, beta, gamma), engine or LREngine(), conjugated=True, start=start)
    return sum(final.values())
