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

The pieces of one instance share their enlarged quiver and its gamma,
and the arrow order of the hat's plan depends on that quiver and the
arrows' label counts alone.  So a hat frame, kept per (Q, gamma), holds
both and the orders met so far, keyed by the label counts: each piece
builds only its beta-hat, checks the hat once, and plans with a known
order whenever its counts have been met (at pairing 1, always after the
first piece).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

from .counting import _check_key, _labeled_sum, _piece_plan, _plan
from .lr import LREngine
from .partitions import conjugate
from .quiver import NonzeroPairingError, Quiver, check_instance


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


# Hat frames by (Q, gamma), oldest first, at most _KEPT (see build_hat);
# a frame is (hat quiver, hat gamma, arrow orders by label counts)
_frames: dict = {}
_KEPT = 8


def _hat(Q: Quiver, beta, alpha, mu):
    """(frame, beta-hat, alpha-hat) of the mu-piece, checked; see build_hat."""
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
        if len(_frames) == _KEPT:
            del _frames[next(iter(_frames))]
        frame = _frames[Q, gamma] = Quiver(nxt, tuple(arrows)), tuple(hat_gamma), {}
    quiver, hat_gamma, _ = frame
    hat_beta = list(beta)
    for b, g, p in zip(beta, gamma, mu):
        # arm vertex i of x takes b - conj(mu(x))[g - i]: the entries
        # past the conjugate's end (it has at most g) read 0
        if p:
            c = conjugate(p)
            hat_beta += [b] * (g - len(c))
            hat_beta += [b - v for v in reversed(c)]
        else:
            hat_beta += [b] * g
    try:
        hat_beta, hat_alpha, _, _ = check_instance(quiver, hat_beta, map(add, hat_beta, hat_gamma), "zero")
    except NonzeroPairingError as e:
        raise AssertionError("arm enlargement failed to cancel the pairing") from e
    return frame, hat_beta, hat_alpha


def build_hat(Q: Quiver, beta, alpha, mu) -> HatInstance:
    """Enlarge (Q, beta, alpha) by one flag arm per vertex according to mu.

    Arm vertex i (1-based) of x gets gamma-part gamma(x) - i + 1 and
    beta-part beta(x) - conj(mu(x))[gamma(x) - i] (0-based, missing parts
    0), which is beta(x) less the number of parts of mu(x) above
    gamma(x) - i: the arm carries the conjugate of the complement of mu(x)
    in the beta(x) x gamma(x) box.  The pairing of the enlarged beta with
    its gamma drops to zero exactly because the mu sizes exhaust the
    original pairing; check_instance checks that, once per piece.

    The hat quiver and its gamma, the frame, depend on (Q, gamma) alone,
    so they are built and validated once and kept for the next pieces
    (the last 8 frames); only beta-hat is built per piece.
    """
    (quiver, _, _), hat_beta, hat_alpha = _hat(Q, beta, alpha, mu)
    return HatInstance(quiver, hat_beta, hat_alpha)


def covariant_count(Q: Quiver, beta, alpha, mu, engine: LREngine | None = None) -> int:
    """Points of the mu-piece, counted as plain subrepresentations of a
    general representation of the arm-enlarged quiver.

    The hat is checked once, by build_hat's check, and its plan folded
    as count_subreps folds one.  Its arrow order depends on the hat
    quiver and the label counts alone, so the frame keeps the orders by
    label counts (the last 8): at pairing 1 every piece of an instance has
    the same counts, and one greedy run orders them all."""
    (quiver, hat_gamma, orders), hat_beta, _ = _hat(Q, beta, alpha, mu)
    plan = _plan(quiver, hat_beta, hat_gamma, orders)
    if len(orders) > _KEPT:
        del orders[next(iter(orders))]
    final, _ = _labeled_sum(plan, engine or LREngine())
    return sum(final.values())


def covariant_multiplicity(Q: Quiver, beta, alpha, mu, engine: LREngine | None = None) -> int:
    """Dimension of the weight space with one extra exterior power per
    vertex, computed by the frontier DP over the original quiver: on the
    exterior side vertex x starts at the conjugate of mu(x)."""
    beta, gamma, mu = _check_piece(Q, beta, alpha, mu)
    start = [conjugate(p) for p in mu]
    final, _ = _labeled_sum(_piece_plan(Q, beta, gamma), engine or LREngine(), conjugated=True, start=start)
    return sum(final.values())
