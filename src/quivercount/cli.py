"""Command-line surface.

Subcommands: count, sidim, fiber-class, verify.  Instances are plain
text files (quiver lines, dimension vectors, optional mu lines); every
report ends with a flat machine-readable `key = value` block after a
`---` separator so golden tests and other tools can parse output without
caring about the human-readable part.  Each `cmd_*` prints its report and
returns (exit code, key/value pairs); `main` times it and writes the one
block, framed by `command` and the seed/version/elapsed_ms trailer, so a
new key is added in one place.

Exit codes: 0 success, 1 verification failure or a reader that closed
stdout early, 2 usage or parse error, 3 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time
from dataclasses import dataclass
from math import comb

from . import __version__
from .counting import (
    count_subreps,
    count_subreps_detailed,
    fiber_class,
    random_instance,
    random_zero_triple,
    si_dimension_detailed,
    triple_flag_instance,
    verify_counts,
    weight_of,
)
from .covariants import _check_piece, build_hat, covariant_count, covariant_multiplicity
from .ffield import GF
from .lr import LREngine
from .oracles import (
    BudgetExceededError,
    _raw_point_count,
    sampled_subrep_count,
    si_rank_oracle,
    verify_determinant_basis,
)
from .partitions import Rectangle, format_partition, parse_partition, partitions_in_rectangle, size
from .quiver import Quiver, check_instance

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class InstanceParseError(ValueError):
    pass


@dataclass(frozen=True)
class InstanceSpec:
    quiver: Quiver
    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    mu: tuple[tuple[int, ...], ...] | None = None


def parse_instance(text: str) -> InstanceSpec:
    """Parse the instance grammar: `vertices N`, `arrow T H`, `alpha ...`,
    `beta ...`, optional `mu i:(p1,p2,...)` lines, `#` comments."""
    nvertices = None
    arrows: list[tuple[int, int]] = []
    alpha = beta = None
    mu_lines: dict[int, tuple[int, ...]] = {}
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split(None, 1)
        key, rest = fields[0], fields[1] if len(fields) > 1 else ""
        try:
            if key in ("vertices", "alpha", "beta"):
                if key in seen:
                    raise ValueError(f"duplicate `{key}` line")
                seen.add(key)
            if key == "vertices":
                nvertices = int(rest)
            elif key == "arrow":
                t, h = rest.split()
                arrows.append((int(t), int(h)))
            elif key == "alpha":
                alpha = tuple(int(x) for x in rest.split())
            elif key == "beta":
                beta = tuple(int(x) for x in rest.split())
            elif key == "mu":
                idx, part = rest.split(":", 1)
                i = int(idx)
                if i in mu_lines:
                    raise ValueError(f"duplicate mu line for vertex {i}")
                mu_lines[i] = parse_partition(part)
            else:
                raise ValueError(f"unknown directive {key!r}")
        except ValueError as e:
            raise InstanceParseError(f"line {lineno}: {e}") from None
    if nvertices is None:
        raise InstanceParseError("missing `vertices` line")
    if alpha is None or beta is None:
        raise InstanceParseError("missing `alpha` or `beta` line")
    # before the quiver, whose construction is linear in `vertices`
    if nvertices >= 0 and (len(alpha) != nvertices or len(beta) != nvertices):
        raise InstanceParseError(
            f"dimension vectors must have {nvertices} entries"
        )
    try:
        Q = Quiver(nvertices, tuple(arrows))
    except ValueError as e:
        raise InstanceParseError(str(e)) from None
    mu = None
    if mu_lines:
        bad = [i for i in mu_lines if not 0 <= i < nvertices]
        if bad:
            raise InstanceParseError(f"mu vertex index out of range: {bad[0]}")
        mu = tuple(mu_lines.get(i, ()) for i in range(nvertices))
    return InstanceSpec(Q, alpha, beta, mu)


def render_instance(spec: InstanceSpec) -> str:
    """Canonical text form; parse(render(s)) == s and render is idempotent
    through a parse."""
    lines = [f"vertices {spec.quiver.nvertices}"]
    for t, h in spec.quiver.arrows:
        lines.append(f"arrow {t} {h}")
    lines.append("alpha " + " ".join(str(x) for x in spec.alpha))
    lines.append("beta " + " ".join(str(x) for x in spec.beta))
    if spec.mu is not None:
        for i, p in enumerate(spec.mu):
            lines.append(f"mu {i}:{format_partition(p)}")
    return "\n".join(lines) + "\n"


def _brief(spec: InstanceSpec) -> str:
    arrows = ",".join(f"{t}->{h}" for t, h in spec.quiver.arrows) or "-"
    return f"[{spec.quiver.nvertices}v {arrows}] beta={spec.beta} alpha={spec.alpha}"


def _load_spec(path: str) -> InstanceSpec:
    if path == "-":
        return parse_instance(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def _machine_block(out, args, t0: float, pairs) -> None:
    """The `key = value` block after `---`: the subcommand, the pairs it
    returned, then the seed, the version and the time since t0."""
    pairs = [
        ("command", args.subcommand),
        *pairs,
        ("seed", args.seed),
        ("version", f"quivercount {__version__}"),
        ("elapsed_ms", int(1000 * (time.monotonic() - t0))),
    ]
    print("---", file=out)
    for k, v in pairs:
        print(f"{k} = {v}", file=out)


def _theta(m: int) -> Quiver:
    return Quiver(2, tuple((0, 1) for _ in range(m)))


def _theta_instance(r: int) -> InstanceSpec:
    """theta(2r) at beta = (1, r), alpha = (r + 1, r + 1), where N = binom(2r, r)."""
    return InstanceSpec(_theta(2 * r), (r + 1, r + 1), (1, r))


# -- subcommands ---------------------------------------------------------------


def cmd_count(args, out):
    spec = _load_spec(args.instance)
    pairing = check_instance(spec.quiver, spec.beta, spec.alpha)[3]
    # mu lines select one piece of the fiber class; count it on the
    # arm-enlarged quiver so the same summation engine applies
    inst = spec if spec.mu is None else build_hat(spec.quiver, spec.beta, spec.alpha, spec.mu)
    n, states, breakdown = count_subreps_detailed(
        inst.quiver, inst.beta, inst.alpha, breakdown=args.breakdown
    )
    print(f"N = {n}", file=out)
    for labeling, contribution in breakdown:
        text = " ".join(format_partition(p) for p in labeling)
        print(f"  {text}: {contribution}", file=out)
    return EXIT_OK, [("n", n), ("euler", pairing), ("states", states)]


def cmd_sidim(args, out):
    spec = _load_spec(args.instance)
    pairing = check_instance(spec.quiver, spec.beta, spec.alpha)[3]
    if spec.mu is None:
        m, states = si_dimension_detailed(spec.quiver, spec.beta, spec.alpha)
    else:
        m = covariant_multiplicity(spec.quiver, spec.beta, spec.alpha, spec.mu)
        states = None
    sigma = weight_of(spec.quiver, spec.beta)
    sigma_text = "(" + ",".join(str(x) for x in sigma) + ")"
    print(f"M = {m}, sigma = {sigma_text}", file=out)
    pairs = [("m", m), ("sigma", sigma_text), ("euler", pairing)]
    if states is not None:
        pairs.append(("states", states))
    return EXIT_OK, pairs


def cmd_fiber_class(args, out):
    spec = _load_spec(args.instance)
    if spec.mu is not None:
        # the piece check names a bad mu; a valid one prints the whole class
        _check_piece(spec.quiver, spec.beta, spec.alpha, spec.mu)
    fc = fiber_class(spec.quiver, spec.beta, spec.alpha)
    pairing = check_instance(spec.quiver, spec.beta, spec.alpha)[3]
    for mu, coeff in fc.sorted_items():
        text = ";".join(f"{i}:{format_partition(p)}" for i, p in enumerate(mu))
        print(f"{text} -> {coeff}", file=out)
    return EXIT_OK, [("euler", pairing), ("terms", len(fc.coeffs)), ("states", fc.states)]


# -- verify suites -------------------------------------------------------------
#
# Every row comes from one check per row kind: _count_row (N = M),
# _piece_row (covariant pieces), _chain_row (multiplicativity), _oracle_row
# and _basis_row.  A suite is a list of instances fed to one of them.  A row
# is (label, N, M, note, ok, spec); `spec` is printed when the row fails.


def _count_row(spec: InstanceSpec, engine, label="", expected=None, note=""):
    """N = M on one instance, and N = `expected` when one is given."""
    rep = verify_counts(spec.quiver, spec.beta, spec.alpha, engine)
    ok = rep.passed and (expected is None or rep.n_value == expected)
    return (label or _brief(spec), rep.n_value, rep.m_value, note, ok, spec)


def _piece_row(spec: InstanceSpec, engine):
    """Fiber-class coefficient = covariant_count = covariant_multiplicity on
    every piece, or only on the piece that the instance's mu lines name."""
    Q, beta, alpha = spec.quiver, spec.beta, spec.alpha
    fc = fiber_class(Q, beta, alpha, engine)
    pieces = fc.sorted_items() if spec.mu is None else [(spec.mu, fc.coefficient(spec.mu))]
    counts = [
        (coeff, covariant_count(Q, beta, alpha, mu, engine),
         covariant_multiplicity(Q, beta, alpha, mu, engine))
        for mu, coeff in pieces
    ]
    ok = all(coeff == cc == cm for coeff, cc, cm in counts)
    if spec.mu is not None:
        [(coeff, cc, cm)] = counts
        return (_brief(spec), cc, cm, f"fiber={coeff}", ok, spec)
    detail = ";".join(f"{coeff}/{cc}/{cm}" for coeff, cc, cm in counts) or "empty"
    return (_brief(spec), len(fc.coeffs), sum(fc.coeffs.values()), f"fiber/count/mult {detail}", ok, spec)


def _chain_row(triple, engine):
    """N(b, b+c) N(b+c, b+c+d) = N(b, b+c+d) N(c, c+d) on a zero triple."""
    Q, b, c, d = triple
    a1 = tuple(x + y for x, y in zip(b, c))
    a2 = tuple(x + y for x, y in zip(a1, d))
    cd = tuple(x + y for x, y in zip(c, d))
    lhs = count_subreps(Q, b, a1, engine) * count_subreps(Q, a1, a2, engine)
    rhs = count_subreps(Q, b, a2, engine) * count_subreps(Q, c, cd, engine)
    spec = InstanceSpec(Q, a2, b)
    return (f"{_brief(spec)} via {c}+{d}", lhs, rhs, "", lhs == rhs, spec)


def _oracle_row(spec: InstanceSpec, args, engine, skip_over_budget: bool):
    """N and M against the modal sampled count and the rank oracle.  Above
    --oracle-budget points the row is skipped when `skip_over_budget` is
    set; otherwise sampling runs and may raise BudgetExceededError."""
    Q = spec.quiver
    beta, alpha, gamma, _ = check_instance(Q, spec.beta, spec.alpha)
    rep = verify_counts(Q, beta, alpha, engine)
    brief = _brief(spec)
    if skip_over_budget:
        points = _raw_point_count(Q, alpha, beta, args.q**args.ext)
        if points > args.oracle_budget:
            return (brief, rep.n_value, rep.m_value, f"skipped ({points} points)", True, spec)
    sampled = sampled_subrep_count(
        Q, beta, alpha, args.q, max_ext_degree=args.ext, trials=args.trials, seed=args.seed,
        budget=args.oracle_budget,
    )
    rank = si_rank_oracle(Q, beta, gamma, field=GF(args.q), seed=args.seed)
    ok = sampled.modal == rep.n_value and rank == rep.m_value
    tally = "" if ok else f" tally={sampled.tally}"
    return (brief, rep.n_value, rep.m_value, f"modal={sampled.modal}{tally} rank={rank}", ok, spec)


def _basis_row(spec: InstanceSpec, args, label=""):
    """The dual-basis check on one instance."""
    rep = verify_determinant_basis(spec.quiver, spec.beta, spec.alpha, GF(args.q), seed=args.seed)
    ok = rep.passed and rep.k == rep.m_expected
    note = f"k={rep.k} ext={rep.extension_degree}" + (f" ({rep.reason})" if rep.reason else "")
    return (label or _brief(spec), rep.n_expected, rep.m_expected, note, ok, spec)


def _kronecker_instances():
    """(label, spec, N) for theta(2), ..., theta(8)."""
    specs = [_theta_instance(r) for r in (1, 2, 3, 4)]
    return [(f"theta({2 * r}) {_brief(s)}", s, comb(2 * r, r)) for r, s in enumerate(specs, 1)]


def _random_instances(args):
    rng = random.Random(args.seed)
    specs = []
    for i in range(args.random):
        if i % 3 == 2:
            # every third instance from the dense profile: parallel arrows
            # between few vertices, where the labeled sums get interesting
            Q, beta, alpha = random_instance(
                rng, max_verts=3, max_arrows=5, max_dim=args.max_dim, min_arrows=2
            )
        else:
            Q, beta, alpha = random_instance(
                rng,
                max_verts=args.max_verts,
                max_arrows=args.max_arrows,
                max_dim=args.max_dim,
            )
        specs.append(InstanceSpec(Q, alpha, beta))
    return specs


def _tripleflag_instances(args, engine):
    """(label, spec, N) for every triple of flags in the (n, r) box whose
    sizes add up to r(n - r): N is an LR coefficient."""
    n, r = args.flag_n, args.flag_r
    rect = Rectangle(r, n - r)
    out = []
    for lam in partitions_in_rectangle(rect):
        for mu in partitions_in_rectangle(rect):
            for nu in partitions_in_rectangle(rect):
                if size(lam) + size(mu) + size(nu) != r * (n - r):
                    continue
                Q, beta, alpha, expected = triple_flag_instance(lam, mu, nu, r, n, engine)
                label = ",".join(format_partition(p) for p in (lam, mu, nu))
                out.append((label, InstanceSpec(Q, alpha, beta), expected))
    return out


def _covariant_instances(args):
    # the worked two-vertex example first
    specs = [InstanceSpec(Quiver(2, ((0, 1),)), (2, 2), (1, 1))]
    rng = random.Random(args.seed)
    while len(specs) < args.count:
        dense = len(specs) % 3 == 2
        Q, beta, alpha = random_instance(
            rng,
            max_verts=3,
            max_arrows=3,
            max_dim=3,
            min_arrows=2 if dense else 0,
            require_zero_pairing=False,
        )
        if 0 <= check_instance(Q, beta, alpha)[3] <= 3:
            specs.append(InstanceSpec(Q, alpha, beta))
    return specs


def _chain_instances(args):
    triples = [
        (_theta(2), (1, 1), (1, 1), (1, 1)),
        (_theta(2), (1, 1), (2, 2), (1, 1)),
        (_theta(2), (2, 2), (1, 1), (1, 1)),
    ]
    rng = random.Random(args.seed)
    while len(triples) < args.count:
        triples.append(random_zero_triple(rng, max_verts=3, max_arrows=4, max_dim=3))
    return triples


def _oracle_instances(args):
    # pinned nontrivial instances that fit the default point budget
    instances = [
        (_theta(2), (1, 1), (2, 2)),
        (Quiver(3, ((0, 1), (0, 1), (1, 2))), (1, 1, 2), (2, 2, 2)),
        (Quiver(3, ((0, 2), (0, 2), (1, 2))), (1, 0, 1), (2, 2, 2)),
    ]
    rng = random.Random(args.seed)
    instances.extend(random_instance(rng) for _ in range(args.count))
    return [InstanceSpec(Q, alpha, beta) for Q, beta, alpha in instances]


def _suites(args, engine, spec):
    """(flag, name, suite) for every suite in report order; `suite()` returns
    its rows.  FILE (`spec`) is a one-instance suite: --oracles and --basis
    check it in place of their pinned instances, and without them it gets an
    N = M row, or a piece row when it has mu lines."""
    file_alone = spec is not None and not (args.oracles or args.basis)
    piece = file_alone and spec.mu is not None
    return (
        (file_alone, "instance-covariant" if piece else "instance",
         lambda: [(_piece_row if piece else _count_row)(spec, engine)]),
        (spec is not None and args.oracles, "instance-oracles",
         lambda: [_oracle_row(spec, args, engine, skip_over_budget=False)]),
        (spec is not None and args.basis, "instance-basis", lambda: [_basis_row(spec, args)]),
        (args.kronecker, "kronecker",
         lambda: [_count_row(s, engine, label, n, f"binom={n}") for label, s, n in _kronecker_instances()]),
        # an empty random suite (--random 0) is still selected
        (args.random is not None, "random", lambda: [_count_row(s, engine) for s in _random_instances(args)]),
        (args.tripleflag, "tripleflag",
         lambda: [_count_row(s, engine, label, n, f"lr={n}") for label, s, n in _tripleflag_instances(args, engine)]),
        (args.covariants, "covariants", lambda: [_piece_row(s, engine) for s in _covariant_instances(args)]),
        (args.multiplicativity, "multiplicativity",
         lambda: [_chain_row(t, engine) for t in _chain_instances(args)]),
        (spec is None and args.oracles, "oracles",
         lambda: [_oracle_row(s, args, engine, skip_over_budget=True) for s in _oracle_instances(args)]),
        (spec is None and args.basis, "basis",
         lambda: [_basis_row(_theta_instance(r), args, f"theta({2 * r})") for r in (1, 2)]),
    )


def cmd_verify(args, out):
    engine = LREngine()
    if args.oracles:
        GF(args.q, args.ext)  # names a bad --q or --ext before any suite runs
    elif args.basis:
        GF(args.q)
    if args.tripleflag and args.flag_r > args.flag_n:
        raise ValueError(f"--r {args.flag_r} exceeds --n {args.flag_n}: no flag of that shape")
    spec = _load_spec(args.instance) if args.instance else None
    if spec is not None and spec.mu is not None and (args.oracles or args.basis):
        raise ValueError(
            "--oracles and --basis do not support mu lines; "
            f"run plain `verify {args.instance}` to check the covariant piece"
        )
    suites = [(name, suite) for flag, name, suite in _suites(args, engine, spec) if flag]
    if not suites:
        print("no suite selected (use --kronecker, --random N, --tripleflag, "
              "--covariants, --multiplicativity, --oracles, --basis, or an instance file)",
              file=sys.stderr)
        return EXIT_USAGE, None

    failures = 0
    total = 0
    for name, suite in suites:
        rows = suite()
        print(f"suite {name}:", file=out)
        for label, n, m, note, ok, row_spec in rows:
            total += 1
            verdict = "ok" if ok else "FAIL"
            note_text = f"  {note}" if note else ""
            print(f"  {verdict:4} {label}  N={n} M={m}{note_text}", file=out)
            if not ok:
                failures += 1
                print("    offending instance:", file=out)
                for line in render_instance(row_spec).splitlines():
                    print(f"      {line}", file=out)
    pairs = [("suites", ",".join(name for name, _ in suites)), ("instances", total), ("failures", failures)]
    return EXIT_OK if failures == 0 else EXIT_FAIL, pairs


def _int_at_least(low: int):
    """argparse type: an int >= low; argparse names the option in its
    error and exits 2."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quivercount",
        description="Count subrepresentations of general quiver representations "
        "and dimensions of semi-invariant weight spaces; verify that the two agree.",
    )
    parser.add_argument("--version", action="version", version=f"quivercount {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_count = sub.add_parser("count", help="subrepresentation count N of an instance file")
    p_count.add_argument("instance", help="instance file path, or - for stdin")
    p_count.add_argument("--breakdown", action="store_true", help="list nonzero labeling contributions")
    p_count.set_defaults(fn=cmd_count, seed=0)

    p_sidim = sub.add_parser("sidim", help="semi-invariant weight space dimension M")
    p_sidim.add_argument("instance")
    p_sidim.set_defaults(fn=cmd_sidim, seed=0)

    p_fc = sub.add_parser("fiber-class", help="decomposition of the subrepresentation locus class")
    p_fc.add_argument("instance")
    p_fc.set_defaults(fn=cmd_fiber_class, seed=0)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("instance", nargs="?", help="optional single instance file")
    p_verify.add_argument("--kronecker", action="store_true", help="two-vertex m-arrow family, binomial counts")
    p_verify.add_argument("--random", type=_int_at_least(0), metavar="N", help="N = M on N random instances")
    p_verify.add_argument("--tripleflag", action="store_true", help="exhaustive three-flag suite")
    p_verify.add_argument("--n", dest="flag_n", type=_int_at_least(1), default=4, help="flag suite ambient dimension")
    p_verify.add_argument("--r", dest="flag_r", type=_int_at_least(0), default=2, help="flag suite subspace dimension")
    p_verify.add_argument("--covariants", action="store_true", help="fiber-class coefficient agreement")
    p_verify.add_argument("--multiplicativity", action="store_true", help="chain count identity")
    p_verify.add_argument("--oracles", action="store_true", help="finite-field and rank oracles")
    p_verify.add_argument("--basis", action="store_true", help="determinant dual-basis check")
    p_verify.add_argument("--count", type=_int_at_least(0), default=30, help="suite size where applicable")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--q", type=int, default=13, help="oracle base field size")
    p_verify.add_argument("--ext", type=int, default=2, help="oracle extension degree")
    p_verify.add_argument("--trials", type=_int_at_least(1), default=11, help="oracle trials per instance")
    p_verify.add_argument("--oracle-budget", type=_int_at_least(0), default=200000,
                          help="skip oracle sampling above this point count")
    p_verify.add_argument("--max-verts", type=_int_at_least(1), default=4)
    p_verify.add_argument("--max-arrows", type=_int_at_least(0), default=4)
    p_verify.add_argument("--max-dim", type=_int_at_least(1), default=3)
    p_verify.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors and 0 on --help; pass through
        return int(e.code or 0)
    try:
        t0 = time.monotonic()
        code, pairs = args.fn(args, sys.stdout)
        if pairs is not None:
            _machine_block(sys.stdout, args, t0, pairs)
        sys.stdout.flush()  # a closed reader shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader stopped early: send what Python flushes at exit to
        # devnull, and report the cut-off run as not verified
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_FAIL
    except InstanceParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (OSError, ValueError) as e:
        # ValueError covers the pairing errors; OSError an unreadable
        # instance path (missing, a directory, no permission)
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
