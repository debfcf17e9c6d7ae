import dataclasses
import hashlib
import io
import os
import random
import re
import subprocess
import sys
import time

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from quivercount import (
    NegativePairingError,
    NonzeroPairingError,
    build_hat,
    count_subreps,
    covariant_count,
    covariant_multiplicity,
    fiber_class,
    oracles,
    si_dimension,
    verify_counts,
)
from quivercount.cli import (
    InstanceParseError,
    InstanceSpec,
    main,
    parse_instance,
    render_instance,
)
from quivercount.counting import random_instance
from quivercount.ffield import GF
from quivercount.quiver import Quiver

THETA4_TEXT = (
    "vertices 2\n"
    "arrow 0 1\narrow 0 1\narrow 0 1\narrow 0 1\n"
    "alpha 3 3\n"
    "beta 1 2\n"
)
A2_MU_TEXT = "vertices 2\narrow 0 1\nalpha 2 2\nbeta 1 1\nmu 0:(1)\n"
HUGE_VERTICES_TEXT = "vertices 100000000\nalpha 1\nbeta 1\n"


def run_module(argv, stdin_text=None, stdout=subprocess.PIPE):
    """Run `python -m quivercount.cli` in a fresh process, with the
    package's parent directory on PYTHONPATH so that a checkout that was
    not pip-installed imports it too.  Output is captured unless stdout
    names another file."""
    import quivercount

    src = os.path.dirname(os.path.dirname(quivercount.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "quivercount.cli", *argv],
        input=stdin_text,
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
        env=env,
    )


def run_cli(argv, stdin_text=None):
    """Drive main() with captured stdout/stderr; returns (code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdout, sys.stderr, sys.stdin
    sys.stdout, sys.stderr = out, err
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        code = main(argv)
    finally:
        sys.stdout, sys.stderr, sys.stdin = old
    return code, out.getvalue(), err.getvalue()


def machine_block(text):
    """key=value pairs after the --- separator, elapsed_ms dropped since it
    varies run to run."""
    lines = text.splitlines()
    sep = lines.index("---")
    pairs = []
    for line in lines[sep + 1 :]:
        key, _, value = line.partition(" = ")
        if key != "elapsed_ms":
            pairs.append((key, value))
    return pairs


@pytest.fixture()
def theta4_file(tmp_path):
    path = tmp_path / "theta4.qc"
    path.write_text(THETA4_TEXT)
    return str(path)


@pytest.fixture()
def a2_mu_file(tmp_path):
    path = tmp_path / "a2mu.qc"
    path.write_text(A2_MU_TEXT)
    return str(path)


# -- instance grammar ----------------------------------------------------------


def test_parse_instance_basic():
    spec = parse_instance(THETA4_TEXT)
    assert spec.quiver == Quiver(2, ((0, 1),) * 4)
    assert spec.alpha == (3, 3)
    assert spec.beta == (1, 2)
    assert spec.mu is None


def test_parse_instance_comments_and_blanks():
    spec = parse_instance(
        "# two-vertex quiver\nvertices 2\n\narrow 0 1  # the only arrow\n"
        "alpha 2 2\nbeta 1 1\n"
    )
    assert spec.quiver.arrows == ((0, 1),)


def test_parse_instance_mu_defaults_missing_vertices_to_empty():
    spec = parse_instance(A2_MU_TEXT)
    assert spec.mu == ((1,), ())


def test_render_parse_round_trip():
    specs = [
        parse_instance(THETA4_TEXT),
        parse_instance(A2_MU_TEXT),
        InstanceSpec(Quiver(3, ((0, 1), (0, 2))), (2, 1, 3), (1, 0, 2), None),
        InstanceSpec(Quiver(1, ()), (4,), (2,), ((3, 1),)),
    ]
    for spec in specs:
        text = render_instance(spec)
        assert parse_instance(text) == spec
        assert render_instance(parse_instance(text)) == text


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("arrow 0 1\nalpha 1 1\nbeta 0 0\n", "vertices"),
        ("vertices 2\narrow 0 1\nbeta 0 0\n", "alpha"),
        ("vertices 2\nfrobnicate 1\nalpha 1 1\nbeta 0 0\n", "line 2"),
        ("vertices 2\narrow 0 5\nalpha 1 1\nbeta 0 0\n", ""),
        ("vertices 2\narrow 0 1\nalpha 1 1 1\nbeta 0 0\n", "2 entries"),
        ("vertices 2\narrow 0 1\nalpha 1 1\nbeta 0 0\nmu 7:(1)\n", "out of range"),
        (
            "vertices 2\narrow 0 1\nalpha 1 1\nbeta 0 0\nmu 0:(1)\nmu 0:(2)\n",
            "duplicate",
        ),
        ("vertices 2\narrow 0 1\nalpha 1 1\nbeta 0 0\nmu 0:1,2\n", ""),
        ("vertices 2\nvertices 3\narrow 0 1\nalpha 1 1\nbeta 0 0\n", "line 2: duplicate `vertices`"),
        ("vertices 2\narrow 0 1\nalpha 2 2\nalpha 1 1\nbeta 0 0\n", "line 4: duplicate `alpha`"),
        ("vertices 2\narrow 0 1\nalpha 2 2\nbeta 1 1\nbeta 0 0\n", "line 5: duplicate `beta`"),
        (HUGE_VERTICES_TEXT, "100000000 entries"),
    ],
)
def test_parse_instance_errors(text, fragment):
    with pytest.raises(InstanceParseError) as ei:
        parse_instance(text)
    assert fragment in str(ei.value)


# -- count / sidim / fiber-class -----------------------------------------------


def test_count_golden(theta4_file):
    code, out, err = run_cli(["count", theta4_file])
    assert code == 0 and err == ""
    assert out.splitlines()[0] == "N = 6"
    assert machine_block(out) == [
        ("command", "count"),
        ("n", "6"),
        ("euler", "0"),
        ("states", "9"),
        ("seed", "0"),
        ("version", "quivercount 0.1.0"),
    ]


@pytest.mark.parametrize("command", ["count", "sidim", "fiber-class"])
def test_deterministic_commands_take_no_seed(theta4_file, command):
    code, out, err = run_cli([command, theta4_file, "--seed", "3"])
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --seed 3" in err


def test_count_breakdown_lists_unit_contributions(theta4_file):
    code, out, _ = run_cli(["count", theta4_file, "--breakdown"])
    assert code == 0
    rows = [l for l in out.splitlines() if l.startswith("  ") and ":" in l]
    assert len(rows) == 6
    assert all(r.endswith(": 1") for r in rows)
    assert "  (1) (1) () (): 1" in rows


def test_count_from_stdin():
    code, out, _ = run_cli(["count", "-"], stdin_text=THETA4_TEXT)
    assert code == 0
    assert out.splitlines()[0] == "N = 6"


def test_sidim_golden(theta4_file):
    code, out, _ = run_cli(["sidim", theta4_file])
    assert code == 0
    assert out.splitlines()[0] == "M = 6, sigma = (1,-2)"
    assert ("m", "6") in machine_block(out)
    assert ("states", "9") in machine_block(out)


def test_fiber_class_golden(theta4_file):
    code, out, _ = run_cli(["fiber-class", theta4_file])
    assert code == 0
    assert out.splitlines()[0] == "0:();1:() -> 6"
    block = machine_block(out)
    assert ("terms", "1") in block
    assert ("states", "9") in block


def test_fiber_class_positive_pairing(tmp_path):
    path = tmp_path / "a2.qc"
    path.write_text("vertices 2\narrow 0 1\nalpha 2 2\nbeta 1 1\n")
    code, out, _ = run_cli(["fiber-class", str(path)])
    assert code == 0
    body = [l for l in out.splitlines() if "->" in l and "=" not in l]
    assert sorted(body) == ["0:();1:(1) -> 1", "0:(1);1:() -> 1"]
    assert ("states", "3") in machine_block(out)


# -- mu consumption ------------------------------------------------------------


def test_count_with_mu_reports_original_pairing(a2_mu_file):
    code, out, _ = run_cli(["count", a2_mu_file])
    assert code == 0
    assert out.splitlines()[0] == "N = 1"
    block = dict(machine_block(out))
    assert block["n"] == "1"
    assert block["euler"] == "1"


@pytest.mark.parametrize("part", ["(0,1)", "(1,0,1)"])
def test_mu_line_with_a_zero_before_a_part_is_a_parse_error(tmp_path, part):
    # read with every zero stripped, (0,1) answered N = 1 for the piece (1)
    path = tmp_path / "zero.qc"
    path.write_text(A2_MU_TEXT.replace("mu 0:(1)", f"mu 0:{part}"))
    code, out, err = run_cli(["count", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("parse error: line 5: zero part before a nonzero part")


def test_sidim_with_mu_drops_labelings(a2_mu_file):
    code, out, _ = run_cli(["sidim", a2_mu_file])
    assert code == 0
    assert out.splitlines()[0] == "M = 1, sigma = (1,0)"
    assert "states" not in dict(machine_block(out))


def test_verify_single_instance_with_mu(a2_mu_file):
    code, out, _ = run_cli(["verify", a2_mu_file])
    assert code == 0
    assert "suite instance-covariant:" in out
    assert "fiber=1" in out
    assert ("failures", "0") in machine_block(out)


# -- verify --------------------------------------------------------------------


def test_verify_single_instance(theta4_file):
    code, out, _ = run_cli(["verify", theta4_file])
    assert code == 0
    assert "suite instance:" in out
    assert "N=6 M=6" in out


def test_verify_kronecker_suite():
    code, out, _ = run_cli(["verify", "--kronecker"])
    assert code == 0
    for n, binom in (("2", "2"), ("4", "6"), ("6", "20"), ("8", "70")):
        assert f"theta({n})" in out and f"binom={binom}" in out
    assert "FAIL" not in out


def _report(text):
    """The human-readable part of a report, before the `---` line."""
    return text.split("---\n", 1)[0]


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["--kronecker"],
            "suite kronecker:\n"
            "  ok   theta(2) [2v 0->1,0->1] beta=(1, 1) alpha=(2, 2)  N=2 M=2  binom=2\n"
            "  ok   theta(4) [2v 0->1,0->1,0->1,0->1] beta=(1, 2) alpha=(3, 3)  N=6 M=6  binom=6\n"
            "  ok   theta(6) [2v 0->1,0->1,0->1,0->1,0->1,0->1] beta=(1, 3) alpha=(4, 4)"
            "  N=20 M=20  binom=20\n"
            "  ok   theta(8) [2v 0->1,0->1,0->1,0->1,0->1,0->1,0->1,0->1] beta=(1, 4) alpha=(5, 5)"
            "  N=70 M=70  binom=70\n",
        ),
        (
            ["--tripleflag", "--n", "3", "--r", "1"],
            "suite tripleflag:\n"
            "  ok   (),(),(2)  N=1 M=1  lr=1\n"
            "  ok   (),(1),(1)  N=1 M=1  lr=1\n"
            "  ok   (),(2),()  N=1 M=1  lr=1\n"
            "  ok   (1),(),(1)  N=1 M=1  lr=1\n"
            "  ok   (1),(1),()  N=1 M=1  lr=1\n"
            "  ok   (2),(),()  N=1 M=1  lr=1\n",
        ),
        (
            ["--covariants", "--count", "3"],
            "suite covariants:\n"
            "  ok   [2v 0->1] beta=(1, 1) alpha=(2, 2)  N=2 M=2  fiber/count/mult 1/1/1;1/1/1\n"
            "  ok   [2v 0->1,0->1,0->1] beta=(0, 0) alpha=(3, 3)  N=1 M=1  fiber/count/mult 1/1/1\n"
            "  ok   [3v 0->2,0->2,0->1] beta=(0, 0, 3) alpha=(1, 0, 4)  N=1 M=1  fiber/count/mult 1/1/1\n",
        ),
    ],
)
def test_verify_suite_rows_are_pinned(argv, expected):
    code, out, _ = run_cli(["verify", *argv])
    assert code == 0
    assert _report(out) == expected


def test_verify_random_suite_seeded():
    code, out, _ = run_cli(["verify", "--random", "6", "--seed", "5"])
    assert code == 0
    assert ("instances", "6") in machine_block(out)
    assert "FAIL" not in out


def test_verify_random_does_not_resize_other_suites():
    # 2 random instances plus the default 30 multiplicativity triples
    code, out, _ = run_cli(["verify", "--random", "2", "--multiplicativity"])
    assert code == 0
    assert ("instances", "32") in machine_block(out)


def test_verify_tripleflag_suite_small():
    code, out, _ = run_cli(["verify", "--tripleflag", "--n", "3", "--r", "1"])
    assert code == 0
    assert "FAIL" not in out


# SHA-256 of the output of `verify --tripleflag --n 6 --r 3` with its
# elapsed_ms value masked, as printed when every instance built its own
# quiver: 435 rows, one of them with lr=2
TRIPLEFLAG_N6_R3_SHA256 = "d117049523ecaf2659ac23ec225dd6e3982393233d76f27c8083b1d34b862850"


def test_verify_tripleflag_n6_r3_output_is_pinned():
    code, out, _ = run_cli(["verify", "--tripleflag", "--n", "6", "--r", "3"])
    assert code == 0
    masked = re.sub(r"(?m)^elapsed_ms = \d+$", "elapsed_ms = *", out)
    assert masked.count("\n  ok ") == 435 and masked.count("lr=2") == 1
    assert hashlib.sha256(masked.encode()).hexdigest() == TRIPLEFLAG_N6_R3_SHA256


# SHA-256 of the default oracle suites' output with elapsed_ms masked, as
# printed when si_rank_oracle sized its samples from si_dimension
@pytest.mark.parametrize(
    "argv, digest",
    [
        (["--oracles"], "be189ac1b4d1b9230112bc49aeccf08dd04ba05fa203be0bab8cf483154d8666"),
        (["--oracles", "--seed", "1"], "dfd907327bf650895fb386d53e9bb2352299c64a95289b0e8d0b6730562221ec"),
        (
            ["--oracles", "--q", "101", "--ext", "3", "--trials", "3", "--count", "10"],
            "e17f0c7802087a35b9580a4ba6fbedb106778ee088f7cca59713cda1d4453806",
        ),
        (["--basis"], "a56f6ec756fe1f69304f35089f76420992fd373e86ccc88d18729f1e7725de65"),
    ],
    ids=["oracles", "oracles-seed1", "oracles-q101-ext3", "basis"],
)
def test_verify_oracle_suites_output_is_pinned(argv, digest):
    code, out, _ = run_cli(["verify", *argv])
    assert code == 0
    masked = re.sub(r"(?m)^elapsed_ms = \d+$", "elapsed_ms = *", out)
    assert hashlib.sha256(masked.encode()).hexdigest() == digest


# Two instances with mu lines whose hats have arms on several vertices: the
# theta(3) piece 0:(1) 1:(1) of coefficient 3, and a (6,3) flag at pairing
# 1 whose piece at vertex 14 has coefficient 2
THETA3_MU_TEXT = "vertices 2\narrow 0 1\narrow 0 1\narrow 0 1\nalpha 5 3\nbeta 2 2\nmu 0:(1)\nmu 1:(1)\n"
FLAG63_MU_TEXT = (
    "vertices 16\n"
    # three arms 0..4, 5..9 and 10..14, each ending in the center 15
    + "".join(f"arrow {t} {15 if t % 5 == 4 else t + 1}\n" for t in range(15))
    + "alpha 1 2 3 4 5 1 2 3 4 5 1 2 3 4 5 6\n"
    + "beta 0 0 1 2 2 0 1 2 2 2 0 1 1 1 2 3\n"
    + "mu 14:(1)\n"
)


# SHA-256 of the output with elapsed_ms masked, as printed when every piece
# built its own hat quiver; count prints the hat's DP states
@pytest.mark.parametrize(
    "command, text, digest",
    [
        ("count", THETA3_MU_TEXT, "7135fc7a61d9ae4d6734f4bccd494ee5d8764ed36c1a75e4345de1e74e042e90"),
        ("sidim", THETA3_MU_TEXT, "c60fea77d99dbe8a93e0a1e960443b77c7459ca7bfdce60fdba347bdc4afc5e4"),
        ("fiber-class", THETA3_MU_TEXT, "8b2a1f1f042230e6129d79fd9b3f1d5ad27d2c2002a915479ca74f1d04a70aa3"),
        ("count", FLAG63_MU_TEXT, "1a7bc1117119a317ef7387699492bcbbb60ae00578556c5d41f13f17d4fc8b3d"),
        ("sidim", FLAG63_MU_TEXT, "bd3a9d760436a3de7a8e9eee1bfa9690f42667ef39315ac2a180edd66ee17e88"),
        ("fiber-class", FLAG63_MU_TEXT, "68a122feaca8001d66a3b95ea39fe35857918a31e5368403ffcb985925887f38"),
        ("verify", None, "cdd48c18f37f0ae113e5021672d1570270d54b7bac02549e36300b3d2179c6b5"),
    ],
    ids=["count-theta3", "sidim-theta3", "fiber-theta3", "count-flag63", "sidim-flag63", "fiber-flag63", "covariants"],
)
def test_covariant_pieces_output_is_pinned(tmp_path, command, text, digest):
    if text is None:
        argv = [command, "--covariants"]
    else:
        path = tmp_path / "piece.qc"
        path.write_text(text)
        argv = [command, str(path)]
    code, out, _ = run_cli(argv)
    assert code == 0
    masked = re.sub(r"(?m)^elapsed_ms = \d+$", "elapsed_ms = *", out)
    assert hashlib.sha256(masked.encode()).hexdigest() == digest


def test_verify_covariants_and_multiplicativity():
    code, out, _ = run_cli(
        ["verify", "--covariants", "--multiplicativity", "--count", "6"]
    )
    assert code == 0
    block = dict(machine_block(out))
    assert block["suites"] == "covariants,multiplicativity"
    assert block["failures"] == "0"


def test_verify_failure_exits_one_and_prints_instance(theta4_file):
    # sampling theta(4) capped at quadratic extensions genuinely undercounts,
    # so this is a real failing verification, not a synthetic one
    code, out, _ = run_cli(
        ["verify", theta4_file, "--oracles", "--q", "101", "--ext", "2",
         "--trials", "10"]
    )
    assert code == 1
    assert "FAIL" in out
    assert "offending instance:" in out
    assert "beta 1 2" in out
    assert ("failures", "1") in machine_block(out)


def test_verify_oracles_over_a_large_prime_quartic_extension(tmp_path):
    # building GF(p^4) for p = 3 mod 4 once tested all p binomials x^4 + c
    path = tmp_path / "theta2.qc"
    path.write_text("vertices 2\narrow 0 1\narrow 0 1\nalpha 2 2\nbeta 1 1\n")
    code, out, _ = run_cli(["verify", str(path), "--oracles", "--q", "1000000007", "--ext", "4"])
    assert code == 0
    assert ("failures", "0") in machine_block(out)


def test_verify_basis_checks_the_instance_file(tmp_path):
    path = tmp_path / "theta2.qc"
    path.write_text("vertices 2\narrow 0 1\narrow 0 1\nalpha 2 2\nbeta 1 1\n")
    code, out, _ = run_cli(["verify", str(path), "--basis", "--q", "5"])
    assert code == 0
    assert "suite instance-basis:" in out
    row = [line for line in out.splitlines() if line.startswith("  ok")]
    assert len(row) == 1 and "beta=(1, 1) alpha=(2, 2)  N=2 M=2  k=2" in row[0]
    assert "theta(4)" not in out
    block = dict(machine_block(out))
    assert block["suites"] == "instance-basis"
    assert block["failures"] == "0"
    # with no file the pinned theta(2) and theta(4) cases still run
    code, out, _ = run_cli(["verify", "--basis", "--q", "5"])
    assert code == 0
    assert dict(machine_block(out))["suites"] == "basis"
    assert "  ok   theta(2)" in out and "  ok   theta(4)" in out


def test_verify_basis_fails_when_k_misses_the_weight_space_dimension(tmp_path, monkeypatch):
    counts = oracles.verify_counts
    monkeypatch.setattr(oracles, "verify_counts", lambda *args: dataclasses.replace(counts(*args), m_value=3))
    path = tmp_path / "theta2.qc"
    path.write_text("vertices 2\narrow 0 1\narrow 0 1\nalpha 2 2\nbeta 1 1\n")
    code, out, _ = run_cli(["verify", str(path), "--basis", "--q", "5"])
    assert code == 1
    row = [line for line in out.splitlines() if line.startswith("  FAIL")]
    assert len(row) == 1
    assert "N=2 M=3  k=2 ext=1 (2 subrepresentations but weight space has dimension 3)" in row[0]
    assert ("failures", "1") in machine_block(out)


def test_verify_oracles_and_basis_refuse_mu_lines(a2_mu_file):
    # the oracle suites check beta inside alpha at pairing 0 and never
    # look at mu, so a covariant piece is sent to plain `verify FILE`
    for flag in ("--oracles", "--basis"):
        code, out, err = run_cli(["verify", a2_mu_file, flag])
        assert (code, out) == (2, ""), flag
        assert "do not support mu lines" in err and f"plain `verify {a2_mu_file}`" in err
        assert "Euler pairing" not in err


def test_verify_basis_on_a_nonzero_pairing_file_exits_usage(tmp_path):
    path = tmp_path / "a2.qc"
    path.write_text("vertices 2\narrow 0 1\nalpha 2 2\nbeta 1 1\n")
    code, _, err = run_cli(["verify", str(path), "--basis"])
    assert code == 2
    assert "nonzero Euler pairing" in err


# -- exit codes ----------------------------------------------------------------


def test_exit_usage_on_nonzero_pairing(tmp_path):
    path = tmp_path / "a2.qc"
    path.write_text("vertices 2\narrow 0 1\nalpha 2 2\nbeta 1 1\n")
    code, _, err = run_cli(["count", str(path)])
    assert code == 2
    assert "nonzero Euler pairing" in err


def test_exit_usage_on_negative_pairing(tmp_path):
    path = tmp_path / "t3.qc"
    path.write_text(
        "vertices 2\narrow 0 1\narrow 0 1\narrow 0 1\nalpha 2 2\nbeta 1 1\n"
    )
    code, _, err = run_cli(["count", str(path)])
    assert code == 2
    assert "negative Euler pairing" in err


# -- the pairing requirement at every entry point ----------------------------
#
# check_instance is the one check: each entry point states whether it needs
# pairing 0 (N, M and the oracles) or only a nonnegative one (the fiber class
# and its pieces), and the same bad instance gets the same error everywhere.

THETA3_TEXT = "vertices 2\narrow 0 1\narrow 0 1\narrow 0 1\nalpha 2 2\nbeta 1 1\n"  # pairing -1
A2_TEXT = "vertices 2\narrow 0 1\nalpha 2 2\nbeta 1 1\n"  # pairing 1
NEGATIVE = ("negative Euler pairing -1", NegativePairingError)
POSITIVE = ("nonzero Euler pairing 1", NonzeroPairingError)
PIECE = ((1,), ())  # the one-box piece at vertex 0, a piece of A2_TEXT's class

ENTRY_POINTS = {
    # name: (call on (Q, beta, alpha), the pairing it needs)
    "count_subreps": (count_subreps, "zero"),
    "si_dimension": (si_dimension, "zero"),
    "verify_counts": (verify_counts, "zero"),
    "fiber_class": (fiber_class, "nonnegative"),
    "build_hat": (lambda Q, b, a: build_hat(Q, b, a, PIECE), "nonnegative"),
    "covariant_count": (lambda Q, b, a: covariant_count(Q, b, a, PIECE), "nonnegative"),
    "covariant_multiplicity": (lambda Q, b, a: covariant_multiplicity(Q, b, a, PIECE), "nonnegative"),
    "sampled_subrep_count": (lambda Q, b, a: oracles.sampled_subrep_count(Q, b, a, 5, trials=1), "zero"),
    "si_rank_oracle": (lambda Q, b, a: oracles.si_rank_oracle(Q, b, tuple(x - y for x, y in zip(a, b))), "zero"),
    "verify_determinant_basis": (lambda Q, b, a: oracles.verify_determinant_basis(Q, b, a, GF(5)), "zero"),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("text, expected", [(THETA3_TEXT, NEGATIVE), (A2_TEXT, POSITIVE)], ids=["negative", "positive"])
def test_every_library_entry_point_checks_the_pairing(name, text, expected):
    call, need = ENTRY_POINTS[name]
    spec = parse_instance(text)
    message, error = expected
    if error is NonzeroPairingError and need == "nonnegative":
        call(spec.quiver, spec.beta, spec.alpha)  # a positive pairing has a class and pieces
        return
    with pytest.raises(error, match=message) as info:
        call(spec.quiver, spec.beta, spec.alpha)
    assert type(info.value) is error


@pytest.mark.parametrize("command", ["count", "sidim", "fiber-class", "verify"])
@pytest.mark.parametrize(
    "text, message",
    [
        (THETA3_TEXT, NEGATIVE[0]),
        (THETA3_TEXT + "mu 0:(1)\n", NEGATIVE[0]),
        (A2_TEXT, POSITIVE[0]),
        (A2_TEXT + "mu 0:(1)\n", None),
        (A2_TEXT + "mu 0:(1,1)\n", "mu(0) = (1, 1) does not fit in 1x1"),
        (A2_TEXT + "mu 1:()\n", "mu sizes sum to 0, Euler pairing is 1"),
    ],
    ids=["negative", "negative-mu", "positive", "positive-mu", "mu-outside-its-box", "mu-of-the-wrong-size"],
)
def test_every_subcommand_checks_the_pairing_and_the_mu_lines(tmp_path, command, text, message):
    path = tmp_path / "bad.qc"
    path.write_text(text)
    code, out, err = run_cli([command, str(path)])
    if message is None or (message == POSITIVE[0] and command == "fiber-class"):
        assert (code, err) == (0, "")
        return
    assert (code, out) == (2, "")
    assert message in err


def test_fiber_class_with_a_valid_mu_prints_the_whole_class(tmp_path, a2_mu_file):
    path = tmp_path / "a2.qc"
    path.write_text(A2_TEXT)
    code, out, _ = run_cli(["fiber-class", a2_mu_file])
    whole = run_cli(["fiber-class", str(path)])[1]
    assert code == 0
    assert out.splitlines()[:3] == whole.splitlines()[:3] == ["0:();1:(1) -> 1", "0:(1);1:() -> 1", "---"]
    assert machine_block(out) == machine_block(whole)


def test_exit_usage_on_parse_error(tmp_path):
    path = tmp_path / "bad.qc"
    path.write_text("vertices 2\nfrobnicate 1\nalpha 1 1\nbeta 0 0\n")
    code, _, err = run_cli(["count", str(path)])
    assert code == 2
    assert "parse error" in err


def test_exit_usage_on_vertex_count_before_building_the_quiver(tmp_path):
    path = tmp_path / "huge.qc"
    path.write_text(HUGE_VERTICES_TEXT)
    t0 = time.monotonic()
    code, _, err = run_cli(["count", str(path)])
    assert time.monotonic() - t0 < 1
    assert code == 2
    assert "parse error" in err


@pytest.mark.parametrize("flag, value, fragment", [("--q", "1", "characteristic 1"), ("--ext", "0", "degree 0")])
def test_exit_usage_on_bad_oracle_field(flag, value, fragment):
    proc = run_module(["verify", "--oracles", "--count", "0", flag, value])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert fragment in proc.stderr


def test_basis_names_a_bad_q_before_any_suite_runs():
    code, out, err = run_cli(["verify", "--kronecker", "--basis", "--q", "4"])
    assert code == 2
    assert "characteristic 4" in err
    assert "suite" not in out


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--random", "-3", "--count", "-2", "--covariants"], "--random"),
        (["--random", "-1", "--kronecker"], "--random"),
        (["--count", "-2", "--covariants"], "--count"),
        (["--oracles", "--count", "-1"], "--count"),
        (["--oracles", "--count", "0", "--trials", "0"], "--trials"),
        (["--oracles", "--count", "0", "--trials", "-4"], "--trials"),
        (["--tripleflag", "--n", "0"], "--n"),
        (["--tripleflag", "--r", "-1"], "--r"),
        (["--random", "2", "--max-verts", "0"], "--max-verts"),
        (["--random", "2", "--max-dim", "0"], "--max-dim"),
        (["--random", "2", "--max-arrows", "-1"], "--max-arrows"),
        (["--oracles", "--count", "0", "--oracle-budget", "-5"], "--oracle-budget"),
        (["--random", "abc"], "--random: invalid int value"),
    ],
)
def test_exit_usage_on_negative_suite_size(argv, flag):
    code, out, err = run_cli(["verify", *argv])
    assert code == 2
    assert f"argument {flag}" in err
    assert "Traceback" not in err
    assert out == ""


def test_exit_usage_when_flag_rank_exceeds_dimension():
    code, out, err = run_cli(["verify", "--tripleflag", "--n", "3", "--r", "5"])
    assert code == 2
    assert "--r 5" in err and "--n 3" in err
    assert out == ""


def test_zero_suite_sizes_are_accepted():
    code, out, _ = run_cli(["verify", "--random", "0", "--kronecker", "--count", "0"])
    assert code == 0
    assert "failures = 0" in out
    block = dict(machine_block(out))
    assert block["suites"] == "kronecker,random"
    assert block["instances"] == "4"
    # an empty random suite on its own is still a selected suite
    code, out, _ = run_cli(["verify", "--random", "0"])
    assert code == 0
    assert dict(machine_block(out))["instances"] == "0"


def test_exit_usage_on_missing_file():
    code, _, err = run_cli(["count", "/nonexistent/instance.qc"])
    assert code == 2


@pytest.mark.parametrize("command", ["count", "verify"])
def test_exit_usage_when_the_instance_path_is_a_directory(tmp_path, command):
    code, _, err = run_cli([command, str(tmp_path)])
    assert code == 2
    assert err.startswith("error: ") and str(tmp_path) in err


def test_exit_usage_when_no_suite_selected():
    code, _, err = run_cli(["verify"])
    assert code == 2
    assert "no suite selected" in err


def test_exit_budget_when_enumeration_starved(tmp_path):
    path = tmp_path / "big.qc"
    path.write_text("vertices 2\narrow 0 1\narrow 0 1\nalpha 4 4\nbeta 2 2\n")
    code, _, err = run_cli(
        ["verify", str(path), "--oracles", "--q", "5", "--ext", "1",
         "--trials", "2", "--oracle-budget", "100"]
    )
    assert code == 3
    assert "budget" in err


def test_verify_oracles_enumerates_up_to_the_oracle_budget():
    # theta(2) (2,0)/(4,1) is drawn at seed 0 with 820,614,822 points:
    # admitted by --oracle-budget, so the sampler must use the same budget
    code, out, _ = run_cli(["verify", "--oracles", "--count", "6", "--oracle-budget", "1000000000"])
    assert code == 0
    assert "beta=(2, 0) alpha=(4, 1)  N=1 M=1  modal=1 rank=1" in out
    assert "failures = 0" in out


def test_version_and_help_exit_zero():
    assert run_cli(["--help"])[0] == 0
    code, out, err = run_cli(["--version"])
    assert code == 0
    assert "quivercount" in out + err


def test_module_entry_point():
    proc = run_module(["count", "-"], stdin_text=THETA4_TEXT)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "N = 6"


def test_a_reader_that_closes_stdout_gets_exit_1_and_no_message():
    # the pipe's read end is closed before the run, so its output fails
    # with EPIPE however short it is: a cut-off run is not a usage error
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_module(["verify", "--kronecker"], stdout=write_end)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_deep_instances_exit_zero_without_a_traceback(tmp_path):
    # a label rectangle of 1,500 rows and a walk over 1,200 vertices, each
    # deeper than Python's default recursion limit
    tall = tmp_path / "tall.qc"
    tall.write_text("vertices 2\narrow 0 1\nalpha 1501 1\nbeta 1500 0\n")
    wide = tmp_path / "wide.qc"
    wide.write_text(f"vertices 1200\nalpha {' '.join(['1'] * 1200)}\nbeta {' '.join(['0'] * 1200)}\n")
    proc = run_module(["count", str(tall)])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[0] == "N = 1"
    proc = run_module(["verify", str(wide), "--oracles"])
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr[-2000:]
    assert ("failures", "0") in machine_block(proc.stdout)


# -- fuzz --------------------------------------------------------------------

FUZZ_COMMANDS = (
    ("count",),
    ("count", "--breakdown"),
    ("sidim",),
    ("fiber-class",),
    ("verify",),
    ("verify", "--oracles", "--q", "3", "--ext", "2"),
)
FUZZ_DIGITS = "0123456789"
FUZZ_OTHER = " -:(),#\nabelrtuv"


def fuzz_instance_text(rng: random.Random) -> str:
    """Instance text with at most 4 vertices and dimensions up to 3: a
    seeded `random_instance` (mostly of zero pairing), or free-form lines
    whose arrows may be loops, close cycles or leave the quiver.  A
    quarter of them get mu lines, some for a vertex out of range; half
    get one character deleted, replaced or inserted.  Digits replace
    characters but are never inserted, so no number grows a second
    digit: that would be a large instance, whose run time nothing bounds
    before it starts, rather than a malformed one."""
    if rng.random() < 0.5:
        Q, beta, alpha = random_instance(rng, require_zero_pairing=rng.random() < 0.75)
        n, arrows = Q.nvertices, Q.arrows
    else:
        n = rng.randint(0, 4)
        arrows = [(rng.randrange(4), rng.randrange(4)) for _ in range(rng.randint(0, 5) if n else 0)]
        alpha = [rng.randint(0, 3) for _ in range(n)]
        beta = [rng.randint(0, a) for a in alpha]
    lines = [f"vertices {n}", *(f"arrow {t} {h}" for t, h in arrows)]
    lines += ["alpha " + " ".join(map(str, alpha)), "beta " + " ".join(map(str, beta))]
    if n and rng.random() < 0.25:
        for i in rng.sample(range(n + 1), rng.randint(1, 2)):
            parts = sorted((rng.randint(1, 3) for _ in range(rng.randint(0, 2))), reverse=True)
            lines.append(f"mu {i}:(" + ",".join(map(str, parts)) + ")")
    text = "\n".join(lines) + "\n"
    if rng.random() < 0.5:
        i = rng.randint(0, len(text))
        op = rng.choice("dri")
        if op == "d":
            text = text[:i] + text[i + 1 :]
        elif op == "r":
            text = text[:i] + rng.choice(FUZZ_DIGITS + FUZZ_OTHER) + text[i + 1 :]
        else:
            text = text[:i] + rng.choice(FUZZ_OTHER) + text[i:]
    return text


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from(FUZZ_COMMANDS))
def test_fuzzed_instances_exit_with_a_documented_code(seed, command):
    # the text is built from one drawn seed: drawing every line from
    # Hypothesis strategies took three times as long to generate.
    # run_cli lets any exception escape main(), which fails the example
    text = fuzz_instance_text(random.Random(seed))
    code, out, err = run_cli([command[0], "-", *command[1:]], text)
    event(f"exit {code}")  # the mix shows under --hypothesis-show-statistics
    assert code in (0, 1, 2, 3), (text, code, err)
    if code in (2, 3):
        assert err.strip(), text
    # exit 1 is a failed verification, and a failed verification exits 1
    assert (code == 1) == bool(re.search(r"^  FAIL ", out, re.M)), (text, out)
