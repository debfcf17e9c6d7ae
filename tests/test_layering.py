"""The package's layering, read from the source with `ast`.

The oracles (`ffield`, `oracles`) check the numbers that the counting
formulas (`partitions`, `lr`, `counting`, `covariants`) compute, so the
two sides may share only `quiver`, which imports neither.  Every import
statement counts, at module level or inside a function, in both the
relative and the `quivercount.x` forms.  The same reading finds public
code that only the tests use.
"""

import ast
from pathlib import Path

import pytest

import quivercount

PACKAGE = Path(quivercount.__file__).parent
MODULES = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
FORMULAS = {"partitions", "lr", "counting", "covariants"}
ORACLES = {"ffield", "oracles"}
# the one edge left: verify_determinant_basis reads the N and M it checks
# from verify_counts
ALLOWED = {"counting.verify_counts"}


def imports_of(source: str) -> set[str]:
    """Package imports in source: "mod" for a whole module, "mod.name" for
    a name taken from one, and "__init__" for the bare package.  A name
    taken from the package itself is credited to the module that defines
    it."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == "quivercount":
                    found.add(rest.partition(".")[0] or "__init__")
        elif isinstance(node, ast.ImportFrom):
            if node.level == 1:
                module = node.module
            elif node.level == 0 and (node.module or "").partition(".")[0] == "quivercount":
                module = node.module.partition(".")[2] or None
            else:
                continue
            for alias in node.names:
                if module is not None:
                    found.add(f"{module.partition('.')[0]}.{alias.name}")
                elif alias.name in MODULES:
                    found.add(alias.name)
                else:
                    owner = getattr(getattr(quivercount, alias.name, None), "__module__", "")
                    layer = owner.removeprefix("quivercount.") if owner.startswith("quivercount.") else "__init__"
                    found.add(f"{layer}.{alias.name}")
    return found


def imported(module: str) -> set[str]:
    return imports_of((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def layers(names: set[str]) -> set[str]:
    return {n.partition(".")[0] for n in names}


@pytest.mark.parametrize(
    "source, expected",
    [
        ("def f():\n    from .counting import si_dimension\n", {"counting.si_dimension"}),
        ("from quivercount.ffield import GF, mat_det\n", {"ffield.GF", "ffield.mat_det"}),
        ("import quivercount.oracles as o\n", {"oracles"}),
        ("import quivercount\n", {"__init__"}),
        ("from . import lr\nfrom quivercount import ffield\n", {"lr", "ffield"}),
        ("from . import GF, __version__\n", {"ffield.GF", "__init__.__version__"}),
        ("import random\nfrom dataclasses import dataclass\n", set()),
    ],
)
def test_the_reader_sees_every_import_form(source, expected):
    assert imports_of(source) == expected


def test_every_layer_is_read():
    assert FORMULAS | ORACLES | {"quiver", "cli"} == MODULES


def test_quiver_imports_no_package_module():
    assert imported("quiver") == set()


def test_partitions_import_no_package_module():
    assert imported("partitions") == set()


def test_lr_imports_only_partitions():
    assert layers(imported("lr")) == {"partitions"}


@pytest.mark.parametrize("module", sorted(FORMULAS))
def test_formulas_import_nothing_from_the_oracles(module):
    assert not layers(imported(module)) & (ORACLES | {"__init__"})


def test_oracles_take_only_verify_counts_from_the_formulas():
    taken = {n for m in ORACLES for n in imported(m) if layers({n}) & (FORMULAS | {"__init__"})}
    assert taken == ALLOWED


PUBLIC = [
    "BasisReport", "BudgetExceededError", "CountReport", "DegenerateSampleError", "FFRep",
    "FiberClass", "GF", "HatInstance", "LREngine", "NegativePairingError", "NonSquarePairingError",
    "NonzeroPairingError", "Quiver", "Rectangle", "SubrepCount", "build_dvw", "build_hat",
    "check_dimvector", "check_instance", "complement", "conjugate", "count_subreps",
    "covariant_count", "covariant_multiplicity", "enumerate_subreps", "euler_form", "fiber_class",
    "fits", "format_partition", "gaussian_binomial", "hom_ext_dims", "is_prime", "list_subreps",
    "parse_partition", "partition", "partitions_in_rectangle", "random_instance", "random_rep",
    "random_zero_triple", "sampled_subrep_count", "semiinvariant_cv", "si_dimension",
    "si_rank_oracle", "size", "triple_flag_instance", "verify_counts", "verify_determinant_basis",
    "weight_of",
]


def test_public_names_and_their_homes():
    assert sorted(quivercount.__all__) == PUBLIC
    # representations over a field live with the oracles, the pairing
    # error that both sides raise with the shared validation
    for name in ("FFRep", "random_rep", "build_dvw", "hom_ext_dims", "semiinvariant_cv", "NonSquarePairingError"):
        assert getattr(quivercount, name) is getattr(quivercount.oracles, name)
    assert quivercount.counting.NonzeroPairingError is quivercount.quiver.NonzeroPairingError
    assert quivercount.NonzeroPairingError is quivercount.quiver.NonzeroPairingError
    # a negative pairing is one way of missing pairing 0
    assert quivercount.NegativePairingError is quivercount.quiver.NegativePairingError
    assert issubclass(quivercount.NegativePairingError, quivercount.NonzeroPairingError)


PAIRING_ERRORS = {"NonzeroPairingError", "NegativePairingError"}


def pairing_raises(source: str) -> list[str]:
    """The pairing errors that `raise` statements in source name, called or
    not, bare or as an attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
            if name in PAIRING_ERRORS:
                found.append(name)
    return found


def test_the_raise_reader_sees_every_form():
    source = (
        "raise NonzeroPairingError('x')\nraise quiver.NegativePairingError\n"
        "raise ValueError('NonzeroPairingError')\nraise\n"
    )
    assert pairing_raises(source) == ["NonzeroPairingError", "NegativePairingError"]


@pytest.mark.parametrize("module", sorted(MODULES | {"__init__"}))
def test_only_check_instance_raises_the_pairing_errors(module):
    raised = pairing_raises((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    assert (sorted(raised) == sorted(PAIRING_ERRORS)) if module == "quiver" else not raised


def unused(sources: dict[str, str], exported) -> list[str]:
    """Public code in the modules' sources (name -> text) that no module
    uses: "Class.method" for a method that no module reads as an
    attribute, and "module.function" for a module function that no module
    but `__init__` reads and that is not in `exported`."""
    trees = {m: ast.parse(text) for m, text in sources.items()}
    attributes, names = set(), set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
                if module != "__init__":
                    names.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and module != "__init__":
                names.add(node.id)
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                found += [
                    f"{node.name}.{f.name}"
                    for f in node.body
                    if isinstance(f, ast.FunctionDef) and not f.name.startswith("_") and f.name not in attributes
                ]
            elif isinstance(node, ast.FunctionDef) and not node.name.startswith("_") and module != "__init__":
                if node.name not in names and node.name not in exported:
                    found.append(f"{module}.{node.name}")
    return found


def test_the_use_reader_sees_unused_code():
    sources = {
        "__init__": "from .a import f, g, h\n__all__ = ['g']\nA.spare\nh()\n",
        "a": (
            "class A:\n    def used(self): pass\n    def spare(self): pass\n    def _own(self): pass\n"
            "def f(): return A().used()\ndef g(): pass\ndef h(): pass\ndef _k(): pass\nf\n"
        ),
    }
    assert unused(sources, {"g"}) == ["a.h"]
    assert unused({"a": sources["a"]}, set()) == ["A.spare", "a.g", "a.h"]


def test_no_public_code_is_left_for_its_tests_alone():
    # a public function that nothing in the package calls is the package's
    # answer to a user: it is exported
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unused(sources, set(quivercount.__all__)) == []
