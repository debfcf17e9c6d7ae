"""What the benchmark (`bench/workloads.py`, `bench/layertrace.py`) reads
from the package.  `bench/test_bench.py` is not part of the default test
run, so a change to the package alone could break the benchmark unseen;
these checks name every private table, wrapped function and result field
that the benchmark relies on.
"""

import dataclasses
import inspect

import pytest

from quivercount import counting, covariants, oracles
from quivercount.lr import LREngine


def test_the_tracer_reads_the_engine_tables_and_methods():
    # the tracer sums the sizes of the three tables for its memo hit ratio
    engine = LREngine()
    for table in ("_lr_memo", "_expand_memo", "_tensor_memo"):
        assert type(getattr(engine, table)) is dict, table
    for method in ("expand", "lr_coefficient"):
        assert inspect.isfunction(vars(LREngine).get(method)), method


def test_the_covariants_share_the_labeled_sum():
    # the tracer wraps counting._labeled_sum and rebinds the covariants' copy
    assert covariants._labeled_sum is counting._labeled_sum


@pytest.mark.parametrize(
    "module, name",
    [
        (counting, "verify_counts"),
        (counting, "fiber_class"),
        (oracles, "enumerate_subreps"),
        (oracles, "list_subreps"),
        (oracles, "sampled_subrep_count"),
        (oracles, "verify_determinant_basis"),
    ],
)
def test_the_hooked_functions_are_public_functions_of_their_modules(module, name):
    # the tracer hooks exactly the public functions a module defines
    fn = vars(module).get(name)
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__


@pytest.mark.parametrize(
    "cls, read",
    [
        (counting.CountReport, ("n_labelings", "m_labelings", "passed")),
        (counting.FiberClass, ("coeffs",)),
        (oracles.SubrepCount, ("trials", "degenerate", "per_trial", "method", "modal")),
        (oracles.BasisReport, ("samples_tried", "passed", "k", "m_expected", "matrix")),
    ],
    ids=["CountReport", "FiberClass", "SubrepCount", "BasisReport"],
)
def test_the_result_fields_the_bench_reads_exist(cls, read):
    fields = {f.name for f in dataclasses.fields(cls)}
    properties = {n for n, v in vars(cls).items() if isinstance(v, property)}
    assert set(read) <= fields | properties
