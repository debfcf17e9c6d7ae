import sys

import pytest

from lr_reference import ReferenceEngine


@pytest.fixture(scope="session")
def engine() -> ReferenceEngine:
    # one shared engine so the memo tables are exercised across tests; an
    # LREngine that also carries the Schubert and Schur reference methods
    return ReferenceEngine()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one line per acceptance criterion after the run.

    The acceptance module records (number, description, verdict) tuples as
    its tests execute; anything it never reached is reported as SKIPPED.
    """
    mod = sys.modules.get("test_acceptance")
    if mod is None or not getattr(mod, "RESULTS", None):
        return
    tr = terminalreporter
    tr.section("acceptance criteria")
    seen = {}
    for num, desc, ok, note in mod.RESULTS:
        seen[num] = (desc, ok, note)
    for num in sorted(seen):
        desc, ok, note = seen[num]
        verdict = "PASS" if ok else "FAIL"
        extra = f"  [{note}]" if note else ""
        tr.write_line(f"criterion {num}: {verdict}  {desc}{extra}")
