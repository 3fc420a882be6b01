"""Acceptance suite: one test per criterion of the registry in
``ellfm.selftest``, with the same bodies, seeds and time budgets that
``ellfm selftest`` runs.  Each test prints a pass/fail line with the elapsed
time.

The tests are generated in a loop over the registry and named
``test_criterion_<number>_<name>``.  Run with
``pytest -s tests/test_acceptance.py`` to see the report lines.
"""

from ellfm.selftest import CRITERIA


def _acceptance_test(criterion):
    def test():
        try:
            line = criterion.run()
        except BaseException:
            print(f"[FAIL] {criterion.label}")
            raise
        print(f"[PASS] {line}")

    test.__name__ = f"test_criterion_{criterion.number}_{criterion.name}"
    return test


for _criterion in CRITERIA:
    _test = _acceptance_test(_criterion)
    globals()[_test.__name__] = _test
