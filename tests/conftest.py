import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))
# oracles.py is no test module, so without this its asserts would be plain
# ones, which ``python -O`` compiles away
pytest.register_assert_rewrite("oracles")

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def pytest_runtest_logreport(report):
    # one pass/fail line per acceptance criterion, whatever the verbosity
    if report.when == "call" and "test_acceptance.py" in report.nodeid:
        name = report.nodeid.rsplit("::", 1)[-1]
        outcome = "PASS" if report.passed else "FAIL"
        print(f"[acceptance] {outcome} {name}", flush=True)
