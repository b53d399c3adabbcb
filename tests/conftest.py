"""Shared fixtures: reference circuits + optional lock sanitizer.

With ``REPRO_SANITIZE=1`` the :mod:`repro.devtools.sanitize` shim is
installed for the whole session, so every server/pool/worker lock the
suite creates is instrumented — the chaos and concurrency stress tests
become lock-order and lock-hold *detectors* instead of mere crash
probes.  An autouse fixture fails exactly the test that produced a
violation, with the recorded acquisition stacks in the message.
"""

import pytest

from helpers import build_adder_mig, build_random_mig

from repro.core.wavepipe import kernels
from repro.devtools import sanitize

#: Session-wide registry when REPRO_SANITIZE is on, else ``None``.
_SANITIZE_REGISTRY = sanitize.install() if sanitize.enabled() else None


@pytest.fixture
def random_mig():
    return build_random_mig()


@pytest.fixture
def adder_mig():
    return build_adder_mig()


@pytest.fixture
def step_loop(request, monkeypatch):
    """Log every call of the step loop named by the case parameter.

    Parametrized through ``helpers.ON_STEP_LOOP``.  Returns the (growing)
    list of calls, so a case can assert that it really ran the loop — or,
    for a plan-time refusal, that it did not.
    """
    name = f"_advance_{request.param}"
    loop = getattr(kernels, name)
    calls = []

    def logged(*args, **kwargs):
        calls.append(name)
        return loop(*args, **kwargs)

    monkeypatch.setattr(kernels, name, logged)
    return calls


@pytest.fixture(autouse=True)
def _sanitized_locks():
    """Fail the test that produced a new lock-sanitizer violation."""
    if _SANITIZE_REGISTRY is None:
        yield
        return
    seen = len(_SANITIZE_REGISTRY.findings())
    yield
    fresh = _SANITIZE_REGISTRY.findings()[seen:]
    if fresh:
        pytest.fail(
            "lock sanitizer violations:\n"
            + "\n".join(
                f"{finding.location}: {finding.rule}: {finding.message}"
                for finding in fresh
            ),
            pytrace=False,
        )
