"""Shared circuit builders and marks used by the test modules."""

import random

import pytest

from repro.core.mig import Mig

#: Runs a kernel-matrix case on the packed engine's step loop,
#: ``kernels._advance_fused``: the loop's short name ends up in the case
#: id, and the case receives the ``step_loop`` fixture's call log.
ON_STEP_LOOP = pytest.mark.parametrize("step_loop", ["fused"], indirect=True)


def build_random_mig(
    n_pis: int = 6,
    n_gates: int = 30,
    n_pos: int = 4,
    seed: int = 1,
    complement_probability: float = 0.3,
) -> Mig:
    """A seeded random MIG for structural tests (function irrelevant)."""
    rng = random.Random(seed)
    mig = Mig(f"random_{seed}")
    signals = list(mig.add_pis(n_pis))
    while mig.size < n_gates:
        picks = rng.sample(signals, 3)
        fanins = [
            ~sig if rng.random() < complement_probability else sig
            for sig in picks
        ]
        signals.append(mig.add_maj(*fanins))
    for sig in signals[-n_pos:]:
        mig.add_po(sig)
    return mig


def build_adder_mig(width: int = 4) -> Mig:
    """Ripple-carry adder: natural MIG circuit (carry = MAJ)."""
    mig = Mig(f"adder{width}")
    a = mig.add_pis(width, prefix="a")
    b = mig.add_pis(width, prefix="b")
    carry = mig.add_pi("cin")
    for i in range(width):
        axb = mig.add_xor(a[i], b[i])
        mig.add_po(mig.add_xor(axb, carry), f"s{i}")
        carry = mig.add_maj(a[i], b[i], carry)
    mig.add_po(carry, "cout")
    return mig
