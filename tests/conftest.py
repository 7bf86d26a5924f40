import sys

import numpy as np
import pytest
from hypothesis import settings

from pascalrow import bignat, oracle, rowgen
from pascalrow.bignat import BigNat, pow10

# Tests cross-check against native ints whose decimal renderings exceed
# CPython's default str-conversion guard.
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(2_000_000)

settings.register_profile("pascalrow", deadline=None)
settings.load_profile("pascalrow")


@pytest.fixture(autouse=True)
def _restore_multiplication_threshold():
    saved = bignat.karatsuba_threshold()
    yield
    bignat.set_karatsuba_threshold(saved)


@pytest.fixture
def bump_multiplicative(monkeypatch):
    """bump(k, wider=False) plants a fault in the multiplicative oracle.

    Each matrix the oracle yields then has C(n, k) off by one, or, with
    `wider`, raised by 10**width so that it no longer fits its block; the
    oracle still steps each row from its own true matrix. Forked verify
    workers inherit the plant.
    """
    make = oracle.iter_multiplicative_matrices

    def bump(k, wider=False):
        def bumped(start):
            for matrix in make(start):
                numbers = BigNat.from_limb_rows(matrix)
                n = len(numbers) - 1
                numbers[k] += pow10(rowgen.theta(n).block_width) if wider else BigNat(1)
                yield BigNat.to_limb_rows(numbers).astype(np.int64)

        monkeypatch.setattr(oracle, "iter_multiplicative_matrices", bumped)

    return bump
