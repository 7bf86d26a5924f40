"""Expected CLI output, computed without the pascalrow package.

Every expected byte string comes from math.comb and CPython int
arithmetic, so the check shares no code with the program it checks.
A check returns None when the output is right and a short reason when it
is not.
"""

from __future__ import annotations

import json
import math
import sys

# The power of row 600 has about 110k digits; Python 3.11 refuses to
# render ints above 4300 digits unless the limit is lifted.
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)

#: The eight check families a verify report carries, in report order.
VERIFY_CHECKS = (
    "row_equality",
    "digit_length",
    "residue_identity",
    "leading_block",
    "lemma1_bound",
    "symmetry",
    "row_sum",
    "weighted_sum_11",
)


def block_width(n: int) -> int:
    """Digits of the central coefficient of row n, theta + 1."""
    return len(str(math.comb(n, n // 2)))


def power_digits(n: int) -> int:
    """Digits of (10**w + 1)**n, the power whose blocks spell row n."""
    return n * block_width(n) + 1


def row_text(n: int) -> str:
    return " ".join(str(math.comb(n, k)) for k in range(n + 1)) + "\n"


def check_row_plain(n: int, out: str) -> str | None:
    if out != row_text(n):
        return _first_difference("row", row_text(n), out)
    return None


def check_row_json(n: int, out: str) -> str | None:
    """`row n --format json`, power method."""
    try:
        got = json.loads(out)
    except ValueError:
        return "row json: not one JSON object"
    want = {
        "n": n,
        "method": "power_partition",
        "coefficients": [str(math.comb(n, k)) for k in range(n + 1)],
    }
    if got != want or out.count("\n") != 1:
        return f"row json: differs from C({n}, k) for k = 0..{n}"
    return None


def check_theta(n: int, out: str) -> str | None:
    width = block_width(n)
    want = f"n={n} central_digits={width} theta={width - 1} base={10**width + 1}\n"
    if out != want:
        return _first_difference("theta", want, out)
    return None


def power_annotated_text(n: int) -> str:
    width = block_width(n)
    digits = str((10**width + 1) ** n)
    stops = range(len(digits), 0, -width)
    blocks = [digits[max(0, stop - width) : stop] for stop in stops]
    return "|".join(reversed(blocks)) + "\n"


def check_power_annotated(n: int, out: str) -> str | None:
    want = power_annotated_text(n)
    if out != want:
        return _first_difference("power --annotate", want, out)
    return None


def verify_report_text(n_from: int, n_to: int) -> str:
    """The JSONL report of a sweep where every check passes.

    It does not depend on the seed: the sampled block counts never
    appear in a passing report.
    """
    lines = []
    for n in range(n_from, n_to + 1):
        record = {
            "n": n,
            "theta": block_width(n) - 1,
            "checks": {name: True for name in VERIFY_CHECKS},
            "failures": [],
        }
        lines.append(json.dumps(record) + "\n")
    return "".join(lines)


def check_verify_report(n_from: int, n_to: int, out: str) -> str | None:
    want = verify_report_text(n_from, n_to)
    if out != want:
        return _first_difference("verify report", want, out)
    return None


def _first_difference(what: str, want: str, got: str) -> str:
    for pos, (a, b) in enumerate(zip(want, got)):
        if a != b:
            break
    else:
        pos = min(len(want), len(got))
    return (
        f"{what}: first difference at byte {pos} "
        f"(expected {len(want)} bytes, got {len(got)})"
    )
