"""Seeded requests for each workload, grouped in rounds.

A round is the unit the closed loop completes before it looks at the
clock, and every round of a workload has the same shape: big_row draws
one n from each third of its band, small_cli one request of each kind with
the n ranges spread over the kinds. So the statistics of a run do not
depend on where the clock cut it, and runs with different seeds measure
the same mix. The program sees only the argv built here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

import checker

# Power method rows with n in 1780-1840, whose power has 0.95-1.02 M
# digits. Each round draws one n from each third of the band, so every
# request of a run costs about the same and request_s_p50 is a median over
# all of them, not over the few requests of one size. Across the band the
# kernel's base-convolution work varies by under 5%; outside it time is
# jagged in n (the number of base convolutions jumps by half near
# n = 1860, and a row of 2500 took three times a row of 2000).
BIG_ROW_THIRDS = ((1780, 1799), (1800, 1819), (1820, 1840))

# The sweep named in the README and the roadmap.
VERIFY_RANGE = (0, 300)
VERIFY_SAMPLES = 5

# Short requests, a start-up plus up to about 0.5 s of work. In a round the
# three kinds that build the power get one n from each third of the range,
# and so do the other three, so each round asks for about the same number
# of power digits (about 0.3 n**2 each) whatever the seed.
SMALL_N_THIRDS = ((300, 399), (400, 499), (500, 600))
SMALL_POWER_KINDS = ("row_plain", "row_json", "power_annotate")
SMALL_OTHER_KINDS = ("row_mult", "row_rec", "theta")

WORKLOADS = ("big_row", "verify_sweep", "small_cli")

#: Seconds a request may run before it is killed and counted as failed.
REQUEST_TIMEOUT_S = {"big_row": 60.0, "verify_sweep": 60.0, "small_cli": 20.0}


@dataclass(frozen=True)
class Request:
    kind: str
    args: tuple[str, ...]  # the CLI arguments, without the program name
    n: int  # row index, or the top of a verify range
    rows: int  # rows the output carries
    power_digits: int  # digits of the power the request builds, 0 if none

    def check(self, out: str) -> str | None:
        """None when the output is right, else the reason it is not."""
        if self.kind in ("big_row", "row_plain", "row_mult", "row_rec"):
            return checker.check_row_plain(self.n, out)
        if self.kind == "row_json":
            return checker.check_row_json(self.n, out)
        if self.kind == "theta":
            return checker.check_theta(self.n, out)
        if self.kind == "power_annotate":
            return checker.check_power_annotated(self.n, out)
        return checker.check_verify_report(VERIFY_RANGE[0], self.n, out)


def rounds(workload: str, seed: int) -> Iterator[list[Request]]:
    """Endless rounds of requests; the same seed gives the same rounds."""
    rng = random.Random(f"{workload}:{seed}")
    make = {"big_row": _big_row, "verify_sweep": _verify_sweep, "small_cli": _small_cli}[
        workload
    ]
    while True:
        yield make(rng)


def theta_request(n: int) -> Request:
    return Request("theta", ("theta", str(n)), n, rows=0, power_digits=0)


def _big_row(rng: random.Random) -> list[Request]:
    requests = []
    for third in BIG_ROW_THIRDS:
        n = rng.randint(*third)
        requests.append(
            Request("big_row", ("row", str(n)), n, rows=1, power_digits=checker.power_digits(n))
        )
    rng.shuffle(requests)
    return requests


def _verify_sweep(rng: random.Random) -> list[Request]:
    n_from, n_to = VERIFY_RANGE
    args = (
        "verify",
        "--from", str(n_from),
        "--to", str(n_to),
        "--samples", str(VERIFY_SAMPLES),
        "--seed", str(rng.randrange(10**6)),
    )  # fmt: skip
    digits = sum(checker.power_digits(n) for n in range(n_from, n_to + 1))
    return [Request("verify", args, n_to, rows=n_to - n_from + 1, power_digits=digits)]


def _small_cli(rng: random.Random) -> list[Request]:
    requests = []
    for kinds in (SMALL_POWER_KINDS, SMALL_OTHER_KINDS):
        thirds = rng.sample(SMALL_N_THIRDS, len(SMALL_N_THIRDS))
        requests += [_small_request(kind, rng.randint(*third)) for kind, third in zip(kinds, thirds)]
    rng.shuffle(requests)
    return requests


def _small_request(kind: str, n: int) -> Request:
    if kind == "theta":
        return theta_request(n)
    args = {
        "row_plain": ("row", str(n)),
        "row_json": ("row", str(n), "--format", "json"),
        "row_mult": ("row", str(n), "--method", "mult"),
        "row_rec": ("row", str(n), "--method", "rec"),
        "power_annotate": ("power", str(n), "--annotate"),
    }[kind]
    digits = checker.power_digits(n) if kind in SMALL_POWER_KINDS else 0
    return Request(kind, args, n, rows=1, power_digits=digits)
