"""Run the pascalrow CLI once with timing wrappers around its layers.

    python3 perfbench/traced_child.py SPANS.jsonl ARG...

Imports the package (PYTHONPATH must reach it), wraps the public entry
points of bignat, rowgen, oracle, verify_bench and cli from outside, calls
cli.run_cli(ARGS) and, when that returns, writes what it recorded to
SPANS.jsonl and exits with run_cli's code. No program source changes.

Coarse entry points become spans: one record each, with its parent and
the time its direct children covered, so a span's self time is its
length minus that. The scalar BigNat operations run up to a million
times per request, so they are counted and timed in aggregate instead;
their time still counts as child time of the enclosing span.
"""

from __future__ import annotations

import functools
import json
import sys
import time

from pascalrow import bignat, cli, oracle, rowgen, verify_bench

clock = time.perf_counter_ns

SPANS = {
    bignat.BigNat: ("pow",),
    rowgen: (
        "theta",
        "power_integer",
        "partition_blocks",
        "residue_partial_sum",
        "leading_block_of_residue",
        "lemma1_bound_check",
    ),
    oracle: ("row_multiplicative", "row_recurrence", "binomial", "central_digit_count"),
    verify_bench: ("verify_range",),
    cli: ("run_cli",),
}
# Aggregated BigNat operations: attribute name -> metric name.
OPS = {
    "mul_small": "mul_small",
    "divmod_small": "divmod_small",
    "__add__": "add",
    "split_pow10": "split_pow10",
    "to_decimal": "to_decimal",
}
CACHED = ("theta", "power_integer")
DESCRIBE = {
    "verify_bench.verify_range": lambda report: {
        "failures": sum(len(result.failures) for result in report.results)
    },
}


class Recorder:
    def __init__(self):
        self.records: list[dict] = []
        self.opened = 0
        self.stack: list[list] = []  # open spans: [id, start_ns, child_ns]
        self.active: dict[str, int] = {}  # open spans per name
        self.ops: dict[str, list[int]] = {}  # name -> [calls, ns]
        self.mul = dict.fromkeys(
            ("calls", "time_ns", "schoolbook_calls", "subquadratic_calls",
             "limbs_in", "max_limbs", "pow_mul_calls"),
            0,
        )  # fmt: skip

    def span(self, name, fn, describe=None):
        # describe(result) adds counts read off the returned value.
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            frame = [self.opened, clock(), 0]
            self.opened += 1
            self.stack.append(frame)
            nested = self.active.get(name, 0) > 0
            self.active[name] = self.active.get(name, 0) + 1
            attrs = {}
            try:
                result = fn(*args, **kwargs)
                if describe is not None:
                    attrs = describe(result)
                return result
            finally:
                end = clock()
                self.stack.pop()
                self.active[name] -= 1
                if parent is not None:
                    parent[2] += end - frame[1]
                self.records.append(
                    {
                        "kind": "span",
                        "id": frame[0],
                        "parent": None if parent is None else parent[0],
                        "name": name,
                        "start_ns": frame[1],
                        "end_ns": end,
                        "child_ns": frame[2],
                        "nested": nested,
                        **attrs,
                    }
                )

        return _forwarding(wrapper, fn)

    def op(self, name, fn):
        stats = self.ops.setdefault(name, [0, 0])

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stats[0] += 1
                stats[1] += duration
                if self.stack:
                    self.stack[-1][2] += duration

        return _forwarding(wrapper, fn)

    def mul_op(self, fn):
        mul = self.mul

        def wrapper(a, b):
            start = clock()
            try:
                return fn(a, b)
            finally:
                duration = clock() - start
                mul["calls"] += 1
                mul["time_ns"] += duration
                if self.stack:
                    self.stack[-1][2] += duration
                if isinstance(b, bignat.BigNat):
                    la, lb = len(a.limbs), len(b.limbs)
                    if min(la, lb) < bignat.karatsuba_threshold():
                        mul["schoolbook_calls"] += 1
                    else:
                        mul["subquadratic_calls"] += 1
                    mul["limbs_in"] += la + lb
                    mul["max_limbs"] = max(mul["max_limbs"], la, lb)
                if self.active.get("bignat.pow"):
                    mul["pow_mul_calls"] += 1

        return _forwarding(wrapper, fn)

    def write(self, path: str, exit_code: int) -> None:
        caches = {}
        for attr in CACHED:
            info = getattr(rowgen, attr).cache_info()
            caches[f"rowgen.{attr}"] = {"hits": info.hits, "misses": info.misses}
        counter = getattr(bignat, "mul_counter", None)
        with open(path, "w") as out:
            for record in self.records:
                out.write(json.dumps(record) + "\n")
            for name, (calls, ns) in self.ops.items():
                out.write(json.dumps({"kind": "op", "name": name, "calls": calls, "time_ns": ns}) + "\n")
            out.write(json.dumps({"kind": "op", "name": "bignat.mul", **self.mul}) + "\n")
            summary = {
                "kind": "summary",
                "exit_code": exit_code,
                "mul_counter": counter() if counter else 0,
                "caches": caches,
            }
            out.write(json.dumps(summary) + "\n")


def _forwarding(wrapper, fn):
    functools.update_wrapper(wrapper, fn)
    # lru_cache keeps cache_info/cache_clear as methods, which update_wrapper
    # does not copy; rowgen.clear_caches() calls them through the module name.
    for attr in ("cache_info", "cache_clear", "cache_parameters"):
        if hasattr(fn, attr):
            setattr(wrapper, attr, getattr(fn, attr))
    return wrapper


def install(recorder: Recorder) -> None:
    # An entry point a later version of the package drops reads as zero
    # calls instead of failing the run, so the benchmark still runs there.
    for owner, names in SPANS.items():
        prefix = "bignat" if owner is bignat.BigNat else owner.__name__.rsplit(".", 1)[1]
        for attr in names:
            if hasattr(owner, attr):
                name = f"{prefix}.{attr}"
                wrapped = recorder.span(name, getattr(owner, attr), DESCRIBE.get(name))
                setattr(owner, attr, wrapped)
    for attr, name in OPS.items():
        if hasattr(bignat.BigNat, attr):
            setattr(bignat.BigNat, attr, recorder.op(f"bignat.{name}", getattr(bignat.BigNat, attr)))
    bignat.BigNat.__mul__ = recorder.mul_op(bignat.BigNat.__mul__)


def main() -> None:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    install(recorder)
    exit_code = 1
    try:
        exit_code = cli.run_cli(argv)
    finally:
        sys.stdout.flush()
        recorder.write(spans_path, exit_code)
    sys.exit(exit_code)


if __name__ == "__main__":
    main()
