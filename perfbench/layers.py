"""Per-layer metrics from the span files of traced requests.

read_spans turns one request's span file into raw totals: keys ending in
``_ns`` are times, every other key is a count that must repeat exactly
when the same argv runs again. per_layer_metrics folds the raw totals of
all traced requests of a run into the metrics BENCHMARK.json names.
"""

from __future__ import annotations

import json
from collections import Counter

NS = 1e-9

# Entry points reported as `<name>.calls` and `<name>.s` (time of the
# outermost call of that name, so recursion is not counted twice).
TIMED = (
    "bignat.mul",
    "bignat.pow",
    "bignat.mul_small",
    "bignat.divmod_small",
    "bignat.add",
    "bignat.split_pow10",
    "bignat.to_decimal",
    "rowgen.theta",
    "rowgen.power_integer",
    "rowgen.partition_blocks",
    "rowgen.residue_partial_sum",
    "rowgen.leading_block_of_residue",
    "rowgen.lemma1_bound_check",
    "oracle.row_multiplicative",
    "oracle.row_recurrence",
    "oracle.binomial",
    "oracle.central_digit_count",
)
MUL_COUNTS = (
    "schoolbook_calls",
    "subquadratic_calls",
    "limbs_in",
    "max_limbs",
    "pow_mul_calls",
)


def read_spans(path) -> dict[str, int]:
    raw: Counter = Counter()
    with open(path) as lines:
        for line in lines:
            record = json.loads(line)
            kind, name = record["kind"], record.get("name")
            if kind == "span":
                raw[f"{name}.calls"] += 1
                if not record["nested"]:
                    length = record["end_ns"] - record["start_ns"]
                    raw[f"{name}.time_ns"] += length
                    raw[f"{name}.self_ns"] += length - record["child_ns"]
                if "failures" in record:
                    raw[f"{name}.failures"] += record["failures"]
            elif kind == "op":
                raw[f"{name}.calls"] += record["calls"]
                raw[f"{name}.time_ns"] += record["time_ns"]
                for key in MUL_COUNTS:
                    if key in record:
                        raw[f"{name}.{key}"] = record[key]
            else:
                raw["exit_code"] = record["exit_code"]
                raw["bignat.mul_counter"] = record["mul_counter"]
                for cache, info in record["caches"].items():
                    raw[f"{cache}.hits"] = info["hits"]
                    raw[f"{cache}.misses"] = info["misses"]
    return dict(raw)


def counts(raw: dict[str, int]) -> dict[str, int]:
    """The part of a request's totals that must repeat exactly."""
    return {key: value for key, value in raw.items() if not key.endswith("_ns")}


def per_layer_metrics(raws: list[dict[str, int]], output_bytes: list[int]) -> dict:
    """Means per traced request, except ratios (pooled) and maxima."""
    total: Counter = Counter()
    for raw in raws:
        total.update(raw)
    requests = len(raws) or 1  # no traced request survived: report zeros

    def mean(key):
        return total[key] / requests

    def ratio(cache):
        hits, misses = total[f"{cache}.hits"], total[f"{cache}.misses"]
        return hits / (hits + misses) if hits + misses else 0.0

    metrics = {}
    for name in TIMED:
        metrics[f"{name}.calls"] = (mean(f"{name}.calls"), "count")
        metrics[f"{name}.s"] = (mean(f"{name}.time_ns") * NS, "s")
    metrics["bignat.mul.schoolbook_calls"] = (mean("bignat.mul.schoolbook_calls"), "count")
    metrics["bignat.mul.subquadratic_calls"] = (mean("bignat.mul.subquadratic_calls"), "count")
    metrics["bignat.mul.limbs_in"] = (mean("bignat.mul.limbs_in"), "limbs")
    # Limbs are int64 once they reach the numpy kernel.
    metrics["bignat.mul.bytes_in"] = (8 * mean("bignat.mul.limbs_in"), "bytes")
    metrics["bignat.mul.max_limbs"] = (max((raw.get("bignat.mul.max_limbs", 0) for raw in raws), default=0), "limbs")
    metrics["bignat.pow.mul_calls"] = (mean("bignat.mul.pow_mul_calls"), "count")
    metrics["bignat.mul_counter"] = (mean("bignat.mul_counter"), "count")
    metrics["rowgen.theta.hit_ratio"] = (ratio("rowgen.theta"), "ratio")
    metrics["rowgen.power_integer.hit_ratio"] = (ratio("rowgen.power_integer"), "ratio")
    metrics["verify_bench.verify_range.self_s"] = (mean("verify_bench.verify_range.self_ns") * NS, "s")
    metrics["verify_bench.verify_range.failures"] = (mean("verify_bench.verify_range.failures"), "count")
    metrics["cli.run_cli.self_s"] = (mean("cli.run_cli.self_ns") * NS, "s")
    metrics["cli.output_bytes"] = (sum(output_bytes) / requests, "bytes")
    return metrics
