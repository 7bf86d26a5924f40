"""pascalrow benchmark: the real CLI as a closed loop, every output checked.

    python3 perfbench/run.py --workload big_row --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; it runs the package from
./src and builds nothing. One client sends one request at a time: each
request is a fresh `pascalrow` process (``pascalrow.cli.main``), and the
next starts only after it has exited, so no cache survives between
requests, as for a user who asks for one row. Every output is compared
with an expected output built from math.comb and Python ints
(checker.py).

--trace 0 measures the end-to-end metrics with nothing wrapped.
--trace 1 runs each request three times, once plain and twice under
traced_child.py, and reports the per-layer metrics, the tracing overhead
(traced wall minus plain wall) and fails if any count differs between
the two traced runs.

The last line of stdout is one JSON object: correct, attempted, failed
and the metrics. The lines before it give each metric with its unit and
sample count, and the machine and run set-up. The exit code is 0 only if
every request exited 0 with the right output and the counts repeated.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import layers
import workloads
from spawn import ChildResult, run_child

HERE = Path(__file__).resolve().parent
LAUNCH = "import sys; from pascalrow.cli import main; sys.argv[0] = 'pascalrow'; main()"
SETUP_LAUNCHES = 9
IMPORT_PROBES = 3
# Stop starting work this long after the start, so a run ends within 180 s.
HARD_LIMIT_S = 165.0
# Printed with the metrics but kept out of the result: failed_ratio is 0 on a
# healthy run (the result carries attempted and failed instead), and no
# percentile of big_row or verify_sweep has ten requests beyond it, so a
# tail there would be the slowest of a handful and too noisy to bound.
REPORT_ONLY = ("failed_ratio", "request_s_tail")
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "pascalrow" / "cli.py").is_file():
        print(f"perfbench: no pascalrow source under {src}; run from a checkout", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))

    bench = Bench(args.workload, args.seed, args.seconds, env)
    print(f"# pascalrow benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# setup " + json.dumps(run_setup(root, src, args.seed)))
    if args.trace:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as work:
            metrics = bench.traced(Path(work))
    else:
        metrics = bench.untraced()
    for line in bench.problems:
        print(f"# FAILED {line}")
    metrics["failed_ratio"] = (
        bench.failed / bench.attempted, "ratio", f"{bench.failed} of {bench.attempted} processes"
    )
    for name, (value, unit, note) in metrics.items():
        print(f"# {name} = {value:.6g} {unit} ({note})")
    correct = not bench.problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()
                    if name not in REPORT_ONLY
                },
            }
        )
    )
    return 0 if correct else 1


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, env: dict[str, str]):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.env = env
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def launch(self, argv: list[str], timeout_s: float) -> ChildResult:
        remaining = HARD_LIMIT_S - (time.perf_counter() - self.started)
        return run_child([sys.executable, *argv], self.env, max(1.0, min(timeout_s, remaining)))

    def request(self, request: workloads.Request, traced_spans: Path | None = None) -> tuple[ChildResult, bool]:
        """Run one request and check it; a failure is counted, not raised."""
        if traced_spans is None:
            argv = ["-c", LAUNCH, *request.args]
        else:
            argv = [str(HERE / "traced_child.py"), str(traced_spans), *request.args]
        result = self.launch(argv, workloads.REQUEST_TIMEOUT_S[self.workload])
        self.attempted += 1
        problem = None
        if result.timed_out:
            problem = f"timed out after {result.wall_s:.1f} s"
        elif result.exit_code != 0:
            problem = f"exit code {result.exit_code}: {result.stderr.decode(errors='replace')[-300:]}"
        else:
            try:
                problem = request.check(result.stdout.decode("ascii"))
            except UnicodeDecodeError:
                problem = "output is not ASCII"
        if problem is not None:
            self.fail(f"pascalrow {' '.join(request.args)}: {problem}")
        return result, problem is None

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def loop(self, units, run_unit) -> None:
        """Run whole units of work while the next is expected to end within --seconds."""
        began = time.perf_counter()
        for done, unit in enumerate(units, 1):
            run_unit(unit)
            now = time.perf_counter()
            expected = (now - began) / done
            if now - began + expected > self.seconds or now - self.started + expected > HARD_LIMIT_S:
                return

    def untraced(self) -> dict:
        setup = []
        self.request(workloads.theta_request(1))  # fills the page cache
        for _ in range(SETUP_LAUNCHES):
            setup.append(self.request(workloads.theta_request(1))[0].wall_s)

        done: list[tuple[workloads.Request, ChildResult]] = []
        rows = 0

        def run_round(requests):
            nonlocal rows
            for request in requests:
                result, ok = self.request(request)
                print(f"# request {' '.join(request.args)}: wall {result.wall_s:.4f} s, "
                      f"cpu {result.cpu_s:.4f} s, rss {result.maxrss_kb} KB, {'ok' if ok else 'FAILED'}")
                done.append((request, result))
                rows += request.rows if ok else 0

        self.loop(workloads.rounds(self.workload, self.seed), run_round)
        walls = sorted(result.wall_s for _, result in done)
        count = len(walls)
        if count > 10:
            tail, tail_note = walls[-11], f"p{100 * (count - 10) / count:.1f}, 10 of {count} requests beyond it"
        else:
            tail, tail_note = walls[-1], f"slowest of {count} requests; no percentile has 10 beyond it"
        power = [(request.power_digits, result.wall_s) for request, result in done if request.power_digits]
        return {
            "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} `pascalrow theta 1` processes"),
            "request_s_p50": (statistics.median(walls), "s", f"median of {count} requests"),
            "request_s_tail": (tail, "s", tail_note),
            "request_cpu_s_p50": (
                statistics.median(result.cpu_s for _, result in done), "s",
                f"median child user+sys of {count} requests",
            ),
            "peak_rss_mb": (
                max(result.maxrss_kb for _, result in done) / 1024, "MB",
                f"largest child ru_maxrss of {count} requests",
            ),
            "power_digits_per_s": (
                sum(d for d, _ in power) / sum(w for _, w in power), "1/s",
                f"digits of (10**w+1)**n over the wall time of the {len(power)} requests that build it",
            ),
            "rows_verified_per_s": (
                rows / sum(walls), "1/s",
                f"{rows} rows checked over the wall time of {count} requests",
            ),
        }

    def traced(self, work: Path) -> dict:
        probes = [self.import_times() for _ in range(IMPORT_PROBES)]
        raws, output_bytes, overheads = [], [], []
        spans = [work / "first.jsonl", work / "second.jsonl"]

        def run_triple(request):
            plain, _ = self.request(request)
            for path in spans:
                path.unlink(missing_ok=True)
            traced = [self.request(request, path)[0] for path in spans]
            if not all(path.exists() for path in spans):
                self.fail(f"pascalrow {' '.join(request.args)}: traced run wrote no spans")
                return
            first, second = (layers.read_spans(path) for path in spans)
            a, b = layers.counts(first), layers.counts(second)
            differing = sorted(key for key in a.keys() | b.keys() if a.get(key) != b.get(key))
            if differing:
                self.fail(f"pascalrow {' '.join(request.args)}: counts differ between repeats: {differing}")
            raws.append(first)
            output_bytes.append(len(traced[0].stdout))
            overheads.append(traced[0].wall_s - plain.wall_s)

        # A traced unit is one request run three times, not a whole round.
        requests = (request for round_ in workloads.rounds(self.workload, self.seed) for request in round_)
        self.loop(requests, run_triple)
        out = {
            f"import.{module}_s": (
                statistics.median(probe[module] for probe in probes), "s",
                f"median of {len(probes)} `python -X importtime` probes",
            )
            for module in ("numpy", "pascalrow")
        }
        for name, (value, unit) in layers.per_layer_metrics(raws, output_bytes).items():
            out[name] = (value, unit, f"per traced request, {len(raws)} requests")
        out["trace.overhead_s"] = (
            statistics.mean(overheads) if overheads else 0.0, "s",
            f"traced minus plain wall, mean of {len(overheads)} requests",
        )
        out["trace.requests"] = (len(raws), "count", "requests traced twice each")
        return out

    def import_times(self) -> dict[str, float]:
        """Cumulative import time of numpy and pascalrow in a fresh process."""
        result = self.launch(["-X", "importtime", "-c", "import pascalrow"], 60.0)
        self.attempted += 1
        found = {}
        for line in result.stderr.decode(errors="replace").splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in ("numpy", "pascalrow"):
                found.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
        if result.exit_code != 0 or len(found) != 2:
            self.fail(f"import probe: exit code {result.exit_code}, found {sorted(found)}")
            return {"numpy": 0.0, "pascalrow": 0.0}
        return found


def run_setup(root: Path, src: Path, seed: int) -> dict:
    """The machine and run set-up, recorded as found."""
    commit = "none (not a git checkout)"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown (git failed)"
    digest = hashlib.sha256()
    for path in sorted((src / "pascalrow").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "not installed"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "seed": seed,
        **{name: os.environ.get(name) for name in (*THREAD_VARIABLES, "PYTHONDONTWRITEBYTECODE")},
    }


if __name__ == "__main__":
    sys.exit(main())
