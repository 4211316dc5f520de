"""The slipchan benchmark: end-to-end CLI timings, or a traced per-layer run.

    python3 bench/run.py --workload {spectrum,galerkin,verify} [--seed N]
                         [--seconds S] [--trace 0|1]

Run from a checkout of the repository; the program is taken from ``src``.
Each operation is one ``python -m slipchan.cli`` process, timed from spawn
to exit; one client runs the operations back to back (a closed loop),
cycling through the workload's seeded input sets until at least --seconds
have passed and at least MIN_OPS operations are done.  A fresh interpreter
that only imports ``slipchan.cli`` runs after every second operation to
measure set-up.  Outputs are checked after each operation, outside its
timing.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
operations with operations run under bench/trace_runner.py and reports
per-layer metrics from the recorded spans.  The last line of stdout is one
JSON object; the lines above it are a readable summary.  A full record
(machine, thread settings, invocation, per-operation samples) is written
to .bench_run/BENCH_<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

# the tail is the highest percentile with at least this many operations
# beyond it, so every run makes at least one more operation than this
TAIL_BEYOND = 10
MIN_OPS = 12

END_TO_END_UNITS = {"wall_s": "s", "wall_s_tail": "s", "cpu_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def thread_env() -> dict[str, str]:
    """Child environment: BLAS/OpenMP pinned to one thread, the verify
    suites' pool to at most two workers, so threads never exceed cores."""
    cores = len(os.sched_getaffinity(0))
    return {
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "NUMEXPR_NUM_THREADS": "1",
        "VECLIB_MAXIMUM_THREADS": "1",
        "SLIPCHAN_THREADS": str(max(1, min(2, cores))),
        "PYTHONHASHSEED": "0",
    }


def machine_record() -> dict:
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue

    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "nproc": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "platform": platform.platform(),
    }


class Runner:
    """Spawns, times and reaps the benchmark's child processes."""

    def __init__(self) -> None:
        self.env = dict(os.environ, PYTHONPATH=str(SRC), **thread_env())

    def spawn(self, cmd: list[str], cwd: Path, stdout: Path) -> dict:
        """Run one child to completion; wall time from spawn to exit, CPU
        and peak RSS from wait4."""
        with open(stdout, "wb") as out, open(cwd / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=cwd, stdout=out, stderr=err,
                                    env=self.env)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "rc": proc.returncode,
            "stderr": (cwd / "stderr.txt").read_text(encoding="utf-8", errors="replace"),
        }

    def setup_probe(self, cwd: Path) -> float:
        res = self.spawn([sys.executable, "-c", "import slipchan.cli"], cwd,
                         cwd / "probe.txt")
        if res["rc"] != 0:
            raise RuntimeError(f"importing slipchan.cli failed:\n{res['stderr']}")
        return res["wall_s"]


def prepare(workdir: Path, variant) -> None:
    """Fresh operation directory holding only the variant's input files."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    for name, text in variant.files.items():
        (workdir / name).write_text(text, encoding="utf-8")


def run_checked(runner: Runner, cmd: list[str], workdir: Path, variant,
                failures: list[str]) -> dict:
    res = runner.spawn(cmd, workdir, workdir / "stdout.txt")
    problems = []
    if res["rc"] != 0:
        problems.append(f"exit code {res['rc']}")
    if "Traceback" in res["stderr"]:
        problems.append("traceback on stderr")
    if not problems:
        try:
            problems = variant.check(workdir)
        except (OSError, KeyError, ValueError) as exc:
            problems = [f"output check could not read the output: {exc!r}"]
    res["ok"] = not problems
    if problems:
        failures.append(f"{' '.join(cmd[-8:])}: {'; '.join(problems[:3])}")
    del res["stderr"]
    return res


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    operations beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def paired_order(count: int) -> list[int]:
    """Input sets in pairs from the two ends of their friction range
    (0, n-1, 1, n-2, ...): a run that stops after any pair stays balanced
    between cheap and costly inputs."""
    order = []
    for k in range(count // 2):
        order += [k, count - 1 - k]
    return order + ([count // 2] if count % 2 else [])


def end_to_end(args, runner: Runner, variants, record: dict) -> dict:
    order = paired_order(len(variants))
    ops, setups, failures = [], [], []
    start = time.perf_counter()
    while (time.perf_counter() - start < args.seconds or len(ops) < MIN_OPS
           or len(ops) % 2):
        k = order[len(ops) % len(order)]
        workdir, variant = WORK / f"v{k}", variants[k]
        prepare(workdir, variant)
        cmd = [sys.executable, "-m", "slipchan.cli", *variant.argv]
        ops.append(run_checked(runner, cmd, workdir, variant, failures))
        if len(ops) % 2 == 0:
            setups.append(runner.setup_probe(WORK))
    walls = [op["wall_s"] for op in ops]
    tail_value, tail_pct = tail(walls)
    failed = sum(not op["ok"] for op in ops)
    values = {
        "wall_s": statistics.median(walls),
        "wall_s_tail": tail_value,
        "cpu_s": statistics.median(op["cpu_s"] for op in ops),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in ops),
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    print(f"{len(ops)} operations, {len(setups)} set-up probes, "
          f"{time.perf_counter() - start:.1f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<12} {value:.6g} {unit}")
    print(f"  wall_s_tail is p{tail_pct:.0f} of {len(ops)} operations "
          f"({TAIL_BEYOND} beyond it)")
    print(f"  fail_ratio   {failed}/{len(ops)} = {failed / len(ops):.3g}")
    record.update(operations=ops, setup_samples=setups, failures=failures,
                  wall_s_tail_percentile=tail_pct)
    return {"attempted": len(ops), "failed": failed, "metrics": metrics,
            "failures": failures}


def traced(args, runner: Runner, variants, record: dict) -> dict:
    """Alternate untraced and traced operations, input set by input set,
    until every set has run once and --seconds have passed."""
    order = paired_order(len(variants))
    plain, traced_ops, per_op, failures = [], [], [], []
    start = time.perf_counter()
    done = 0
    while done < len(order) or time.perf_counter() - start < args.seconds:
        k = order[done % len(order)]
        workdir, variant = WORK / f"v{k}", variants[k]
        for use_trace in ((False, True) if done % 2 == 0 else (True, False)):
            prepare(workdir, variant)
            if not use_trace:
                cmd = [sys.executable, "-m", "slipchan.cli", *variant.argv]
                plain.append(run_checked(runner, cmd, workdir, variant, failures))
                continue
            spans_file = WORK / f"spans-v{k}.json"
            cmd = [sys.executable, str(BENCH / "trace_runner.py"),
                   str(spans_file), str(len(traced_ops)), "--", *variant.argv]
            traced_ops.append(run_checked(runner, cmd, workdir, variant, failures))
            if spans_file.exists():
                data = json.loads(spans_file.read_text(encoding="utf-8"))
                per_op.append(spans.layer_metrics(
                    data["spans"], data["facts"], entries_consumed(workdir, variant)))
        done += 1
    ops = plain + traced_ops
    failed = sum(not op["ok"] for op in ops)
    if not per_op:
        return {"attempted": len(ops), "failed": failed, "metrics": {},
                "failures": failures}
    values = spans.median_metrics(per_op)
    plain_wall = statistics.median(op["wall_s"] for op in plain)
    traced_wall = statistics.median(op["wall_s"] for op in traced_ops)
    values["trace.overhead_s"] = traced_wall - plain_wall
    units = spans.per_layer_units()
    metrics = {name: (values[name], unit) for name, unit in units.items()}

    print(f"{len(plain)} untraced and {len(traced_ops)} traced operations, "
          f"{time.perf_counter() - start:.1f} s")
    print(f"  wall {plain_wall:.4g} s untraced, {traced_wall:.4g} s traced")
    main_s = values["cli.main.total_s"]
    print(f"  self-time share of cli.main ({main_s:.4g} s):")
    for layer in spans.LAYERS:
        share = values[f"{layer}.self_s"] / main_s if main_s else 0.0
        if share >= 0.005:
            print(f"    {layer:<32} {100 * share:5.1f}%")
    record.update(operations=ops, traced_metrics=per_op, failures=failures)
    return {"attempted": len(ops), "failed": failed, "metrics": metrics,
            "failures": failures}


def entries_consumed(workdir: Path, variant) -> int:
    """Distinct (friction, value) rows of a staircase: the spectrum entries
    the figure command used.  0 for other commands."""
    if variant.argv[0] != "figure":
        return 0
    lines = (workdir / "stdout.txt").read_text(encoding="utf-8").splitlines()
    return len({tuple(line.split(",")[::2]) for line in lines[1:]})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "slipchan" / "cli.py").is_file():
        print(f"error: no slipchan sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    runner = Runner()
    variants = workloads.WORKLOADS[args.workload](args.seed)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_record(),
        "thread_env": thread_env(),
        "invocation": [sys.executable, "-m", "slipchan.cli"],
        "pythonpath": "src",
        "variants": [v.argv for v in variants],
    }
    print(f"machine {json.dumps(record['machine'], sort_keys=True)}")
    print(f"threads {json.dumps(record['thread_env'], sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {len(variants)} input sets, "
          f"CLI run as `{Path(sys.executable).name} -m slipchan.cli` with PYTHONPATH=src")
    for k, variant in enumerate(variants):
        if variant.note:
            print(f"  input set {k}: {variant.note}")
    runner.setup_probe(WORK)  # warm-up: byte-compiles the package once
    result = (traced if args.trace else end_to_end)(args, runner, variants, record)
    for line in result["failures"][:5]:
        print(f"  FAILED {line}")
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result["metrics"].items()}
    record["metrics"] = metrics
    (WORK / f"BENCH_{args.workload}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": result["failed"] == 0 and bool(metrics),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
