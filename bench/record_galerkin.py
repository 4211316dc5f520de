"""Record the galerkin workload's final amplitudes for a list of seeds.

    python3 bench/record_galerkin.py SEED [SEED ...]

Runs each seed's manifests through the CLI, checks the output with every
galerkin check except the amplitude one, and adds the final amplitudes to
bench/galerkin_reference.json under the manifest's SHA-256.  Existing
entries are never overwritten: they are the values recorded when the
benchmark was defined, and later versions of the program must reproduce
them to checks.AMPLITUDE_ATOL.
"""

from __future__ import annotations

import csv
import json
import sys

import run
import workloads


def main(seeds: list[int]) -> int:
    path = workloads.GALERKIN_REFERENCE
    recorded = json.loads(path.read_text(encoding="utf-8"))
    runner = run.Runner()
    workdir = run.WORK / "record"
    for seed in seeds:
        manifests = workloads.galerkin_manifests(seed)
        for k, (manifest, variant) in enumerate(zip(manifests, workloads.galerkin(seed))):
            digest = workloads.manifest_digest(manifest)
            if digest in recorded:
                continue
            run.prepare(workdir, variant)
            res = runner.spawn([sys.executable, "-m", "slipchan.cli", *variant.argv],
                               workdir, workdir / "stdout.txt")
            if res["rc"] != 0:
                raise SystemExit(f"seed {seed} set {k}: exit {res['rc']}\n{res['stderr']}")
            # with no recorded amplitudes yet, this runs every other check
            problems = variant.check(workdir)
            if problems:
                raise SystemExit(f"seed {seed} set {k}: {problems}")
            text = (workdir / "out/run_trajectory.csv").read_text(encoding="utf-8")
            last = list(csv.reader(text.splitlines()))[-1]
            size = len(manifest["indices"])
            recorded[digest] = {"seed": seed, "set": k,
                                "final": [float(v) for v in last[1:1 + size]]}
            print(f"seed {seed} set {k}: recorded", flush=True)
    lines = [f"{json.dumps(key)}: {json.dumps(recorded[key], sort_keys=True)}"
             for key in sorted(recorded)]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]]))
