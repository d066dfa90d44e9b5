#!/usr/bin/env python3
"""Benchmark for the greedyw2 CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With ``--trace 0`` the named workload's
CLI operations run as child processes, one at a time, for about S seconds
(at least one pass); every output is checked for exactness and the
end-to-end metrics are reported.  With ``--trace 1`` the fixed layer tour
in ``tour.py`` times calls into the package's public functions instead and
reports the per-layer metrics.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it and ``.bench_work/results`` hold the
details (environment, per-operation times, check verdicts, spans).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tour  # noqa: E402
from checks import Verdict, VerifiedCache  # noqa: E402
from workloads import (  # noqa: E402
    ROOT, SRC, WORK, WORKLOADS, Launcher, uniform_values, write_uniform_dump,
)

# Set-up samples: a few before the first pass and some after every pass, so
# their median spans the whole run and does not rest on one stretch of
# machine speed.  On a shared 2-core host that speed moves between states
# about 1.35x apart that last 10 to 40 seconds; for the same reason
# ``wall_s`` is the mean pass time of the run, which weighs the states by
# their share of it, where a median of a few passes jumps between them.
SETUP_LEAD = 3
SETUP_PER_PASS = 2
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def environment() -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "cpu_count": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree; read without git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def setup_samples(launch: Launcher, run_dir: str, count: int) -> list[float]:
    """Wall times of ``greedyw2 --version``: interpreter start, imports and
    parser build."""
    out = []
    for _ in range(count):
        res = launch.cli(["--version"], run_dir)
        if res.returncode != 0:
            raise RuntimeError(f"greedyw2 --version exited {res.returncode}: {res.stderr}")
        out.append(res.wall_s)
    return out


def measure(launch: Launcher, workload: str, seed: int, seconds: int) -> dict:
    """Untraced run: set-up probes, then passes over the workload's ops."""
    ops = WORKLOADS[workload]
    run_dir = os.path.join(WORK, f"run-{workload}-{seed}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        for name in sorted({i for op in ops for i in op.inputs}):
            write_uniform_dump(os.path.join(run_dir, name), uniform_values(seed, name), seed)
        launch.cli(["--version"], run_dir)  # fills the bytecode cache; untimed
        setup = setup_samples(launch, run_dir, SETUP_LEAD)
        cache = VerifiedCache()
        passes, records = [], []
        measured = 0.0
        while True:
            wall = 0.0
            for op in ops:
                out_path = os.path.join(run_dir, op.out)
                if os.path.exists(out_path):
                    os.remove(out_path)
                argv = [a.format(dir=run_dir) for a in op.argv]
                res = launch.cli(argv, run_dir)
                if res.returncode != 0:
                    verdict = Verdict(False, f"exit {res.returncode}: {res.stderr[-500:]}")
                else:
                    verdict = cache.check(op.name, run_dir, op.inputs, op.out)
                wall += res.wall_s
                records.append({"op": op.name, "points": op.points, "wall_s": res.wall_s,
                                "cpu_s": res.cpu_s, "maxrss_mb": res.maxrss_mb, "ok": verdict.ok,
                                "detail": verdict.detail, "first_bad_step": verdict.first_bad_step})
            passes.append(wall)
            measured += wall
            setup += setup_samples(launch, run_dir, SETUP_PER_PASS)
            if measured + wall > seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.fmean(passes),
        "peak_rss_mb": max(r["maxrss_mb"] for r in records),
    }
    return {
        "attempted": len(records),
        "failed": sum(not r["ok"] for r in records),
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
        "setup_samples_s": setup,
        "ops": records,
    }


def summary_lines(workload: str, result: dict) -> list[str]:
    lines = []
    for r in result.get("ops", []):
        status = "ok" if r["ok"] else "FAIL"
        if r["first_bad_step"] is not None:
            status += f" first_bad_step={r['first_bad_step']}"
        rate = f", {r['points'] / r['wall_s']:.1f} points/s" if r["points"] else ""
        lines.append(f"# {workload} {r['op']}: {r['wall_s']:.3f} s{rate}, {status}: {r['detail']}")
    for r in result.get("checks", []):
        lines.append(f"# tour {r['op']}: {'ok' if r['ok'] else 'FAIL'}: {r['detail']}")
    lines.append(f"# fail_ratio {result['failed']}/{result['attempted']}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run unwinds like an interrupted one, stopping its children.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "greedyw2", "__init__.py")):
        print(f"error: no greedyw2 package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    env = environment()
    t0 = time.perf_counter()
    with Launcher() as launch:
        if args.trace:
            result = tour.run(launch, args.seed)
        else:
            result = measure(launch, args.workload, args.seed, args.seconds)
    env["loadavg_end"] = os.getloadavg()
    env["bench_elapsed_s"] = time.perf_counter() - t0
    out_dir = os.path.join(WORK, "results")
    os.makedirs(out_dir, exist_ok=True)
    side = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(side, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "environment": env, **result},
                  fh, indent=1)
    for line in summary_lines(args.workload, result):
        print(line)
    print(f"# environment {json.dumps(env)}")
    final = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
