"""Workload table, benchmark-written inputs and timed CLI children.

Every operation runs the ``greedyw2`` CLI as ``python -m greedyw2`` in a
child process with ``PYTHONPATH`` pointing at this checkout's ``src``, one
child at a time (closed loop, single client).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

DUMP_HEADER = "step,raw_numerator,raw_denominator,reduced,float_value"
UNIFORM_SIZES = {"U10k.csv": 10_000, "U100k.csv": 100_000}
FLOAT_COUNT = 10_000  # the ROADMAP's end-to-end generate point
STRIDE = 10_000  # --every of the strided metrics operation


@dataclass(frozen=True)
class Op:
    """One CLI invocation; ``{dir}`` is filled in per run."""

    name: str
    argv: tuple[str, ...]
    out: str  # output file name inside the run directory
    inputs: tuple[str, ...] = ()
    points: int = 0  # points the operation emits, for its points/s figure


WORKLOADS: dict[str, tuple[Op, ...]] = {
    "greedy_float": (
        Op("generate_float",
           ("generate", "--sequence", "kritzinger", "--seeds", "half", "--count", str(FLOAT_COUNT),
            "--out", "{dir}/float.csv"),
           "float.csv", points=FLOAT_COUNT),
    ),
    "prefix_metrics": (
        Op("metrics_dense",
           ("metrics", "--in", "{dir}/U10k.csv", "--every", "1", "--out", "{dir}/dense.csv"),
           "dense.csv", ("U10k.csv",)),
        Op("metrics_strided",
           ("metrics", "--in", "{dir}/U100k.csv", "--every", str(STRIDE),
            "--out", "{dir}/strided.csv"),
           "strided.csv", ("U100k.csv",)),
    ),
}


@dataclass(frozen=True)
class ChildResult:
    returncode: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stderr: str


class Launcher:
    """Runs ``python *args`` children, one at a time, through ``launcher.py``
    with this checkout's ``src`` on the path; stops the launcher on exit."""

    def __enter__(self) -> "Launcher":
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launcher.py")], env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.proc.stdin.close()
        else:
            self.proc.terminate()
        self.proc.wait()
        self.proc.stdout.close()

    def run(self, args: list[str], cwd: str) -> ChildResult:
        err_path = os.path.join(cwd, "child.stderr")
        self.proc.stdin.write(json.dumps([[sys.executable, *args], cwd, err_path]) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"the launcher exited with {self.proc.wait()}")
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            return ChildResult(**json.loads(reply), stderr=fh.read())

    def cli(self, args: list[str], cwd: str) -> ChildResult:
        return self.run(["-m", "greedyw2", *args], cwd)


def uniform_values(seed: int, name: str) -> np.ndarray:
    """PCG64 draws for one benchmark-written dump; one stream per file."""
    index = sorted(UNIFORM_SIZES).index(name)
    stream = np.random.SeedSequence(seed).spawn(len(UNIFORM_SIZES))[index]
    return np.random.Generator(np.random.PCG64(stream)).random(UNIFORM_SIZES[name])


def write_uniform_dump(path: str, values: np.ndarray, seed: int) -> None:
    """A dump in the README's CSV layout that the program did not produce."""
    lines = [f"# source=bench uniform seed={seed}", DUMP_HEADER]
    lines.extend(f"{k},,,,{v!r}" for k, v in enumerate(values.tolist(), 1))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
