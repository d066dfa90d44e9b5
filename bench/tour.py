"""Traced layer tour: per-layer metrics from spans around public calls.

The tour is the same on every workload, so each per-layer metric means one
thing everywhere; only the seed changes its uniform inputs.  Spans are
recorded from the benchmark's side by replacing module attributes of
``greedyw2`` with timing wrappers (the program itself is not edited), kept
in memory, and written out with the run's results.  A span's self time is
its duration minus the durations of its direct children.

Tour, in order:
  1. set-up split: interpreter, numpy import, package import (children);
  2. step probes: ``next_point`` on copies of fixed-size states;
  3. four small CLI operations in-process, untraced then traced, giving
     the formats/greedy/cli spans and the tracing overhead per operation;
  4. ``metric_series`` probes at the prefix_metrics workload's sizes;
  5. ``l2_series_fsum`` at 2000 points and the full ``verify`` operation,
     giving the verify, lemma and oracle spans.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction

from checks import (
    SUITES,
    Verdict,
    guarded,
    check_generate_exact,
    check_generate_float,
    check_metrics_report,
    check_verify,
    reference_numerators,
)
from workloads import STRIDE, WORK, Launcher, uniform_values, write_uniform_dump

SETUP_REPEATS = 7
FLOAT_STEP_NS = (1000, 10_000, 20_000, 100_000)
EXACT_STEP_NS = (1000, 3000)
STEP_REPEATS = 9
COLUMNS = ("w2", "l2", "star", "maxh")
LAYERS = ("cli", "greedy", "formats", "metrics", "verify", "lemma", "oracle")
# Sizes of the uniform dumps read by the tour's two metrics operations.
TOUR_DENSE_ROWS = 5000
TOUR_STRIDED_ROWS, TOUR_STRIDE = 50_000, 5000


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".")[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans plus attribute patches that are undone on ``close``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), name, time.perf_counter(), parent=parent, attrs=attrs)
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, describe=None) -> None:
        """Replace ``module.attr`` by a wrapper that records a span per call;
        ``describe(args, kwargs, result)`` adds attributes to the span."""
        orig = getattr(module, attr)

        def wrapper(*args, **kwargs):
            with self.span(name) as sp:
                result = orig(*args, **kwargs)
            if describe is not None:
                sp.attrs.update(describe(args, kwargs, result))
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, orig))

    def count(self, module, attr: str, counter: str) -> None:
        orig = getattr(module, attr)

        def wrapper(*args, **kwargs):
            self.counts[counter] += 1
            return orig(*args, **kwargs)

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, orig))

    def close(self) -> None:
        for module, attr, orig in reversed(self._patches):
            setattr(module, attr, orig)
        self._patches.clear()

    def self_time(self, span: Span) -> float:
        return span.duration - sum(s.duration for s in self.spans if s.parent == span.id)

    def descendants(self, root: Span) -> list[Span]:
        ids, out = {root.id}, []
        for s in self.spans[root.id + 1:]:
            if s.parent in ids:
                ids.add(s.id)
                out.append(s)
        return out


def install_wrappers(tr: Tracer) -> None:
    from greedyw2 import cli, formats, greedy, lemma, metrics, oracle, verify

    backend = lambda a, k, r: {"backend": a[0].backend.value}  # noqa: E731
    tr.wrap(cli, "build_dump", "formats.build_dump")
    tr.wrap(cli, "write_dump", "formats.write_dump")
    tr.wrap(cli, "read_dump_file", "formats.read_dump_file", lambda a, k, r: {"rows": len(r[1])})
    tr.wrap(cli, "write_report", "formats.write_report")
    tr.wrap(cli, "metric_series", "metrics.metric_series")
    tr.wrap(cli, "run_suite", "verify.run_suite", lambda a, k, r: {"suite": a[0]})
    tr.wrap(formats, "extend", "greedy.extend", backend)
    tr.wrap(greedy, "extend", "greedy.extend", backend)
    tr.count(greedy, "next_point", "greedy.steps")
    tr.wrap(verify, "l2_series_fsum", "verify.l2_series_fsum")
    tr.wrap(metrics, "metric_series", "metrics.metric_series")
    tr.wrap(lemma, "lemma_sweep", "lemma.lemma_sweep", lambda a, k, r: {"trials": r["trials"]})
    for name in ("grid_argmin_w2", "w2_defining_integral", "l2_defining_integral", "grid_max_abs_h"):
        tr.wrap(oracle, name, f"oracle.{name}")


def _median_child(launch: Launcher, args: list[str], cwd: str) -> float:
    walls = []
    for _ in range(SETUP_REPEATS):
        res = launch.run(args, cwd)
        if res.returncode != 0:
            raise RuntimeError(f"python {' '.join(args)} exited {res.returncode}: {res.stderr}")
        walls.append(res.wall_s)
    return statistics.median(walls)


def setup_split(launch: Launcher, cwd: str) -> dict[str, float]:
    launch.run(["-c", "import greedyw2.cli"], cwd)  # fills the bytecode cache; untimed
    interp = _median_child(launch, ["-c", "pass"], cwd)
    numpy = _median_child(launch, ["-c", "import numpy"], cwd)
    package = _median_child(launch, ["-c", "import greedyw2.cli"], cwd)
    return {
        "setup.interp_s": interp,
        "setup.import_numpy_s": numpy - interp,
        "setup.import_greedyw2_s": package - numpy,
    }


def step_probes(tr: Tracer, seed: int) -> dict[str, float]:
    from greedyw2 import Backend, SequenceState, greedy

    out = {}
    values = uniform_values(seed, "U100k.csv")
    states = {f"greedy.float_step_ms.n{n}": SequenceState(values[:n].tolist(), backend=Backend.FLOAT)
              for n in FLOAT_STEP_NS}
    ref = reference_numerators()
    for n in EXACT_STEP_NS:
        prefix = [Fraction(1, 2)] + [Fraction(num, 2 * k) for k, num in enumerate(ref[: n - 1], 2)]
        states[f"greedy.exact_step_ms.n{n}"] = SequenceState(prefix, backend=Backend.RATIONAL)
    for metric, state in states.items():
        times = []
        for _ in range(STEP_REPEATS):
            copy = state.copy()
            with tr.span("greedy.next_point", n=state.n) as sp:
                greedy.next_point(copy)
            times.append(sp.duration * 1e3)
        out[metric] = statistics.median(times)
    return out


def read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def cli_ops(run_dir: str, seed: int) -> list[tuple[str, list[str], str, object]]:
    """The tour's small CLI operations with their output checks."""
    dense = os.path.join(run_dir, "T5k.csv")
    strided = os.path.join(run_dir, "T50k.csv")
    write_uniform_dump(dense, uniform_values(seed, "U10k.csv")[:TOUR_DENSE_ROWS], seed)
    write_uniform_dump(strided, uniform_values(seed, "U100k.csv")[:TOUR_STRIDED_ROWS], seed)

    def path(name):
        return os.path.join(run_dir, name)

    gen = ["generate", "--sequence", "kritzinger", "--seeds", "half"]
    return [
        ("generate_float", [*gen, "--count", "5000", "--out", path("float.csv")], "float.csv",
         lambda: check_generate_float(read(path("float.csv")), count=5000)),
        ("generate_exact", [*gen, "--backend", "rational", "--count", "1000", "--out",
                            path("exact.csv")], "exact.csv",
         lambda: check_generate_exact(read(path("exact.csv")), count=1000)),
        ("metrics_dense", ["metrics", "--in", dense, "--every", "1", "--out", path("dense.csv")],
         "dense.csv", lambda: check_metrics_report(read(dense), read(path("dense.csv")), 1)),
        ("metrics_strided", ["metrics", "--in", strided, "--every", str(TOUR_STRIDE), "--out",
                             path("strided.csv")], "strided.csv",
         lambda: check_metrics_report(read(strided), read(path("strided.csv")), TOUR_STRIDE)),
    ]


def run(launch: Launcher, seed: int) -> dict:
    from greedyw2 import cli, metrics, verify

    run_dir = os.path.join(WORK, f"tour-{seed}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    tr = Tracer()
    verdicts: list[tuple[str, Verdict]] = []
    out: dict[str, float] = {}
    try:
        out.update(setup_split(launch, run_dir))
        ops = cli_ops(run_dir, seed)
        for _, argv, _, _ in ops:  # warm-up, so neither timed pass runs cold
            cli.main(argv)
        untraced = {}
        for name, argv, _, _ in ops:
            t0 = time.perf_counter()
            cli.main(argv)
            untraced[name] = time.perf_counter() - t0
        install_wrappers(tr)
        out.update(step_probes(tr, seed))
        op_spans = {}
        for name, argv, output, check in ops:
            with tr.span(f"cli.{name}") as sp:
                rc = cli.main(argv)
            op_spans[name] = sp
            out[f"trace.overhead_s.{name}"] = sp.duration - untraced[name]
            if rc == 0:
                verdicts.append((name, guarded(check)))
                sp.attrs["bytes"] = os.path.getsize(os.path.join(run_dir, output))
            else:
                verdicts.append((name, Verdict(False, f"exit {rc}")))
                sp.attrs["bytes"] = 0

        def spans_under(op: str, name: str) -> list[Span]:
            return [s for s in tr.descendants(op_spans[op]) if s.name == name]

        def total(op: str, name: str) -> float:
            return sum(s.duration for s in spans_under(op, name))

        out["greedy.extend_s.float"] = total("generate_float", "greedy.extend")
        out["greedy.extend_s.exact"] = total("generate_exact", "greedy.extend")
        out["formats.build_dump_s"] = total("generate_float", "formats.build_dump")
        out["formats.write_dump_s"] = total("generate_float", "formats.write_dump")
        out["formats.dump_bytes"] = op_spans["generate_float"].attrs["bytes"]
        reads = [s for op in ("metrics_dense", "metrics_strided")
                 for s in spans_under(op, "formats.read_dump_file")]
        out["formats.read_dump_s"] = sum(s.duration for s in reads)
        out["formats.read_rows"] = sum(s.attrs["rows"] for s in reads)
        out["formats.write_report_s"] = (total("metrics_dense", "formats.write_report")
                                         + total("metrics_strided", "formats.write_report"))
        out["formats.report_bytes"] = (op_spans["metrics_dense"].attrs["bytes"]
                                       + op_spans["metrics_strided"].attrs["bytes"])

        # 4. metric_series probes at the prefix_metrics workload's sizes.
        dense = uniform_values(seed, "U10k.csv")
        strided = uniform_values(seed, "U100k.csv")
        with tr.span("bench.series_insert_dense") as sp:
            series = metrics.metric_series(dense, metrics=(), every=1)
        insert = sp.duration
        out["metrics.series_insert_s.dense"] = insert
        out["metrics.series_rows"] = len(series["n"])
        with tr.span("bench.series_insert_strided") as sp:
            metrics.metric_series(strided, metrics=(), every=STRIDE)
        out["metrics.series_insert_s.strided"] = sp.duration
        for col in COLUMNS:
            with tr.span(f"bench.series_col_{col}") as sp:
                metrics.metric_series(dense, metrics=(col,), every=1)
            out[f"metrics.series_col_s.{col}"] = sp.duration - insert

        # 5. the second insertion loop, then the verify operation.
        with tr.span("bench.l2_series_fsum") as sp:
            verify.l2_series_fsum(dense[:2000])
        out["verify.l2_series_fsum_s"] = sp.duration
        verify_out = os.path.join(run_dir, "verify.json")
        with tr.span("cli.verify") as sp:
            rc = cli.main(["verify", "--seed", str(seed), "--out", verify_out])
        verdicts.append(("verify", guarded(lambda: check_verify(read(verify_out)))
                         if rc == 0 else Verdict(False, f"exit {rc}")))
        under = tr.descendants(sp)
        for suite in SUITES:
            out[f"verify.suite_s.{suite}"] = sum(
                s.duration for s in under if s.name == "verify.run_suite" and s.attrs["suite"] == suite)
        sweeps = [s for s in under if s.name == "lemma.lemma_sweep"]
        out["lemma.sweep_s"] = sum(s.duration for s in sweeps)
        out["lemma.trials"] = sum(s.attrs["trials"] for s in sweeps)
        for name in ("grid_argmin_w2", "w2_defining_integral"):
            calls = [s.duration * 1e3 for s in under if s.name == f"oracle.{name}"]
            out[f"oracle.{name}_ms"] = statistics.median(calls)
    finally:
        tr.close()
        shutil.rmtree(run_dir, ignore_errors=True)
    out["greedy.steps"] = tr.counts["greedy.steps"]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(tr.self_time(s) for s in tr.spans if s.layer == layer)
    return {
        "attempted": len(verdicts),
        "failed": sum(not v.ok for _, v in verdicts),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in out.items()},
        "checks": [{"op": name, "ok": v.ok, "detail": v.detail} for name, v in verdicts],
        "spans": [{"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                   "parent": s.parent, **s.attrs} for s in tr.spans],
    }


def unit_of(name: str) -> str:
    for token in name.split("."):
        for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_bytes", "bytes")):
            if token.endswith(suffix):
                return unit
    return "count"
