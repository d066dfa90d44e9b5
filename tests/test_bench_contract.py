"""The library API the benchmark harness in ``bench/`` relies on.

``bench/checks.py`` judges dumps with ``Backend``, ``SequenceState(...,
backend=...)`` and ``next_point``; ``bench/tour.py`` wraps ``cli``,
``formats`` and ``greedy`` attributes and reads ``state.backend.value``.
These tests run that code on small in-process dumps, so a library change
that breaks the harness fails here.
"""

import sys
from pathlib import Path

from greedyw2 import cli, formats, greedy
from greedyw2.formats import RunConfig

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import checks  # noqa: E402
import tour  # noqa: E402


def generate(capsys, *argv):
    assert cli.main(["generate", "--sequence", "kritzinger", "--seeds", "half", *argv]) == 0
    return capsys.readouterr().out


def test_float_dump_passes_the_float_check(capsys):
    verdict = checks.check_generate_float(generate(capsys, "--count", "3000"), 3000)
    assert verdict.ok, verdict.detail


def test_rational_dump_passes_the_exact_check(capsys):
    text = generate(capsys, "--backend", "rational", "--count", "1000")
    verdict = checks.check_generate_exact(text, 1000)
    assert verdict.ok, verdict.detail


def test_tour_wrappers_trace_one_build_dump():
    originals = (cli.build_dump, formats.extend, greedy.extend, greedy.next_point)
    tr = tour.Tracer()
    try:
        tour.install_wrappers(tr)
        config = RunConfig(sequence="kritzinger", seeds=("half",), count=50, backend="rational")
        rows = cli.build_dump(config)
    finally:
        tr.close()
    assert (cli.build_dump, formats.extend, greedy.extend, greedy.next_point) == originals
    assert len(rows) == 50
    build, extend = tr.spans
    assert build.name == "formats.build_dump"
    assert extend.name == "greedy.extend" and extend.parent == build.id
    assert extend.attrs == {"backend": "rational"}
    assert tr.counts["greedy.steps"] == 49
