import ast
import contextlib
import io
import re
from pathlib import Path

import greedyw2

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC_NAMES = {
    "__version__",
    "Backend",
    "BackendMismatch",
    "ConfigError",
    "DomainError",
    "GreedyInvariantError",
    "SequenceState",
    "next_point",
    "next_point_via_e",
    "extend",
    "kritzinger_f",
    "enumerate_candidates",
    "e_functional",
    "w2_squared",
    "l2_discrepancy_squared",
    "star_discrepancy",
    "max_abs_H",
    "metric_series",
    "report",
    "step_identity_check",
    "run_suite",
    "SUITES",
}


def test_top_level_names_are_the_documented_api():
    assert len(greedyw2.__all__) == 22
    assert set(greedyw2.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(greedyw2, name)


def test_readme_library_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 4
    raw = ast.literal_eval(lines[0])
    assert [den for _, den in raw] == [2 * k for k in range(1, 10)]
    assert all(num % 2 == 1 for num, _ in raw)
