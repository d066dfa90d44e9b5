import hashlib
import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "argv, digest",
    [
        pytest.param(
            ["--seeds", "half", "--count", "50"],
            "8fc46b84065416270ce6314ca273495f2f0d5ec679fc546956a6869fa1cf9833",
            id="seeds-half",
        ),
        pytest.param(
            ["--random-seeds", "3", "--count", "20", "--rng-seed", "5"],
            "00369983b33167e5822c91be834efb51361b82d643624316ac8a20513cc4df46",
            id="random-seeds",
        ),
    ],
)
def test_scatter_data_digest(capsys, argv, digest):
    main = runpy.run_path(str(SCRIPTS / "scatter_data.py"))["main"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
