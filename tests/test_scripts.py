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


def test_lemma_ratio_search_digest(capsys):
    main = runpy.run_path(str(SCRIPTS / "lemma_ratio_search.py"))["main"]
    assert main(["--trials", "20", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    digest = "eee0bcabdd68248ad5d7cc5a12a623ef57d41b5e969dbc05bc5da0d2b08cd772"
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["--trials", "3", "--value-bound", "0"], id="value-bound-0"),
        pytest.param(["--trials", "0"], id="trials-0"),
    ],
)
def test_lemma_ratio_search_reports_bad_arguments(capsys, argv):
    main = runpy.run_path(str(SCRIPTS / "lemma_ratio_search.py"))["main"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["--seeds", "2/1", "--count", "5"], id="seed-outside"),
        pytest.param(["--seeds", "x", "--count", "5"], id="seed-unparsed"),
    ],
)
def test_scatter_data_reports_bad_seeds(capsys, argv):
    main = runpy.run_path(str(SCRIPTS / "scatter_data.py"))["main"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_scatter_data_integer_option_error_reads_as_integer(capsys):
    main = runpy.run_path(str(SCRIPTS / "scatter_data.py"))["main"]
    with pytest.raises(SystemExit) as exc:
        main(["--count", "٣"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --count: invalid integer value: '٣'" in err
