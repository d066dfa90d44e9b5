import hashlib
import json
import sys

import pytest

from greedyw2 import cli
from greedyw2.cli import main
from greedyw2.verify import CheckResult, SuiteReport


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_float_dump_rows(self, capsys):
        code, out, err = run(
            capsys,
            "generate",
            "--sequence",
            "kritzinger",
            "--seeds",
            "half",
            "--count",
            "4",
        )
        assert code == 0 and err == ""
        lines = out.splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert data[0] == "step,raw_numerator,raw_denominator,reduced,float_value"
        assert data[1] == "1,,,,0.5"  # float-backend seed: no exact form
        assert data[2] == "2,1,4,1/4,0.25"
        assert data[4] == "4,1,8,1/8,0.125"

    def test_rational_dump_rows(self, capsys):
        code, out, _ = run(
            capsys,
            "generate",
            "--sequence",
            "kritzinger",
            "--seeds",
            "half",
            "--count",
            "2",
            "--backend",
            "rational",
        )
        assert code == 0
        data = [l for l in out.splitlines() if not l.startswith("#")]
        assert data[2] == "2,1,4,1/4,0.25"

    def test_meta_header_lines(self, capsys):
        _, out, _ = run(
            capsys, "generate", "--sequence", "vdc", "--count", "3"
        )
        assert "# artifact=greedyw2" in out
        assert "# sequence=vdc" in out

    def test_byte_determinism(self, capsys):
        argv = ["generate", "--sequence", "uniform", "--count", "6", "--rng-seed", "3"]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "dump.csv"
        code, out, _ = run(
            capsys,
            "generate",
            "--sequence",
            "vdc",
            "--count",
            "2",
            "--out",
            str(target),
        )
        assert code == 0 and out == ""
        assert "1/2" in target.read_text()

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "generate", "--sequence", "vdc", "--count", "2", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"][0]["float_value"] == 0.5

    def test_missing_count_is_config_error(self, capsys):
        code, _, err = run(capsys, "generate", "--sequence", "vdc")
        assert code == 2
        assert err.startswith("error:")

    def test_kronecker_rational_rejected(self, capsys):
        code, _, err = run(
            capsys,
            "generate",
            "--sequence",
            "kronecker",
            "--count",
            "3",
            "--backend",
            "rational",
        )
        assert code == 2 and "rational" in err

    def test_bad_seed_rejected(self, capsys):
        code, _, err = run(
            capsys,
            "generate",
            "--sequence",
            "kritzinger",
            "--seeds",
            "2/1",
            "--count",
            "3",
        )
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize("alpha", ["inf", "1e308"])
    def test_unusable_kronecker_alpha_rejected(self, capsys, alpha):
        code, out, err = run(
            capsys, "generate", "--sequence", "kronecker", "--alpha", alpha, "--count", "3"
        )
        assert code == 2 and out == "" and err.startswith("error:")
        assert "alpha" in err

    @pytest.mark.parametrize("generator", ["pcg64", "mt19937"])
    def test_negative_rng_seed_rejected(self, capsys, generator):
        code, out, err = run(
            capsys,
            "generate",
            "--sequence",
            "uniform",
            "--rng-seed",
            "-1",
            "--generator",
            generator,
            "--count",
            "3",
        )
        assert code == 2 and out == "" and err.startswith("error:")


class TestMetrics:
    def test_fresh_run_report(self, capsys):
        code, out, _ = run(
            capsys,
            "metrics",
            "--sequence",
            "kritzinger",
            "--seeds",
            "half",
            "--count",
            "3",
        )
        assert code == 0
        data = [l for l in out.splitlines() if not l.startswith("#")]
        assert data[0] == "n,w2_squared,l2_disc_squared,star_disc,max_abs_H,star_over_log"
        first = data[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == pytest.approx(1 / 12)
        assert first[5] == ""  # no log ratio at n=1

    def test_dump_round_trip(self, capsys, tmp_path):
        dump = tmp_path / "run.csv"
        assert (
            run(
                capsys,
                "generate",
                "--sequence",
                "kritzinger",
                "--seeds",
                "half",
                "--count",
                "5",
                "--out",
                str(dump),
            )[0]
            == 0
        )
        code, via_file, _ = run(capsys, "metrics", "--in", str(dump))
        assert code == 0
        code, direct, _ = run(
            capsys,
            "metrics",
            "--sequence",
            "kritzinger",
            "--seeds",
            "half",
            "--count",
            "5",
        )
        assert code == 0
        strip = lambda text: [l for l in text.splitlines() if not l.startswith("#")]
        assert strip(via_file) == strip(direct)

    def test_malformed_dump_names_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "step,raw_numerator,raw_denominator,reduced,float_value\n"
            "1,,,,0.5\n"
            "2,,,,bogus\n"
        )
        code, _, err = run(capsys, "metrics", "--in", str(bad))
        assert code == 2
        assert "line 3" in err

    def test_dump_with_byte_order_mark(self, capsys, tmp_path):
        text = "# a=1\nstep,raw_numerator,raw_denominator,reduced,float_value\n1,,,,0.5\n2,,,,0.25\n"
        (tmp_path / "bom.csv").write_text("\ufeff" + text, encoding="utf-8")
        (tmp_path / "plain.csv").write_text(text, encoding="utf-8")
        code, with_bom, err = run(capsys, "metrics", "--in", str(tmp_path / "bom.csv"))
        assert code == 0 and err == ""
        assert "# a=1\n" in with_bom
        plain = run(capsys, "metrics", "--in", str(tmp_path / "plain.csv"))[1]
        assert with_bom == plain.replace("plain.csv", "bom.csv")

    def test_dump_that_is_not_utf8_names_file(self, capsys, tmp_path):
        bad = tmp_path / "latin.csv"
        bad.write_bytes(b"\xffstep,raw_numerator,raw_denominator,reduced,float_value\n1,,,,0.5\n")
        code, out, err = run(capsys, "metrics", "--in", str(bad))
        assert code == 2 and out == "" and err.startswith("error:")
        assert str(bad) in err and "utf-8" in err

    @pytest.mark.parametrize(
        "row", ["1_0,,,,0.5", "١,,,,0.5", "2,,,,٠.٥", "2,,,١/٢,0.5", "2,,, 1/2,0.5", "2,\t1,2,,0.5"]
    )
    def test_dump_number_text_outside_the_grammar(self, capsys, tmp_path, row):
        bad = tmp_path / "loose.csv"
        bad.write_text(f"step,raw_numerator,raw_denominator,reduced,float_value\n1,,,,0.25\n{row}\n")
        code, out, err = run(capsys, "metrics", "--in", str(bad))
        assert code == 2 and out == "" and "line 3" in err

    def test_json_rows_not_an_array(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"meta": {}, "rows": 5}\n')
        code, out, err = run(capsys, "metrics", "--in", str(bad))
        assert code == 2 and out == "" and err.startswith("error:")

    def test_empty_json_dump_names_file(self, capsys, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text('{"meta": {}, "rows": []}\n')
        code, out, err = run(capsys, "metrics", "--in", str(empty))
        assert code == 2 and out == ""
        assert str(empty) in err and "no rows" in err

    def test_missing_input_and_sequence(self, capsys):
        code, _, err = run(capsys, "metrics")
        assert code == 2 and "--in" in err

    def test_input_and_sequence_together(self, capsys, tmp_path):
        dump = tmp_path / "v.csv"
        argv = ("--sequence", "kritzinger", "--seeds", "half", "--count", "5")
        assert run(capsys, "generate", *argv, "--out", str(dump))[0] == 0
        code, out, err = run(
            capsys, "metrics", "--in", str(dump), "--sequence", "kritzinger", "--count", "100"
        )
        assert code == 2 and out == ""
        assert "--in" in err and "--sequence" in err

    def test_every_stride(self, capsys):
        code, out, _ = run(
            capsys,
            "metrics",
            "--sequence",
            "vdc",
            "--count",
            "10",
            "--every",
            "4",
        )
        assert code == 0
        data = [l for l in out.splitlines() if not l.startswith("#")]
        assert [row.split(",")[0] for row in data[1:]] == ["4", "8", "10"]

    def test_normalized_star_scale(self, capsys):
        _, count_scale, _ = run(
            capsys, "metrics", "--sequence", "vdc", "--count", "4"
        )
        _, normalized, _ = run(
            capsys,
            "metrics",
            "--sequence",
            "vdc",
            "--count",
            "4",
            "--star-scale",
            "normalized",
        )
        pick = lambda text, col: [
            float(l.split(",")[col])
            for l in text.splitlines()
            if l and not l.startswith("#") and not l.startswith("n,")
        ]
        counts = pick(count_scale, 3)
        norms = pick(normalized, 3)
        for n, (c, s) in enumerate(zip(counts, norms), start=1):
            assert s == pytest.approx(c / n)

    def test_nonexistent_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "metrics", "--in", str(tmp_path / "nope.csv"))
        assert code == 2 and err.startswith("error:")


class TestCompare:
    ARGS = (
        "compare",
        "--series",
        "kritzinger:seeds=half",
        "--series",
        "vdc",
        "--series",
        "kronecker",
        "--count",
        "50",
    )

    def test_three_series(self, capsys):
        code, out, _ = run(capsys, *self.ARGS)
        assert code == 0
        data = [l for l in out.splitlines() if not l.startswith("#")]
        assert data[0] == "sequence,n,star_disc,star_over_log"
        labels = {row.split(",")[0] for row in data[1:]}
        assert labels == {"kritzinger", "vdc", "kronecker"}
        assert sum(1 for row in data[1:] if row.startswith("vdc,")) == 50

    def test_byte_determinism(self, capsys):
        _, first, _ = run(capsys, *self.ARGS)
        _, second, _ = run(capsys, *self.ARGS)
        assert first == second

    def test_fewer_than_two_series(self, capsys):
        code, _, err = run(capsys, "compare", "--series", "vdc", "--count", "10")
        assert code == 2 and "two" in err

    def test_duplicate_labels_get_suffix(self, capsys):
        cases = [
            (["uniform:rng_seed=1", "uniform:rng_seed=2"], ["uniform", "uniform-2"]),
            # the suffix skips a label that is already taken
            (["vdc:label=a", "vdc:label=a-2", "vdc:label=a"], ["a", "a-2", "a-3"]),
        ]
        for specs, expected in cases:
            argv = [arg for spec in specs for arg in ("--series", spec)]
            code, out, _ = run(capsys, "compare", *argv, "--count", "5")
            assert code == 0
            data = [l for l in out.splitlines() if l and not l.startswith("#")]
            labels = [row.split(",")[0] for row in data[1:]]
            assert list(dict.fromkeys(labels)) == expected

    def test_explicit_label(self, capsys):
        code, out, _ = run(
            capsys,
            "compare",
            "--series",
            "kritzinger:seeds=half,label=greedy",
            "--series",
            "vdc",
            "--count",
            "5",
        )
        assert code == 0
        assert any(row.startswith("greedy,") for row in out.splitlines())

    def test_bad_series_option(self, capsys):
        code, _, err = run(
            capsys,
            "compare",
            "--series",
            "vdc:flavor=blue",
            "--series",
            "vdc",
            "--count",
            "5",
        )
        assert code == 2 and "flavor" in err

    def test_negative_rng_seed_in_series(self, capsys):
        code, out, err = run(
            capsys,
            "compare",
            "--series",
            "uniform:rng_seed=-5",
            "--series",
            "vdc",
            "--count",
            "5",
        )
        assert code == 2 and out == "" and err.startswith("error:")

    def test_unknown_series_name(self, capsys):
        code, _, err = run(
            capsys, "compare", "--series", "sobol", "--series", "vdc", "--count", "5"
        )
        assert code == 2 and "sobol" in err


class TestNumberText:
    # Number text outside the ASCII grammar: an underscore, another script's
    # digits, a leading space and a tab.  Seeds may carry surrounding spaces,
    # since a seed list is split on commas.
    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--sequence", "kritzinger", "--seeds", "١/٢", "--count", "3"],
            ["generate", "--sequence", "kritzinger", "--seeds", "٠.٥", "--count", "3"],
            ["generate", "--sequence", "kritzinger", "--seeds", "1_0/2_0", "--count", "3"],
            ["generate", "--sequence", "kritzinger", "--seeds", "1/\t2", "--count", "3"],
            ["generate", "--sequence", "kronecker", "--alpha", "1_5", "--count", "3"],
            ["generate", "--sequence", "kronecker", "--alpha", "١", "--count", "3"],
            ["generate", "--sequence", "kronecker", "--alpha", " 1.5", "--count", "3"],
            ["compare", "--series", "uniform:rng_seed=1_0", "--series", "vdc", "--count", "5"],
        ],
    )
    def test_rejected_seed_alpha_and_spec(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--sequence", "vdc", "--count", "٣"],
            ["generate", "--sequence", "vdc", "--count", "1_0"],
            ["generate", "--sequence", "vdc", "--count", " 3"],
            ["generate", "--sequence", "uniform", "--count", "3", "--rng-seed", "1\t"],
            ["metrics", "--sequence", "vdc", "--count", "3", "--every", "١"],
            ["compare", "--series", "vdc", "--series", "kronecker", "--count", "1_0"],
            ["verify", "--suite", "prop2", "--budget", "1_0"],
            ["verify", "--suite", "prop2", "--seed", "٣"],
            ["verify", "--suite", "oracle_equiv", "--grid-resolution", " 9"],
        ],
    )
    def test_rejected_integer_options(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error: argument" in capsys.readouterr().err

    def test_seeds_keep_surrounding_spaces(self, capsys):
        argv = ["generate", "--sequence", "kritzinger", "--count", "4", "--seeds"]
        spaced, plain = run(capsys, *argv, " 1/2 ,\t0.25"), run(capsys, *argv, "1/2,0.25")
        assert spaced == plain and spaced[0] == 0

    @pytest.mark.skipif(
        getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0, reason="int() has no digit limit here"
    )
    @pytest.mark.parametrize("seed", ["1/" + "3" * 5000, "0." + "3" * 5000])
    def test_over_long_seed_literal(self, capsys, seed):
        code, out, err = run(capsys, "generate", "--sequence", "kritzinger", "--seeds", seed, "--count", "3")
        assert code == 2 and out == "" and err.startswith("error:") and "digit limit" in err


class TestVerify:
    def test_single_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "cn_zero", "--budget", "25")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["suites"][0]["suite"] == "cn_zero"
        checks = payload["suites"][0]["checks"]
        assert all(c["passed"] for c in checks)

    def test_out_file(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "verify",
            "--suite",
            "cn_zero",
            "--budget",
            "20",
            "--out",
            str(report),
        )
        assert code == 0 and out == ""
        assert json.loads(report.read_text())["passed"] is True

    def test_failing_suite_exits_one(self, capsys, monkeypatch):
        fake = SuiteReport(
            suite="cn_zero",
            budget=1,
            seed=0,
            checks=[
                CheckResult(name="forced", passed=False, margin=-1.0, detail="forced failure")
            ],
        )
        monkeypatch.setattr(cli, "run_suite", lambda *a, **k: fake)
        code, out, _ = run(capsys, "verify", "--suite", "cn_zero")
        assert code == 1
        assert json.loads(out)["passed"] is False

    def test_prop2_small_budget_runs(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "prop2", "--budget", "33")
        assert code == 0 and err == ""
        assert json.loads(out)["passed"] is True

    def test_budget_with_all_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "--budget", "50")
        assert code == 2 and "--suite" in err

    def test_grid_resolution_without_oracle_suite_rejected(self, capsys):
        code, out, err = run(
            capsys, "verify", "--suite", "prop2", "--grid-resolution", "5", "--budget", "50"
        )
        assert code == 2 and out == ""
        assert "--grid-resolution" in err and "oracle_equiv" in err

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "nonsense"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_grid_resolution_forwarded(self, capsys, monkeypatch):
        seen = {}

        def spy(name, budget=None, seed=0, **kwargs):
            seen.update(kwargs, name=name)
            return SuiteReport(suite=name, budget=1, seed=seed, checks=[])

        monkeypatch.setattr(cli, "run_suite", spy)
        code, _, _ = run(
            capsys,
            "verify",
            "--suite",
            "oracle_equiv",
            "--budget",
            "5",
            "--grid-resolution",
            "1000",
        )
        assert seen["argmin_resolution"] == 1000



_KRITZ_200 = ("--sequence", "kritzinger", "--seeds", "half", "--count", "200")
_COMPARE_DUP = (
    "compare",
    "--series",
    "kritzinger:seeds=half",
    "--series",
    "vdc",
    "--series",
    "vdc",
    "--count",
    "100",
)


class TestGoldenBytes:
    """SHA-256 of small CLI outputs, pinned so that a change to the writers
    cannot alter the bytes unnoticed.  The metadata carries the package
    version, so a version bump changes every digest."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            pytest.param(
                ("generate", *_KRITZ_200),
                "dd9de32082826e375e2d67cc2aabc45c3dc2eb4ad1ae82bd78d546fc655a3d98",
                id="generate-csv",
            ),
            pytest.param(
                ("generate", *_KRITZ_200, "--format", "json"),
                "da29f062cb74bf7d3b267878d656bef9d6e5ff164fbdaf37ba7367a5cbced0fc",
                id="generate-json",
            ),
            pytest.param(
                ("generate", "--sequence", "vdc", "--backend", "rational", "--count", "64",
                 "--format", "json"),
                "ab6363101dc73beea28445436b45a6eb693c43bde8b18377c7f58a1b4195e573",
                id="generate-vdc-rational-json",
            ),
            pytest.param(
                ("metrics", *_KRITZ_200, "--every", "1"),
                "202d38c9f68b987a0a635e77bf7d2bc6638bf475e1d08d0f2a8e32a97b908b69",
                id="metrics-csv",
            ),
            pytest.param(
                ("metrics", *_KRITZ_200, "--every", "1", "--format", "json"),
                "8bca109f5aff2fd80f7c0cbb72b62e1f1e4688e11c4ef0913ee09de23c2d255d",
                id="metrics-json",
            ),
            pytest.param(
                ("metrics", *_KRITZ_200, "--every", "1", "--star-scale", "normalized"),
                "c46a2040e5ed528f2a71e0d8d56c6a9bac60e5d35f1b38facc136f83d2a31b94",
                id="metrics-normalized-csv",
            ),
            pytest.param(
                ("metrics", *_KRITZ_200, "--every", "7"),
                "d0a87ca0f03f447e781f7c229ed5e8a1ea21d80af0e6241294e74cfb5c4e3232",
                id="metrics-every7-csv",
            ),
            pytest.param(
                ("metrics", *_KRITZ_200, "--every", "64", "--format", "json"),
                "df17eb2a4605d71440f23e16dfd0c664fd66094c8264cde62a17c70c5289fc0f",
                id="metrics-every64-json",
            ),
            pytest.param(
                ("metrics", "--sequence", "kritzinger", "--seeds", "half", "--count", "3000",
                 "--every", "1"),
                "3c780e9a56eeaff3b8fc3043a0353d04d9b72c226602e6f9b318f09ccee1c744",
                id="metrics-3000-sliced-csv",
            ),
            pytest.param(
                ("metrics", "--sequence", "uniform", "--rng-seed", "7", "--generator", "pcg64",
                 "--count", "3000", "--every", "1"),
                "1c1d61a2cc9ebdb7fe2e703216e7b55fe0b46eb658f04ae46e0f6bff7413f13f",
                id="metrics-uniform-3000-sliced-csv",
            ),
            pytest.param(
                _COMPARE_DUP,
                "88f73f8da2d1df00894df0a8eb24a62f38ddf0fd1f8ca539991d3eec57ea2e39",
                id="compare-csv",
            ),
            pytest.param(
                (*_COMPARE_DUP, "--format", "json"),
                "3fc62e349959f43adfafe1c1128e79cc49bb26f37134e21bc03987c1256cf5be",
                id="compare-json",
            ),
            pytest.param(
                ("verify", "--suite", "prop2", "--budget", "300"),
                "992084ba4178baf506f635000d0a7980fc497023eb9a80fb0188d82e038fd006",
                id="verify-prop2",
            ),
            pytest.param(
                ("verify", "--suite", "kritzinger_bound", "--budget", "300"),
                "970adb52a3fcedff50167bc08b048e611505730c8f5e62e46946a95668896810",
                id="verify-kritzinger-bound",
            ),
            pytest.param(
                ("verify", "--suite", "oracle_equiv", "--budget", "10"),
                "db585f81dd7a64bbcb26a481f435a73782dbdbb213ad641f4c47d108b20a1256",
                id="verify-oracle-equiv",
            ),
            pytest.param(
                ("verify", "--suite", "oracle_equiv"),
                "00eaf9864d4546d86f258cf2e1ebe198f484b614a6f60cda16b6e09c5616e76f",
                id="verify-oracle-equiv-default",
            ),
            pytest.param(
                ("verify", "--suite", "main_lemma", "--budget", "40"),
                "3919639f8706a139bb6f0485a4d379571dcbd31601988fcaedccc68046ad9992",
                id="verify-main-lemma",
            ),
        ],
    )
    def test_output_digest(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


class TestPortableBytes:
    """Reports must not depend on the BLAS library's kernel or thread count:
    a child pinned to single-threaded Prescott kernels writes the same bytes
    as this process."""

    def test_child_with_other_blas_writes_same_report(self, capsys, tmp_path):
        import os
        import subprocess
        import sys

        import greedyw2

        dump = tmp_path / "uniform.csv"
        generate = ("generate", "--sequence", "uniform", "--count", "20001", "--out", str(dump))
        assert run(capsys, *generate)[0] == 0
        src = os.path.dirname(os.path.dirname(greedyw2.__file__))
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            "OPENBLAS_NUM_THREADS": "1",
            "OPENBLAS_CORETYPE": "Prescott",
        }
        for argv in (
            ("metrics", *_KRITZ_200, "--every", "1"),
            ("metrics", "--in", str(dump), "--every", "10000"),
        ):
            code, here, _ = run(capsys, *argv)
            assert code == 0
            child = subprocess.run(
                [sys.executable, "-m", "greedyw2", *argv],
                capture_output=True,
                text=True,
                env=env,
            )
            assert child.returncode == 0, child.stderr
            assert child.stdout == here


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "greedyw2" in capsys.readouterr().out

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_unknown_choice(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--sequence", "niederreiter", "--count", "4"])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--sequence", "vdc", "--count", "4"],
            ["metrics", "--sequence", "vdc", "--count", "4"],
            ["compare", "--series", "vdc", "--series", "kronecker", "--count", "4"],
        ],
    )
    def test_tolerance_flag_is_gone(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--tolerance", "1e-9"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tolerance" in capsys.readouterr().err

    def test_module_entry_point(self):
        import os
        import subprocess
        import sys

        import greedyw2

        # The child imports the package under test, installed or not.
        src = os.path.dirname(os.path.dirname(greedyw2.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "greedyw2", "--version"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert "greedyw2" in proc.stdout
