import io
import json
from fractions import Fraction

import pytest

from greedyw2.formats import (
    COMPARE_COLUMNS,
    DUMP_COLUMNS,
    DumpParseError,
    DumpRow,
    REPORT_COLUMNS,
    RunConfig,
    build_dump,
    dump_values,
    read_dump_file,
    read_dump_text,
    star_over_log,
    write_compare,
    write_dump,
    write_report,
)
from greedyw2.numeric import ConfigError

F = Fraction


def kritz_config(**kw):
    base = dict(sequence="kritzinger", seeds=("half",), count=5, backend="rational")
    base.update(kw)
    return RunConfig(**base)


class TestRunConfig:
    def test_accepts_reference_configuration(self):
        kritz_config().validate()

    @pytest.mark.parametrize(
        "kw",
        [
            dict(sequence="sobol"),
            dict(backend="decimal"),
            dict(tie_rule="median"),
            dict(count=0),
            dict(count=2, seeds=("half", "1/4", "3/4")),
            dict(alpha="nan"),
            dict(alpha="-2"),
            dict(alpha="phi-ish"),
            dict(alpha="inf"),
        ],
    )
    def test_rejects_bad_fields(self, kw):
        with pytest.raises(ConfigError):
            kritz_config(**kw).validate()

    @pytest.mark.parametrize("sequence", ["kronecker", "uniform"])
    def test_rational_backend_requires_exact_sequences(self, sequence):
        cfg = RunConfig(sequence=sequence, count=3, backend="rational")
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_seeds_only_for_greedy(self):
        cfg = RunConfig(sequence="vdc", seeds=("half",), count=3)
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_alpha_parses_phi_and_floats(self):
        assert RunConfig(sequence="kronecker", count=1).parsed_alpha == pytest.approx(
            1.618033988749895
        )
        assert RunConfig(sequence="kronecker", count=1, alpha="3.5").parsed_alpha == 3.5

    def test_meta_is_ordered_and_stable(self):
        meta = kritz_config().meta()
        assert list(meta)[:5] == ["artifact", "version", "sequence", "backend", "count"]
        assert meta["seeds"] == "half"


class TestBuildDump:
    def test_greedy_rational_rows(self):
        rows = build_dump(kritz_config())
        assert [r.step for r in rows] == [1, 2, 3, 4, 5]
        assert rows[0].raw_numerator is None and rows[0].reduced == F(1, 2)
        assert (rows[1].raw_numerator, rows[1].raw_denominator) == (1, 4)
        assert rows[1].reduced == F(1, 4)
        assert rows[1].float_value == 0.25

    def test_greedy_float_rows_have_no_seed_reduction(self):
        cfg = RunConfig(
            sequence="kritzinger", seeds=("inv_pi",), count=2, backend="float"
        )
        rows = build_dump(cfg)
        assert rows[0].reduced is None
        assert rows[1].reduced is not None  # chosen points are exact rationals

    def test_vdc_rows(self):
        rows = build_dump(RunConfig(sequence="vdc", count=3, backend="rational"))
        assert [r.reduced for r in rows] == [F(1, 2), F(1, 4), F(3, 4)]
        assert all(r.raw_numerator is None for r in rows)

    def test_uniform_rows_deterministic(self):
        cfg = RunConfig(sequence="uniform", count=4, rng_seed=5)
        assert build_dump(cfg) == build_dump(cfg)

    def test_kronecker_rows_float_only(self):
        rows = build_dump(RunConfig(sequence="kronecker", count=2))
        assert all(r.reduced is None for r in rows)
        assert all(0 < r.float_value < 1 for r in rows)

    def test_dump_values_sorts_by_step(self):
        rows = [
            DumpRow(2, None, None, None, 0.25),
            DumpRow(1, None, None, None, 0.5),
        ]
        assert dump_values(rows) == [0.5, 0.25]


class TestRoundTrip:
    def test_csv(self):
        cfg = kritz_config()
        rows = build_dump(cfg)
        buf = io.StringIO()
        write_dump(buf, cfg.meta(), rows, "csv")
        text = buf.getvalue()
        assert text.startswith("# artifact=greedyw2\n")
        assert ",".join(DUMP_COLUMNS) in text
        meta, parsed = read_dump_text(text)
        assert meta["sequence"] == "kritzinger"
        assert parsed == rows

    def test_json(self):
        cfg = RunConfig(sequence="vdc", count=4, backend="rational")
        rows = build_dump(cfg)
        buf = io.StringIO()
        write_dump(buf, cfg.meta(), rows, "json")
        payload = json.loads(buf.getvalue())
        assert payload["meta"]["sequence"] == "vdc"
        meta, parsed = read_dump_text(buf.getvalue())
        assert parsed == rows

    def test_deterministic_bytes(self):
        cfg = kritz_config(count=9)
        a, b = io.StringIO(), io.StringIO()
        write_dump(a, cfg.meta(), build_dump(cfg), "csv")
        write_dump(b, cfg.meta(), build_dump(cfg), "csv")
        assert a.getvalue() == b.getvalue()

    @pytest.mark.parametrize(
        "write",
        [
            lambda fh: write_dump(fh, {}, [], "yaml"),
            lambda fh: write_report(
                fh, {}, {"n": [], "w2": [], "l2": [], "star": [], "maxh": []}, "yaml"
            ),
            lambda fh: write_compare(fh, {}, [("a", {"n": [], "star": []})], "yaml"),
        ],
        ids=["dump", "report", "compare"],
    )
    def test_unknown_format(self, write):
        buf = io.StringIO()
        with pytest.raises(ConfigError, match="unknown format 'yaml'"):
            write(buf)
        assert buf.getvalue() == ""


class TestDumpParsing:
    HEADER = ",".join(DUMP_COLUMNS)

    def test_error_names_line_for_bad_float(self):
        text = f"{self.HEADER}\n1,,,,0.5\n2,,,,oops\n"
        with pytest.raises(DumpParseError, match="line 3"):
            read_dump_text(text)

    def test_error_on_half_raw_pair(self):
        text = f"{self.HEADER}\n1,7,,7/8,0.875\n"
        with pytest.raises(DumpParseError, match="line 2"):
            read_dump_text(text)

    def test_error_on_wrong_field_count(self):
        text = f"{self.HEADER}\n1,0.5\n"
        with pytest.raises(DumpParseError, match="line 2"):
            read_dump_text(text)

    def test_error_on_missing_header(self):
        with pytest.raises(DumpParseError, match="header"):
            read_dump_text("1,,,,0.5\n")

    def test_error_on_out_of_range_value(self):
        text = f"{self.HEADER}\n1,,,,1.5\n"
        with pytest.raises(DumpParseError, match="line 2"):
            read_dump_text(text)

    def test_error_on_empty_dump(self):
        with pytest.raises(DumpParseError):
            read_dump_text(f"{self.HEADER}\n")

    def test_error_on_empty_json_dump(self):
        with pytest.raises(DumpParseError, match="line 1: dump contains no rows"):
            read_dump_text('{"meta": {}, "rows": []}')

    def test_json_rows_must_be_an_array(self):
        with pytest.raises(DumpParseError, match="'rows' array"):
            read_dump_text('{"meta": {}, "rows": 5}')

    def test_json_error_carries_line(self):
        with pytest.raises(DumpParseError, match="line"):
            read_dump_text('{"meta": {}, "rows": [\n')

    def test_file_reader_prefixes_path(self, tmp_path):
        p = tmp_path / "dump.csv"
        p.write_text(f"{self.HEADER}\n1,,,,bad\n")
        with pytest.raises(DumpParseError, match="dump.csv"):
            read_dump_file(str(p))

    def test_meta_lines_parsed(self):
        text = f"# a=1\n# b=two words\n{self.HEADER}\n1,,,,0.5\n"
        meta, rows = read_dump_text(text)
        assert meta == {"a": "1", "b": "two words"}
        assert rows[0].float_value == 0.5


class TestReportWriters:
    def make_series(self):
        import numpy as np

        return {
            "n": np.array([1, 2]),
            "w2": np.array([1 / 12, 1 / 24]),
            "l2": np.array([1 / 12, 1 / 6]),
            "star": np.array([0.5, 1.0]),
            "maxh": np.array([0.125, 0.25]),
        }

    def test_report_csv_blank_ratio_at_one(self):
        buf = io.StringIO()
        write_report(buf, {"k": "v"}, self.make_series(), "csv")
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# k=v"
        assert lines[1] == ",".join(REPORT_COLUMNS)
        assert lines[2].endswith(",")  # n=1 has no log ratio
        assert not lines[3].endswith(",")

    def test_report_normalized_scale(self):
        buf = io.StringIO()
        write_report(buf, {}, self.make_series(), "csv", star_scale="normalized")
        row2 = buf.getvalue().splitlines()[2].split(",")
        assert float(row2[3]) == 0.5  # star 0.5 at n=1 stays 0.5/1

    def test_report_json_nulls(self):
        buf = io.StringIO()
        write_report(buf, {}, self.make_series(), "json")
        rows = json.loads(buf.getvalue())["rows"]
        assert rows[0]["star_over_log"] is None
        assert rows[1]["star_over_log"] == pytest.approx(1.0 / 0.6931471805599453)

    def test_compare_csv_layout(self):
        buf = io.StringIO()
        write_compare(buf, {}, [("a", self.make_series()), ("b", self.make_series())], "csv")
        lines = buf.getvalue().splitlines()
        assert lines[0] == ",".join(COMPARE_COLUMNS)
        assert lines[1].startswith("a,1,")
        assert lines[3].startswith("b,1,")

    def test_star_over_log_helper(self):
        assert star_over_log(1, 0.5) is None
        assert star_over_log(4, 2.0) == pytest.approx(2.0 / 1.3862943611198906)
