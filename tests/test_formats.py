import io
import json
import re
import tracemalloc
from array import array
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greedyw2 import formats
from greedyw2.formats import (
    COMPARE_COLUMNS,
    DUMP_COLUMNS,
    Dump,
    DumpParseError,
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


# Seed literals as the CLI takes them: 'j/q' rationals, the exact decimal
# expansion of a double, and a few values that repeat, including 0 and 1.
seed_texts = st.one_of(
    st.fractions(min_value=0, max_value=1, max_denominator=1000).map(
        lambda f: f"{f.numerator}/{f.denominator}"
    ),
    st.floats(min_value=0.0, max_value=1.0).map(lambda x: format(Decimal(x), "f")),
    st.sampled_from(["0", "1", "1/3", "1/2", "2/3", "half"]),
)


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
        dump = build_dump(kritz_config())
        assert dump.step.tolist() == [1, 2, 3, 4, 5]
        assert dump.raw_numerator[0] is None and dump.reduced[0] == F(1, 2)
        assert (dump.raw_numerator[1], dump.raw_denominator[1]) == (1, 4)
        assert dump.reduced[1] == F(1, 4)
        assert dump.float_value[1] == 0.25

    def test_greedy_float_rows_have_no_seed_reduction(self):
        cfg = RunConfig(
            sequence="kritzinger", seeds=("inv_pi",), count=2, backend="float"
        )
        dump = build_dump(cfg)
        assert dump.reduced[0] is None
        assert dump.reduced[1] is not None  # chosen points are exact rationals

    @given(
        seeds=st.lists(seed_texts, max_size=6),
        extra=st.integers(0, 54),
        backend=st.sampled_from(["rational", "float"]),
        tie_rule=st.sampled_from(["smallest", "largest"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_greedy_raw_columns(self, seeds, extra, backend, tie_rule):
        cfg = kritz_config(
            seeds=tuple(seeds), count=max(1, len(seeds) + extra), backend=backend,
            tie_rule=tie_rule,
        )
        dump = build_dump(cfg)
        assert dump.step.tolist() == list(range(1, cfg.count + 1))
        for i in range(len(seeds)):
            assert dump.raw_numerator[i] is None and dump.raw_denominator[i] is None
        for i in range(len(seeds), cfg.count):
            assert dump.raw_denominator[i] == 2 * dump.step[i]
            assert dump.raw_numerator[i] % 2 == 1
            assert F(dump.raw_numerator[i], dump.raw_denominator[i]) == dump.reduced[i]
            assert dump.float_value[i] == dump.raw_numerator[i] / dump.raw_denominator[i]

    def test_vdc_rows(self):
        dump = build_dump(RunConfig(sequence="vdc", count=3, backend="rational"))
        assert [dump.reduced[i] for i in range(3)] == [F(1, 2), F(1, 4), F(3, 4)]
        assert all(dump.raw_numerator[i] is None for i in range(3))

    def test_uniform_rows_deterministic(self):
        cfg = RunConfig(sequence="uniform", count=4, rng_seed=5)
        assert build_dump(cfg) == build_dump(cfg)

    def test_kronecker_rows_float_only(self):
        dump = build_dump(RunConfig(sequence="kronecker", count=2))
        assert all(dump.reduced[i] is None for i in range(2))
        assert all(0 < v < 1 for v in dump.float_value)

    def test_dump_values_sorts_by_step(self):
        dump = Dump(step=array("q", [2, 1]), float_value=array("d", [0.25, 0.5]))
        assert dump_values(dump).tolist() == [0.5, 0.25]

    def test_dump_values_sort_is_stable(self):
        dump = Dump(step=array("q", [2, 1, 2, 1]), float_value=array("d", [0.1, 0.2, 0.3, 0.4]))
        assert dump_values(dump).tolist() == [0.2, 0.4, 0.1, 0.3]
        ascending = Dump(step=array("q", [1, 1, 2]), float_value=array("d", [0.3, 0.2, 0.1]))
        assert dump_values(ascending).tolist() == [0.3, 0.2, 0.1]


class TestRoundTrip:
    def test_csv(self):
        cfg = kritz_config()
        dump = build_dump(cfg)
        buf = io.StringIO()
        write_dump(buf, cfg.meta(), dump, "csv")
        text = buf.getvalue()
        assert text.startswith("# artifact=greedyw2\n")
        assert ",".join(DUMP_COLUMNS) in text
        meta, parsed = read_dump_text(text)
        assert meta["sequence"] == "kritzinger"
        assert parsed == dump

    def test_json(self):
        cfg = RunConfig(sequence="vdc", count=4, backend="rational")
        dump = build_dump(cfg)
        buf = io.StringIO()
        write_dump(buf, cfg.meta(), dump, "json")
        payload = json.loads(buf.getvalue())
        assert payload["meta"]["sequence"] == "vdc"
        meta, parsed = read_dump_text(buf.getvalue())
        assert parsed == dump

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "cfg",
        [
            kritz_config(seeds=("0", "1", "1/3", "1/3"), count=40),
            kritz_config(seeds=("half", "inv_pi", "0"), count=40, backend="float"),
            RunConfig(sequence="vdc", count=40, backend="rational"),
            RunConfig(sequence="vdc", count=40),
            RunConfig(sequence="kronecker", count=40),
            RunConfig(sequence="uniform", count=40, rng_seed=3),
        ],
        ids=["kritzinger-rational", "kritzinger-float", "vdc-rational", "vdc-float",
             "kronecker", "uniform"],
    )
    def test_every_sequence_and_backend(self, cfg, fmt):
        dump = build_dump(cfg)
        buf = io.StringIO()
        write_dump(buf, cfg.meta(), dump, fmt)
        assert read_dump_text(buf.getvalue()) == (cfg.meta(), dump)

    def test_deterministic_bytes(self):
        cfg = kritz_config(count=9)
        a, b = io.StringIO(), io.StringIO()
        write_dump(a, cfg.meta(), build_dump(cfg), "csv")
        write_dump(b, cfg.meta(), build_dump(cfg), "csv")
        assert a.getvalue() == b.getvalue()

    @pytest.mark.parametrize(
        "write",
        [
            lambda fh: write_dump(fh, {}, Dump(), "yaml"),
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

    @pytest.mark.parametrize(
        "row, message",
        [
            ("2,1,0,,0.25", "line 2: raw denominator 0 is not positive"),
            ("2,-1,-4,,0.25", "line 2: raw denominator -4 is not positive"),
            ("2,1,4,1/2,0.25", "line 2: raw form 1/4 is not the reduced 1/2"),
            ("9223372036854775808,,,,0.5", "line 2: step 9223372036854775808 is outside the int64 range"),
            ("-9223372036854775809,,,,0.5", "line 2: step -9223372036854775809 is outside the int64 range"),
        ],
    )
    def test_rejects_impossible_rows(self, row, message):
        with pytest.raises(DumpParseError, match=f"^{message}$"):
            read_dump_text(f"{self.HEADER}\n{row}\n")

    @pytest.mark.parametrize("cell", ["-1/-2", "1_0/2_1", " 1/ 2"])
    def test_rejects_loose_reduced_cells(self, cell):
        row = f"3,,,{cell},0.5"
        message = f"^line 3: bad reduced fraction {cell!r}$"
        assert formats._parse_block(["1,,,,0.5", row]) is None
        with pytest.raises(DumpParseError, match=message):
            formats._parse_row_cells(row.split(","), 3)
        with pytest.raises(DumpParseError, match=message):
            read_dump_text(f"{self.HEADER}\n1,,,,0.5\n{row}\n")
        rows = [{"step": k, "float_value": 0.5} for k in (1, 2, 3)]
        rows[2]["reduced"] = cell  # a JSON error names the row
        with pytest.raises(DumpParseError, match=message):
            read_dump_text(json.dumps({"rows": rows}))

    # Number text outside the ASCII grammar, each in a column where int()
    # or float() alone would take it: an underscore, another script's
    # digits, a leading space and a tab.
    @pytest.mark.parametrize(
        "row, what, cell",
        [
            ("1_0,,,,0.5", "step", "1_0"),
            ("3,1_0,2_0,,0.5", "raw_numerator", "1_0"),
            ("١,,,,0.5", "step", "١"),
            ("3,,,,٠.٥", "float value", "٠.٥"),
            ("3,,,١/٢,0.5", "reduced fraction", "١/٢"),
            ("3,,, 1/2,0.5", "reduced fraction", " 1/2"),
            ("3,,,, 0.5", "float value", " 0.5"),
            ("3,\t1,2,,0.5", "raw_numerator", "\t1"),
        ],
    )
    def test_rejects_number_text_outside_the_grammar(self, row, what, cell):
        message = f"^line 3: bad {what} {re.escape(repr(cell))}$"
        assert formats._parse_block(["2,,,,0.5", row]) is None
        with pytest.raises(DumpParseError, match=message):
            formats._parse_row_cells(row.split(","), 3)
        with pytest.raises(DumpParseError, match=message):
            read_dump_text(f"{self.HEADER}\n1,,,,0.5\n{row}\n")
        rows = [{"step": k, "float_value": 0.5} for k in (1, 2)]
        rows.append(dict(zip(DUMP_COLUMNS, row.split(","))))  # a JSON error names the row
        with pytest.raises(DumpParseError, match=message):
            read_dump_text(json.dumps({"rows": rows}))

    def test_accepts_int64_steps_and_partial_exact_forms(self):
        text = f"{self.HEADER}\n-9223372036854775808,,,,0\n9223372036854775807,2,4,,0.5\n3,,,1/4,0.25\n"
        _, dump = read_dump_text(text)
        assert dump.step.tolist() == [-(2**63), 2**63 - 1, 3]
        assert (dump.raw_numerator[1], dump.raw_denominator[1], dump.reduced[2]) == (2, 4, F(1, 4))

    def test_file_reader_prefixes_path(self, tmp_path):
        p = tmp_path / "dump.csv"
        p.write_text(f"{self.HEADER}\n1,,,,bad\n")
        with pytest.raises(DumpParseError, match="dump.csv"):
            read_dump_file(str(p))

    def test_meta_lines_parsed(self):
        text = f"# a=1\n# b=two words\n{self.HEADER}\n1,,,,0.5\n"
        meta, dump = read_dump_text(text)
        assert meta == {"a": "1", "b": "two words"}
        assert dump.float_value[0] == 0.5


def read_rows_reference(text):
    """The CSV reader one row at a time: every line through ``_parse_row_cells``."""
    meta, rows, header_seen = {}, [], False
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, sep, value = line[1:].strip().partition("=")
            if sep:
                meta[key.strip()] = value
        elif not header_seen:
            if tuple(line.split(",")) != DUMP_COLUMNS:
                raise DumpParseError(
                    f"line {lineno}: expected header {','.join(DUMP_COLUMNS)!r}, got {line!r}"
                )
            header_seen = True
        else:
            rows.append(formats._parse_row_cells(line.split(","), lineno))
    if not header_seen:
        raise DumpParseError("line 1: no dump header found")
    if not rows:
        raise DumpParseError("line 1: dump contains no rows")
    dump = Dump()
    dump.append(*zip(*rows))
    return meta, dump


@st.composite
def rows_with_values(draw):
    """Mostly valid rows; some have a zero or negative raw denominator, or a
    reduced fraction that disagrees with the raw pair."""
    step = draw(st.integers(-3, 12))
    if draw(st.booleans()):
        return f"{step},,,,{draw(st.floats(0.0, 1.0))!r}"
    den = draw(st.integers(1, 16) | st.sampled_from([0, -2]))
    num = draw(st.integers(0, max(den, 0)))
    exact = F(num, den) if den > 0 else F(1, 3)
    reduced = draw(st.sampled_from(["", f"{exact.numerator}/{exact.denominator}", "1/3"]))
    return f"{step},{num},{den},{reduced},{float(exact)!r}"


dump_lines = st.one_of(
    rows_with_values(),
    rows_with_values(),
    rows_with_values().map(lambda row: f"  {row} "),
    st.sampled_from(["", "   ", "# note", "# k=v", "#x = y "]),
    st.sampled_from([
        ",,,,0.5", "x,,,,0.5", "1.5,,,,0.5", "9223372036854775807,,,,0.5",
        "9223372036854775808,,,,0.5", "-9223372036854775809,,,,0.5",
        "1,3,,,0.5", "1,,4,,0.5", "1,1,0,,0.5", "1,1,-2,,0.5", "1,1,4,1/2,0.25",
        "1,,,1/0,0.5", "1,,,x,0.5", "1,,,3,0.5", "1,x,4,,0.5",
        "1,,,,nan", "1,,,,1.5", "1,,,,-0.25", "1,,,,inf", "1,,,,oops",
        "1,,,0.5", "1,,,,0.5,", "1",
    ]),
)


# Cells for the grammar agreement test: canonical ones, and near misses
# that int() or float() alone would take or that stretch the grammar.
number_cells = st.one_of(
    st.sampled_from([
        "", "0", "-0", "+2", "7", "-3", "9223372036854775808", "1/2", "-1/3", "2/4", "0/1",
        "0.5", ".5", "1.", "5e-05", "+.5E+0", "1e-0005", "1e-400", "nan", "inf", "-inf",
        "1_0", "1_0/2", "0.5_0", "١", "٠.٥", "١/٢", " 1", "1 ", "\t1", "0.\t5",
    ]),
    st.text(alphabet="0123456789+-./eE_ \t١", max_size=6),
)


class TestBlockReader:
    @given(
        before=st.lists(st.sampled_from(["", "# a=1", "  # b = 2"]), max_size=2),
        lines=st.lists(dump_lines, max_size=14),
        newline=st.sampled_from(["\n", "\r\n"]),
        block=st.sampled_from([3, 40]),
    )
    @settings(max_examples=100, deadline=None)
    def test_blocks_agree_with_row_by_row(self, before, lines, newline, block):
        text = newline.join([*before, ",".join(DUMP_COLUMNS), *lines]) + newline
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(formats, "_BLOCK_CHARS", block)
            try:
                expected = read_rows_reference(text)
            except DumpParseError as exc:
                with pytest.raises(DumpParseError) as got:
                    read_dump_text(text)
                assert str(got.value) == str(exc)
            else:
                assert read_dump_text(text) == expected

    @given(
        base=st.sampled_from(["1,,,,0.5", "2,1,4,1/4,0.25", "-3,3,4,,0.75", "4,,,3/8,0.375", "5,0,2,0/1,0"]),
        column=st.integers(0, 4),
        cell=number_cells,
    )
    @settings(max_examples=300, deadline=None)
    def test_block_and_row_paths_accept_the_same_cells(self, base, column, cell):
        cells = base.split(",")
        cells[column] = cell
        block = formats._parse_block([",".join(cells)])
        try:
            step, num, den, reduced, value = formats._parse_row_cells(cells, 1)
        except DumpParseError:
            assert block is None
        else:
            optional = [[] if c is None else [c] for c in (num, den, reduced)]
            assert block is not None and [list(col) for col in block] == [[step], *optional, [value]]

    def test_float_only_dump_reads_in_small_memory(self):
        rows = 20_000
        text = f"# source=test\n{','.join(DUMP_COLUMNS)}\n" + "".join(
            f"{k},,,,{k / (rows + 1)!r}\n" for k in range(1, rows + 1)
        )
        tracemalloc.start()
        try:
            _, dump = read_dump_text(text)
            values = dump_values(dump)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(values) == rows
        assert peak / rows <= 110, f"{peak / rows:.1f} bytes per row"


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
