"""Model-file parsing, CLI dispatch, report determinism, bundled contracts."""

import hashlib
import json
import math
from fractions import Fraction
import pathlib
import subprocess
import sys
import time

import pytest

from doublealg.cli import main, run
from doublealg.exact import Chart
from doublealg.model import ModelError, _raw_blocks, parse_model
from doublealg.parsing import MAX_DIGITS, MAX_TOTAL_DEGREE, ParseError, parse_combination, parse_vector_field
from doublealg.report import Report, emit_report
from doublealg.verdicts import CheckItem
from support import CO_JACOBI_MODEL, constants, dense_structure, summed_atoms

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"

SOLVABLE = """
[lie_algebra g]
dim = 2
bracket(e1, e2) = e2

[cobracket d]
algebra = g
delta(e2) = e1 ^ e2
"""


class TestParseModel:
    def test_empty_file_is_a_valid_empty_model(self):
        model = parse_model("")
        assert not model.charts and not model.algebroids

    def test_bialgebra_example_parses(self):
        model = parse_model(SOLVABLE)
        b = model.bialgebras["d"]
        assert constants(b.algebra)[0][1] == (0, 1)
        # delta(e2) = e1 ^ e2 transposes to [e1_d, e2_d]_* = e2_d
        assert b.dual.frames == ("e1_d", "e2_d")
        assert constants(b.dual)[0][1] == (0, 1)

    def test_antisymmetry_schema_error(self):
        bad = "[lie_algebra g]\ndim = 2\nbracket(e1, e1) = e2\n"
        with pytest.raises(ModelError, match="antisymmetry"):
            parse_model(bad)

    def test_unresolved_reference(self):
        bad = "[cobracket d]\nalgebra = nope\n"
        with pytest.raises(ModelError, match="unresolved"):
            parse_model(bad)

    def test_error_carries_line_number(self):
        bad = "[lie_algebra g]\ndim = 2\n\nbracket(e1, e1) = e2\n"
        with pytest.raises(ModelError, match="line 4"):
            parse_model(bad)

    def test_algebroid_with_inline_base(self):
        text = """
[algebroid A]
base = [x]
frame = [e1]
anchor(e1) = x * d/dx
"""
        model = parse_model(text)
        assert model.algebroids["A"].chart.names == ("x",)

    def test_reversed_bracket_order_antisymmetrized(self):
        text = """
[chart M]
coords = []

[algebroid A]
base = M
frame = [e1, e2]
bracket(e2, e1) = e2
"""
        L = parse_model(text).algebroids["A"]
        assert str(dense_structure(L)[0][1][1]) == "-1"

    @pytest.mark.parametrize("call", ["rho()", "sigma(f1, f1)"])
    def test_representation_takes_one_frame_name(self, call):
        text = (MODELS / "line_action_matched.pass").read_text()
        text += f"\n{call} = derivation{{}}\n"
        with pytest.raises(ModelError, match="takes one frame name"):
            parse_model(text)

    def test_duplicate_block_names_rejected(self):
        with pytest.raises(ModelError, match="duplicate"):
            parse_model("[chart M]\ncoords = []\n[chart M]\ncoords = []\n")


def best_seconds(fn, *args):
    """The least of three wall times of `fn(*args)`."""
    times = []
    for _ in range(3):
        started = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - started)
    return min(times)


class TestHostileSizes:
    """Inputs eight times larger take about eight times longer to read: the
    block namer counts per kind, and a frame combination or vector field
    collects each atom's terms once instead of re-sorting a running sum (at
    the quadratic rates these replaced, the ratio exceeds 50)."""

    def test_unnamed_blocks_are_numbered_among_their_kind(self):
        text = "[chart]\n[algebroid]\n[chart M]\n[chart]\n[algebroid]\n[chart]\n"
        names = [block.name for block in _raw_blocks(text)]
        assert names == ["chart_1", "algebroid_1", "M", "chart_3", "algebroid_2", "chart_4"]
        with pytest.raises(ModelError, match="line 2: duplicate block name 'chart_2'"):
            _raw_blocks("[chart chart_2]\n[chart]\n")

    def test_unnamed_blocks_are_named_in_linear_time(self):
        small, large = ("[chart]\n" * n for n in (1000, 8000))
        assert _raw_blocks(large)[-1].name == "chart_8000"
        assert best_seconds(_raw_blocks, large) < 24 * best_seconds(_raw_blocks, small)

    @staticmethod
    def anchor_text(n):
        """n terms c * x^k * d/dx or d/dy, c cycling through -3..3."""
        signed = (
            f"{'-' if k % 7 < 3 else '+'} {abs(k % 7 - 3)} * x^{k // 5} * y^{k % 5} * d/d{'xy'[k % 2]}"
            for k in range(n)
        )
        return " ".join(signed)

    def test_long_anchors_are_read_in_linear_time(self):
        chart = Chart(["x", "y"])
        small, large = self.anchor_text(500), self.anchor_text(4000)
        assert parse_vector_field(small, chart) == summed_atoms(small, chart)
        assert best_seconds(parse_vector_field, large, chart) < 24 * best_seconds(
            parse_vector_field, small, chart
        )
        frames = ("e1", "e2")
        combination = small.replace("d/dx", "e1").replace("d/dy", "e2")
        assert list(parse_combination(combination, chart, frames).values()) == summed_atoms(
            combination, chart, frames
        )

    @pytest.mark.parametrize(
        "text",
        [
            "x * e1 + 1/2 * y * e2 - 1/2 * y * e2 + 3/4 * x * e1 + 1/4 * x * e1",
            "2 * x^2 * e2 - x * e1 + 0 - 2 * x^2 * e2 + 1/3 * e1 + 2/3 * e1",
            "0",
            "e1 - e1",
            "x * e1 + y",
            "x * e1 + e1 * e2",
            "x * e1 + z * e2",
            "x * e1 +",
        ],
    )
    def test_combinations_equal_the_running_sums(self, text):
        chart, frames = Chart(["x", "y"]), ("e1", "e2")
        vector_text = text.replace("e1", "d/dx").replace("e2", "d/dy")
        for parse, oracle, args in (
            (parse_combination, lambda: summed_atoms(text, chart, frames), (text, chart, frames)),
            (parse_vector_field, lambda: summed_atoms(vector_text, chart), (vector_text, chart)),
        ):
            try:
                expected = oracle()
            except ParseError as exc:
                with pytest.raises(ParseError) as caught:
                    parse(*args)
                assert str(caught.value) == str(exc)
                continue
            got = parse(*args)
            assert list(got.values() if isinstance(got, dict) else got) == expected
            assert all(type(c) is int or c.denominator > 1 for p in expected for _, c in p.terms)


class TestRun:
    def test_check_manin_passes_on_solvable(self):
        model = parse_model(SOLVABLE)
        report = run("check", "manin", model, "sha256:x", 7, 2)
        assert report.ok
        assert any(r.check_id == "manin.d.invariance" for r in report.results)

    def test_no_applicable_blocks_fails(self):
        report = run("check", "double", parse_model(""), "sha256:x", 7, 2)
        assert not report.ok

    def test_build_drinfeld_detail_includes_structure(self):
        model = parse_model(SOLVABLE)
        report = run("build", "drinfeld", model, "sha256:x", 7, 2)
        assert report.ok
        entry = next(r for r in report.results if r.check_id == "drinfeld.d")
        assert any("bracket(e1, e2) = e2" in line for line in entry.detail)
        assert any(line.startswith("pairing(") for line in entry.detail)


class TestEmitReport:
    def sample(self):
        return Report(
            command="check manin",
            input_digest="sha256:abc",
            results=(
                CheckItem("a.one", True),
                CheckItem("a.two", False, "witness text", ("detail line",)),
            ),
        )

    def test_empty_report_fixed_header(self):
        report = Report("check manin", "sha256:abc", ())
        text = emit_report(report, "text").decode()
        assert text.startswith("doublealg report\nversion:")
        assert text.rstrip().endswith("summary: pass")

    def test_reemission_is_byte_identical(self):
        report = self.sample()
        assert emit_report(report, "text") == emit_report(report, "text")
        assert emit_report(report, "json") == emit_report(report, "json")

    def test_json_round_trip(self):
        report = self.sample()
        parsed = json.loads(emit_report(report, "json"))
        assert parsed == report.as_dict()
        assert parsed["summary"] == "fail"
        assert parsed["results"][1]["witness"] == "witness text"
        assert parsed["results"][0]["timing"] is None


class TestCliProcess:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "doublealg.cli", *args],
            capture_output=True,
            text=True,
        )

    def test_exit_zero_on_pass(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_text(SOLVABLE)
        proc = self.run_cli("check", "manin", str(path))
        assert proc.returncode == 0
        assert "summary: pass" in proc.stdout

    def test_exit_one_on_fail_with_witness_block(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_text(
            "[lie_algebra h]\ndim = 3\nbracket(e1, e2) = e3\n"
            "[cobracket d]\nalgebra = h\ndelta(e3) = e1 ^ e2\n"
        )
        proc = self.run_cli("check", "manin", str(path))
        assert proc.returncode == 1
        assert "witness" in proc.stdout

    def test_exit_two_on_unknown_verb(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_text(SOLVABLE)
        proc = self.run_cli("frobnicate", "manin", str(path))
        assert proc.returncode == 2

    def test_exit_two_on_unknown_kind(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_text(SOLVABLE)
        proc = self.run_cli("check", "nonsense", str(path))
        assert proc.returncode == 2

    def test_exit_two_on_parse_error(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_text("[lie_algebra g]\ndim = 2\nbracket(e1, e1) = e2\n")
        proc = self.run_cli("check", "manin", str(path))
        assert proc.returncode == 2
        assert "parse error" in proc.stderr

    def test_missing_file_is_usage_error(self):
        proc = self.run_cli("check", "manin", "/nonexistent/path.model")
        assert proc.returncode == 2

    def test_verify_double_alias(self):
        proc = self.run_cli("verify", "double", str(MODELS / "t2m_double.pass"))
        assert proc.returncode == 0

    def test_determinism_across_processes(self):
        target = str(MODELS / "t2m_double.pass")
        first = self.run_cli("check", "double", target, "--format", "json")
        second = self.run_cli("check", "double", target, "--format", "json")
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode == 0

    def test_seed_changes_only_random_instances_not_verdicts(self):
        target = str(MODELS / "t2m_double.pass")
        a = self.run_cli("check", "double", target, "--seed", "1")
        b = self.run_cli("check", "double", target, "--seed", "99")
        assert a.returncode == b.returncode == 0


class TestBundledModels:
    @pytest.mark.parametrize("path", sorted(MODELS.glob("*")), ids=lambda p: p.name)
    def test_suffix_contract(self, path):
        header = path.read_text().splitlines()[0]
        assert header.startswith("# verify: ")
        verb, kind = header[len("# verify: ") :].split()
        proc = subprocess.run(
            [sys.executable, "-m", "doublealg.cli", verb, kind, str(path)],
            capture_output=True,
            text=True,
        )
        expected = 0 if path.suffix == ".pass" else 1
        assert proc.returncode == expected, proc.stdout + proc.stderr


class TestEnvironmentKnobs:
    def test_max_degree_env_var_respected(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_text((MODELS / "t2m_double.pass").read_text())
        import os
        import subprocess
        import sys

        env = dict(os.environ, DOUBLEALG_MAX_DEGREE="0")
        proc = subprocess.run(
            [sys.executable, "-m", "doublealg.cli", "check", "double", str(path)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        env_bad = dict(os.environ, DOUBLEALG_MAX_DEGREE="not-a-number")
        proc = subprocess.run(
            [sys.executable, "-m", "doublealg.cli", "check", "double", str(path)],
            capture_output=True,
            text=True,
            env=env_bad,
        )
        assert proc.returncode == 2

    @pytest.mark.parametrize("value", ["-1", "not-a-number", "\u0662", "\uff13", "1_0", " 3", "+2", ""])
    def test_bad_max_degree_is_a_usage_error(self, value, monkeypatch, capsys):
        """Only ASCII digits: `int` would also read other decimal digits
        (Arabic-Indic two, fullwidth three), `_` and blanks."""
        monkeypatch.setenv("DOUBLEALG_MAX_DEGREE", value)
        code = main(["check", "double", str(MODELS / "t2m_double.pass")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "doublealg: error: DOUBLEALG_MAX_DEGREE must be a non-negative integer\n"
        )


    @pytest.mark.parametrize("value", ["\u0663", "\uff13", "1_0", " 3", "3 ", "+3", "1" * 5000])
    def test_a_seed_in_other_than_ascii_digits_is_a_usage_error(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "bialgebroid", str(MODELS / "tangent_cotangent_pair.pass"), "--seed", value])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert captured.err.startswith("usage: doublealg ")
        assert captured.err.endswith(f"doublealg: error: argument --seed: invalid int value: {value!r}\n")

    def test_negative_and_ascii_seeds_are_read(self, monkeypatch, capsys):
        monkeypatch.delenv("DOUBLEALG_MAX_DEGREE", raising=False)
        model = str(MODELS / "t2m_double_perturbed.fail")
        reports = {}
        for value in ("-3", "3", "03", "-0", "0"):
            assert main(["check", "double", model, "--seed", value]) == 1
            reports[value] = capsys.readouterr().out
        assert reports["03"] == reports["3"] and reports["-0"] == reports["0"]
        # a negative seed draws its own trials, not those of its absolute value
        assert reports["-3"] != reports["3"]

    @pytest.mark.parametrize("value", ["1001", "100000000"])
    def test_max_degree_above_cap_is_a_usage_error(self, value, monkeypatch, capsys):
        monkeypatch.setenv("DOUBLEALG_MAX_DEGREE", value)
        code = main(["check", "bialgebroid", str(MODELS / "tangent_cotangent_pair.pass")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "doublealg: error: DOUBLEALG_MAX_DEGREE must be at most 1000\n"


class TestDualizeDvb:
    def test_repeated_frame_names_are_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "m.model"
        path.write_text("[dvb D]\nbase = [x]\nframes_A = [a]\nframes_B = [a]\nframes_C = [c]\n")
        code = main(["dualize", "dvb", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "side and core frame names must be distinct" in captured.err

    # sha256 of the text and JSON reports, recorded while `dualize dvb` still
    # computed the rank of the pairing; the shapes are the edges of the
    # split form, next to the bundled `dvb_shape.pass`
    EDGE_SHAPES = {
        "no_a": (
            "[dvb D]\nbase = [x]\nranks = {A: 0, B: 2, C: 1}\n",
            "b7845ee54d9f3a2e8e864603fed5d7aed3558d758f1c036dea2c4de050333e80",
            "56f31ed872d0d25c5f7d4c27bc31351020a735c7aa140e273978fe0cbbaa9e5a",
        ),
        "no_b": (
            "[dvb D]\nbase = [x]\nranks = {A: 2, B: 0, C: 1}\n",
            "f0af4eaecf6c27cbb355012f9a154807d0f020d2fdd9a9bae3c029928edab7da",
            "1a3f488a2849388c85b2bf9c6dcc342fbe08ff39c629fc73e12d156b7f5962ad",
        ),
        "no_core": (
            "[dvb D]\nbase = [x, y]\nranks = {A: 2, B: 1, C: 0}\n",
            "5928600ebd7ceca0ccaf9d9ba5f20136957cd9965d1aa29243557e42fcfea141",
            "aa7d55169ca8795cc90290e18df78cf766b523cf974e6eff1f1e8cbdf5600803",
        ),
        "all_zero": (
            "[dvb D]\nbase = [x]\nranks = {A: 0, B: 0, C: 0}\n",
            "85db0e7ac46fb6b6018d393f896342430f7bd2d2cfb3d56cc741c5107c713d64",
            "aeb4096f04d8f59c744a82f2c71a3ff659360153c322d80d1ab80c7717a5a520",
        ),
        "point_base": (
            "[dvb D]\nbase = []\nranks = {A: 1, B: 1, C: 1}\n",
            "6f74672f0b4168781ecd3b223a5a59f16f927f29f641bb20650088a9b80848ae",
            "796f83a5a55bc49b0eb9d60254e5db03569299713ab45c160d64951dd628fb08",
        ),
        "dvb_shape.pass": (
            (MODELS / "dvb_shape.pass").read_text(),
            "060e78b38a42acbed387a09467f834b8fa37524a409d6767968b47506b5d0a50",
            "f8b013903bbd18654b87b71858887a1c5a16f6102bc1f2e898ef8c0fe47cfe9a",
        ),
    }

    @pytest.mark.parametrize("shape", sorted(EDGE_SHAPES))
    def test_edge_shapes_keep_their_report_bytes(self, shape, tmp_path, capsysbinary):
        text, *digests = self.EDGE_SHAPES[shape]
        path = tmp_path / "m.model"
        path.write_text(text)
        for fmt, expected in zip(("text", "json"), digests):
            assert main(["dualize", "dvb", str(path), "--format", fmt]) == 0
            captured = capsysbinary.readouterr()
            assert captured.err == b""
            assert hashlib.sha256(captured.out).hexdigest() == expected, fmt


class TestVerbCoverage:
    """Every CLI verb runs end to end against a suitable bundled model."""

    CASES = [
        ("check", "algebroid", "tangent_cotangent_pair.pass", 0),
        ("check", "bialgebroid", "tangent_cotangent_pair.pass", 0),
        ("check", "matched", "line_action_matched.pass", 0),
        ("check", "manin", "solvable2_bialgebra.pass", 0),
        ("check", "double", "t2m_double.pass", 0),
        ("verify", "double", "t2m_double.pass", 0),
        ("build", "drinfeld", "solvable2_bialgebra.pass", 0),
        ("build", "drinfeld", "heisenberg_noncocycle.fail", 1),
        ("build", "bowtie", "coadjoint_solvable2.pass", 0),
        ("build", "double", "coadjoint_solvable2.pass", 0),
        ("build", "vacant", "line_action_matched.pass", 0),
        ("build", "vacant", "line_action_broken.fail", 1),
        ("build", "cotangent-double", "tangent_cotangent_pair.pass", 0),
        ("build", "cotangent-double", "so3_wrong_dual.fail", 1),
        ("build", "semidirects", "line_action_matched.pass", 0),
        ("extract", "matched", "vacant_line_action.pass", 0),
        ("extract", "matched", "t2m_double.pass", 1),
        ("dualize", "dvb", "dvb_shape.pass", 0),
    ]

    @pytest.mark.parametrize("verb,kind,model,expected", CASES)
    def test_verb(self, verb, kind, model, expected):
        proc = subprocess.run(
            [sys.executable, "-m", "doublealg.cli", verb, kind, str(MODELS / model)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == expected, proc.stdout + proc.stderr


class TestHostileNumbers:
    """Numbers a model file cannot mean end with exit 2 and a parse error."""

    def run_model(self, tmp_path, capsys, verb, kind, text):
        path = tmp_path / "m.model"
        path.write_text(text)
        code = main([verb, kind, str(path)])
        captured = capsys.readouterr()
        assert captured.out == ""
        return code, captured.err

    def test_zero_denominator_is_a_parse_error(self, tmp_path, capsys):
        text = (MODELS / "t2m_double.pass").read_text()
        text = text.replace("anchor(b1) = d/dx", "anchor(b1) = 1/0 * d/dx")
        code, err = self.run_model(tmp_path, capsys, "check", "double", text)
        assert code == 2
        assert err == "doublealg: parse error: line 11: zero denominator (at column 3)\n"

    def test_negative_rank_is_a_parse_error(self, tmp_path, capsys):
        text = "[dvb D]\nbase = [x]\nranks = {A: -3, B: 1, C: 1}\n"
        code, err = self.run_model(tmp_path, capsys, "dualize", "dvb", text)
        assert code == 2
        assert err == "doublealg: parse error: line 3: ranks[A] must be between 0 and 64, got -3\n"

    def test_non_integer_rank_is_a_parse_error(self, tmp_path, capsys):
        text = "[dvb D]\nbase = [x]\nranks = {A: x, B: 1, C: 1}\n"
        code, err = self.run_model(tmp_path, capsys, "dualize", "dvb", text)
        assert code == 2
        assert err == "doublealg: parse error: line 3: ranks[A] must be an integer, got 'x'\n"

    def test_huge_dim_is_a_parse_error(self, tmp_path, capsys):
        text = "[lie_algebra g]\ndim = 99999999\n"
        code, err = self.run_model(tmp_path, capsys, "check", "manin", text)
        assert code == 2
        assert err == "doublealg: parse error: line 2: dim must be between 0 and 64, got 99999999\n"

    @pytest.mark.parametrize(
        "value, char",
        [("٣ * x * d/dx", "٣"), ("３/２ * d/dx", "３")],
        ids=["arabic_indic", "fullwidth"],
    )
    def test_non_ascii_digit_in_a_value_is_a_parse_error(self, tmp_path, capsys, value, char):
        """An Arabic-Indic or fullwidth digit is no number, though `int` reads it."""
        text = (MODELS / "t2m_double.pass").read_text()
        text = text.replace("anchor(b1) = d/dx", f"anchor(b1) = {value}")
        code, err = self.run_model(tmp_path, capsys, "check", "double", text)
        assert code == 2
        assert err == f"doublealg: parse error: line 11: unexpected character {char!r} (at column 1)\n"

    @pytest.mark.parametrize(
        "value, column",
        [("x @ d/dx", 3), ("x \t  @ d/dx", 6), ("@", 1)],
        ids=["one_blank", "blanks_and_tab", "first"],
    )
    def test_a_stray_character_is_named_with_its_column(self, tmp_path, capsys, value, column):
        """The error names the bad character and its column, not the blank
        before it."""
        text = f"[chart M]\ncoords = [x]\n[algebroid A]\nbase = M\nframe = [e1]\nanchor(e1) = {value}\n"
        code, err = self.run_model(tmp_path, capsys, "check", "algebroid", text)
        assert code == 2
        assert err == f"doublealg: parse error: line 6: unexpected character '@' (at column {column})\n"

    @pytest.mark.parametrize(
        "verb, kind, text, line, label",
        [
            ("check", "manin", "[lie_algebra g]\ndim = {}\n", 2, "dim"),
            ("dualize", "dvb", "[dvb D]\nbase = [x]\nranks = {{A: 1, B: {}, C: 1}}\n", 3, "ranks[B]"),
        ],
        ids=["dim", "ranks"],
    )
    @pytest.mark.parametrize(
        "literal", ["٢", "２", "1_0", "+2"], ids=["arabic_indic", "fullwidth", "underscore", "plus"]
    )
    def test_count_not_in_ascii_digits_is_a_parse_error(
        self, tmp_path, capsys, verb, kind, text, line, label, literal
    ):
        """A count is `-?[0-9]+`, though `int` also reads these."""
        code, err = self.run_model(tmp_path, capsys, verb, kind, text.format(literal))
        assert code == 2
        assert err == f"doublealg: parse error: line {line}: {label} must be an integer, got {literal!r}\n"

    def test_repeated_basis_name_is_a_parse_error(self, tmp_path, capsys):
        text = "[lie_algebra g]\ndim = 2\nbasis = [a, a]\n"
        code, err = self.run_model(tmp_path, capsys, "check", "manin", text)
        assert code == 2
        assert err == (
            "doublealg: parse error: line 1: in [lie_algebra g]: "
            "basis names must be distinct and match dim\n"
        )

    @pytest.fixture
    def default_digit_limit(self):
        """Python's default 4300-digit limit on int <-> str conversion."""
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        yield
        sys.set_int_max_str_digits(before)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_oversized_literal_is_a_parse_error(self, tmp_path, capsys, default_digit_limit, fmt):
        text = (MODELS / "tangent_cotangent_pair.pass").read_text()
        text = text.replace("bracket(w1, w2) = w1", f"bracket(w1, w2) = {'1' * 5000} * w1")
        path = tmp_path / "m.model"
        path.write_text(text)
        code = main(["check", "bialgebroid", str(path), "--format", fmt])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("doublealg: parse error: line 14: in [algebroid Tstar]: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "value, column",
        [("x @ d/dx", 3), ("x \t  @ d/dx", 6), ("@", 1)],
        ids=["one_blank", "blanks_and_tab", "first"],
    )
    def test_a_stray_character_is_named_with_its_column(self, tmp_path, capsys, value, column):
        """The error names the bad character and its column, not the blank
        before it."""
        text = f"[chart M]\ncoords = [x]\n[algebroid A]\nbase = M\nframe = [e1]\nanchor(e1) = {value}\n"
        code, err = self.run_model(tmp_path, capsys, "check", "algebroid", text)
        assert code == 2
        assert err == f"doublealg: parse error: line 6: unexpected character '@' (at column {column})\n"

    @pytest.mark.parametrize(
        "verb, kind, text, line, label",
        [
            ("check", "manin", "[lie_algebra g]\ndim = {}\n", 2, "dim"),
            (
                "dualize",
                "dvb",
                "[dvb D]\nbase = [x]\nranks = {{A: 1, B: {}, C: 1}}\n",
                3,
                "ranks[B]",
            ),
        ],
    )
    def test_count_past_the_digit_limit_is_out_of_range(
        self, tmp_path, capsys, default_digit_limit, verb, kind, text, line, label
    ):
        """A count too long for `int` is out of range, named by its length."""
        code, err = self.run_model(tmp_path, capsys, verb, kind, text.format("1" * 5000))
        assert code == 2
        assert err == (
            f"doublealg: parse error: line {line}: {label} must be between 0 and 64, "
            "got a 5000-character literal\n"
        )
        assert len(err) < 200 and err.count("\n") == 1

    def test_long_non_integer_count_is_not_echoed(self, tmp_path, capsys):
        text = "[lie_algebra g]\ndim = " + "x" * 5000 + "\n"
        code, err = self.run_model(tmp_path, capsys, "check", "manin", text)
        assert code == 2
        assert err == (
            "doublealg: parse error: line 2: dim must be an integer, got a 5000-character literal\n"
        )

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_oversized_witness_is_an_error(self, tmp_path, capsys, default_digit_limit, fmt):
        """A 4000-digit anchor and bracket coefficient, whose square in the
        anchor-defect witness would exceed the limit while printing, is past
        the parser's digit bound: a parse error at its block, digits not
        echoed."""
        big = "7" * 4000
        text = (MODELS / "tangent_cotangent_pair.pass").read_text()
        text = text.replace("bracket(w1, w2) = w1", f"bracket(w1, w2) = {big} * w1")
        text = text.replace("anchor(w1) = x * d/dy", f"anchor(w1) = {big} * x * d/dy")
        path = tmp_path / "m.model"
        path.write_text(text)
        code = main(["check", "bialgebroid", str(path), "--format", fmt])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == (
            "doublealg: parse error: line 14: in [algebroid Tstar]: "
            "a number has more than 500 digits\n"
        )
        assert captured.err.count("\n") == 1

    def test_witness_past_the_digit_limit_names_the_limit(
        self, tmp_path, capsys, default_digit_limit
    ):
        """Ten-term anchors whose coefficients have distinct prime-power
        denominators of about 440 digits pass the parser's digit bound, but
        the anchor-defect witness sums their products past Python's
        4300-digit limit; the error names that cause, not a Python call."""
        primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)

        def anchor(ps):
            powers = (p ** int(440 / math.log10(p)) for p in ps)
            return " + ".join(f"1/{q} * x^{i} * d/dx" for i, q in enumerate(powers))

        text = (
            "[algebroid A]\nbase = [x]\nframe = [e1, e2]\n"
            f"anchor(e1) = {anchor(primes[:10])}\nanchor(e2) = {anchor(primes[10:])}\n"
        )
        code, err = self.run_model(tmp_path, capsys, "check", "algebroid", text)
        assert code == 2
        assert err == "doublealg: error: a number in the report has more than 4300 digits\n"

    @pytest.mark.parametrize(
        "value",
        [
            "9" * 501 + " * w1",
            "9" * 300 + " * " + "9" * 300 + " * w1",
            "1/" + "7" * 501 + " * w1",
            "x^" + "1" * 501 + " * w1",
            "x^" + "9" * 500 + " * x^" + "9" * 500 + " * w1",
        ],
    )
    def test_number_past_the_digit_bound_is_a_parse_error(self, tmp_path, capsys, value):
        """A literal, a product of literals, a denominator or an exponent
        past `MAX_DIGITS` digits is refused at its block.  A power of 500
        digits passes the total-degree bound before the digit bound could
        see the exponents of a product, so it is refused by that bound."""
        text = (MODELS / "tangent_cotangent_pair.pass").read_text()
        text = text.replace("bracket(w1, w2) = w1", f"bracket(w1, w2) = {value}")
        code, err = self.run_model(tmp_path, capsys, "check", "bialgebroid", text)
        limit = f"a number has more than {MAX_DIGITS} digits"
        if value.startswith("x^9"):
            limit = f"a monomial has total degree above {MAX_TOTAL_DEGREE}"
        assert code == 2
        assert err == f"doublealg: parse error: line 14: in [algebroid Tstar]: {limit}\n"

    @pytest.mark.parametrize("block", ["cobracket", "lie_algebra"])
    def test_constants_past_the_digit_bound_are_parse_errors(self, block):
        # two coprime denominators of about 300 digits: their sum has 636
        big = f"1/{2**1000} * e1 ^ e2 + 1/{3**700} * e1 ^ e2"
        text = SOLVABLE.replace("delta(e2) = e1 ^ e2", f"delta(e2) = {big}")
        if block == "lie_algebra":
            text = SOLVABLE.replace("bracket(e1, e2) = e2", f"bracket(e1, e2) = {'8' * 501} * e2")
        with pytest.raises(ModelError, match=f"in \\[{block} .\\]: a number has more than"):
            parse_model(text)

    @pytest.mark.parametrize(
        "value",
        [
            f"x^{MAX_TOTAL_DEGREE + 1} * w1",
            f"x^{MAX_TOTAL_DEGREE // 2} * y^{MAX_TOTAL_DEGREE // 2 + 1} * w1",
            " * ".join(["x"] * (MAX_TOTAL_DEGREE + 1)) + " * w1",
            " * ".join([f"x^{MAX_TOTAL_DEGREE}"] * 70) + " * w1",
        ],
        ids=["power", "product", "factors", "past-the-kernel"],
    )
    def test_a_monomial_past_the_degree_bound_is_a_parse_error(self, tmp_path, capsys, value):
        """A monomial of total degree above `MAX_TOTAL_DEGREE` is refused at
        its block, also when its factors would take it past the exponent
        kernel's 2^16 before the term ends."""
        text = (MODELS / "tangent_cotangent_pair.pass").read_text()
        text = text.replace("bracket(w1, w2) = w1", f"bracket(w1, w2) = {value}")
        code, err = self.run_model(tmp_path, capsys, "check", "bialgebroid", text)
        assert code == 2
        assert err == (
            "doublealg: parse error: line 14: in [algebroid Tstar]: "
            f"a monomial has total degree above {MAX_TOTAL_DEGREE}\n"
        )

    def test_numbers_at_the_digit_bound_are_accepted(self):
        """Numbers at the digit bound and a monomial at the total-degree
        bound are read, in a single pass; one degree more is refused at its
        block."""
        bound, top = "9" * MAX_DIGITS, MAX_TOTAL_DEGREE

        def model(degree):
            return (
                "[algebroid A]\nbase = [x, y]\nframe = [e1]\n"
                f"anchor(e1) = {bound} * x^{degree - 1} * y * d/dx + 1/{bound} * d/dx\n"
            )

        start = time.perf_counter()
        (component, _) = parse_model(model(top)).algebroids["A"].anchor[0]
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"parsing took {elapsed:.3f}s, budget 1.0s"
        assert dict(component.terms) == {(top - 1, 1): int(bound), (0, 0): Fraction(1, int(bound))}
        with pytest.raises(ModelError, match=f"^line 1: in \\[algebroid A\\]: a monomial has total degree above {top}$"):
            parse_model(model(top + 1))

    def test_counts_at_the_bound_are_accepted(self):
        model = parse_model("[lie_algebra g]\ndim = 64\n[dvb D]\nbase = [x]\nranks = {A: 0, B: 64, C: 1}\n")
        assert model.lie_algebras["g"].rank == 64
        assert len(model.dvbs["D"].frames_b) == 64

    @staticmethod
    def names(count):
        return "[" + ", ".join(f"n{i}" for i in range(count)) + "]"

    @pytest.mark.parametrize(
        "block,line",
        [
            ("[chart M]\ncoords = {}\n", 2),
            ("[algebroid A]\nbase = {}\nframe = [e1]\n", 2),
            ("[algebroid A]\nbase = [x]\nframe = {}\n", 3),
            ("[lie_algebra g]\ndim = 64\nbasis = {}\n", 3),
            ("[dvb D]\nbase = [x]\nframes_A = [a]\nframes_B = {}\nframes_C = [c]\n", 4),
        ],
    )
    def test_a_name_list_past_the_count_bound_is_a_parse_error(self, tmp_path, capsys, block, line):
        """A name list holds at most MAX_COUNT names, as a count stops at
        it; one at the bound is read.  The Jacobi check of an algebroid
        takes time cubic in its rank."""
        path = tmp_path / "m.model"
        path.write_text(block.format(self.names(800)))
        assert main(["check", "algebroid", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"doublealg: parse error: line {line}: a name list holds at most 64 names, got 800\n"
        )
        parse_model(block.format(self.names(64)))


class TestSharedFrameNames:
    """A matched pair whose two algebroids share a frame name lays out
    neither a vacant double nor a direct sum: every build verb fails that
    pair's entry, naming the shared frames, and exits 1."""

    TEXT = (
        "[chart M]\ncoords = [x]\n\n"
        "[algebroid TM]\nbase = M\nframe = [v1]\nanchor(v1) = d/dx\n\n"
        "[matched_pair self]\nA = TM\nB = TM\n"
    )
    MATCHED = [
        f"result bowtie.self.matched.{item}: pass"
        for item in (
            "algebroid_A",
            "algebroid_B",
            "rho.base_fields",
            "rho.flat",
            "sigma.base_fields",
            "sigma.flat",
            "identity_1",
            "identity_2",
            "identity_3",
        )
    ]

    @pytest.mark.parametrize(
        "kind,entry",
        [
            ("semidirects", "semidirects.self"),
            ("double", "vacant.self"),
            ("vacant", "vacant.self"),
            ("bowtie", "bowtie.self"),
        ],
    )
    def test_build_fails_the_entry(self, tmp_path, capsys, kind, entry):
        path = tmp_path / "m.model"
        path.write_text(self.TEXT)
        code = main(["build", kind, str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert lines[4:] == (self.MATCHED if kind == "bowtie" else []) + [
            f"result {entry}: FAIL",
            "  witness: A and B share frame names: v1",
            "summary: fail",
        ]


def test_extract_matched_reports_unmatched_actions(tmp_path, capsys):
    """Actions read off a vacant double that fail the matched-pair identities
    give one fail line carrying the first failing identity."""
    text = (MODELS / "vacant_line_action.pass").read_text()
    path = tmp_path / "m.model"
    path.write_text(text.replace("side = triv\n", "side = triv\nlambda(f1; v1) = x * v1\n"))
    assert main(["extract", "matched", str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[4:] == [
        "result extract.vac: FAIL",
        "  witness: extracted actions are not matched: identity 3 at (v1, f1): defect = (x) d/dx",
        "summary: fail",
    ]


class TestDuplicateEntries:
    """A block gives each call-style entry once; a repeat, in either order
    of a bracket's or twist's pair, exits 2 with a parse error at its line."""

    ALGEBRA = "[lie_algebra g]\ndim = 2\n"
    COBRACKET = ALGEBRA + "[cobracket d]\nalgebra = g\n"
    ALGEBROID = "[chart M]\ncoords = [x]\n[algebroid A]\nbase = M\nframe = [e1, e2]\n"
    LAVB = (
        "[chart M]\ncoords = [x]\n"
        "[algebroid S]\nbase = M\nframe = [b1, b2]\nanchor(b1) = d/dx\n"
        "[dvb D]\nbase = M\nframes_A = [a1]\nframes_B = [b1, b2]\nframes_C = [c1]\n"
        "[lavb V]\ndvb = D\nside = S\n"
    )
    MATCHED = (
        "[chart M]\ncoords = [x]\n"
        "[algebroid TM]\nbase = M\nframe = [v1]\nanchor(v1) = d/dx\n"
        "[algebroid triv]\nbase = M\nframe = [f1]\n"
        "[matched_pair act]\nA = TM\nB = triv\n"
    )

    CASES = [
        (ALGEBRA, "bracket(e1, e2) = e2", "bracket(e2, e1) = e1"),
        (COBRACKET, "delta(e2) = e1 ^ e2", "delta(e2) = 2 * e1 ^ e2"),
        (ALGEBROID, "anchor(e1) = d/dx", "anchor(e1) = x * d/dx"),
        (ALGEBROID, "bracket(e1, e2) = e1", "bracket(e1, e2) = e2"),
        (LAVB, "lambda(b1; a1) = a1", "lambda(b1; a1) = x * a1"),
        (LAVB, "q(b2; c1) = c1", "q(b2; c1) = 2 * c1"),
        (LAVB, "del(c1) = a1", "del(c1) = 2 * a1"),
        (LAVB, "twist(b1, b2; a1) = c1", "twist(b2, b1; a1) = c1"),
        (MATCHED, "rho(v1) = derivation{f1: x * f1}", "rho(v1) = derivation{}"),
        (MATCHED, "sigma(f1) = derivation{}", "sigma(f1) = derivation{v1: v1}"),
    ]

    @pytest.mark.parametrize(
        "base,first,repeat", CASES, ids=[f"{c[1].split('(')[0]}:{i}" for i, c in enumerate(CASES)]
    )
    def test_repeat_exits_two_at_its_line(self, tmp_path, capsys, base, first, repeat):
        path = tmp_path / "m.model"
        path.write_text(f"{base}{first}\n{repeat}\n")
        line = base.count("\n") + 2
        assert main(["check", "algebroid", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        call = repeat.split(" = ")[0]
        assert captured.err == (
            f"doublealg: parse error: line {line}: duplicate entry {call}, "
            f"first given at line {line - 1}\n"
        )

    def test_distinct_arguments_are_distinct_entries(self):
        model = parse_model(
            self.LAVB
            + "lambda(b1; a1) = a1\nlambda(b2; a1) = x * a1\n"
            + "q(b1; c1) = c1\nq(b2; c1) = c1\ntwist(b1, b2; a1) = c1\n"
        )
        assert str(dict(dict(model.lavbs["V"].twist)[(0, 1)])[(0, 0)]) == "1"


class TestParseErrorPins:
    """The full text and line of the parse errors that the per-entry readers
    of `parse_model` raise: argument counts, unresolved references,
    antisymmetry, and which of two errors in one block is reported."""

    PRELUDE = (
        "[chart M]\ncoords = [x]\n"
        "[algebroid A]\nbase = M\nframe = [a1]\n"
        "[algebroid B]\nbase = M\nframe = [b1, b2]\n"
        "[dvb D]\nbase = M\nframes_A = [a1]\nframes_B = [b1, b2]\nframes_C = [c1]\n"
        "[lavb V]\ndvb = D\nside = B\n"
        "[lie_algebra g]\ndim = 2\n"
    )
    ALGEBROID = "[algebroid C]\nbase = M\nframe = [c1, c2]\n"
    LAVB = "[lavb W]\ndvb = D\nside = B\n"
    MATCHED = "[matched_pair P]\nA = A\nB = B\n"

    # (block appended to PRELUDE, line of the error within it, message)
    CASES = [
        ("[lie_algebra h]\ndim = 2\nbracket(e1) = e2\n", 3, "bracket takes two basis names"),
        ("[cobracket d]\nalgebra = g\ndelta(e1, e2) = e1 ^ e2\n", 3, "delta takes one basis name"),
        (ALGEBROID + "anchor(c1, c2) = d/dx\n", 4, "anchor takes one frame name"),
        (ALGEBROID + "bracket(c1) = c2\n", 4, "bracket takes two frame names"),
        (LAVB + "lambda(b1) = a1\n", 4, "lambda takes (side frame; bundle frame)"),
        (LAVB + "q(b1) = c1\n", 4, "q takes (side frame; core frame)"),
        (LAVB + "del(c1; a1) = a1\n", 4, "del takes one core frame"),
        (LAVB + "twist(b1; a1) = c1\n", 4, "twist takes (side, side; bundle frame)"),
        (MATCHED + "rho() = derivation{}\n", 4, "rho takes one frame name"),
        (MATCHED + "sigma(b1, b2) = derivation{}\n", 4, "sigma takes one frame name"),
        ("[algebroid C]\nbase = N\nframe = [c1]\n", 2, "unresolved chart reference 'N'"),
        ("[cobracket d]\nalgebra = h\n", 2, "unresolved lie_algebra reference 'h'"),
        (
            "[algebroid C]\nbase = M\nframe = [c1]\ndual_of = Z\n",
            4,
            "unresolved algebroid reference 'Z'",
        ),
        ("[lavb W]\ndvb = E\nside = B\n", 2, "unresolved dvb reference 'E'"),
        ("[lavb W]\ndvb = D\nside = Z\n", 3, "unresolved algebroid reference 'Z'"),
        ("[matched_pair P]\nA = Z\nB = B\n", 2, "unresolved algebroid reference 'Z'"),
        ("[matched_pair P]\nA = A\nB = Z\n", 3, "unresolved algebroid reference 'Z'"),
        ("[double DD]\nvertical = V\nhorizontal = Z\n", 3, "unresolved lavb reference 'Z'"),
        (
            "[double DD]\ndvb = E\nvertical = V\nhorizontal = V\n",
            2,
            "unresolved dvb reference 'E'",
        ),
        (
            "[lie_algebra h]\ndim = 2\nbracket(e1, e1) = e2\n",
            3,
            "bracket(e1, e1) violates antisymmetry (diagonal brackets are identically zero)",
        ),
        (
            ALGEBROID + "bracket(c2, c2) = c1\n",
            4,
            "bracket(c2, c2) violates antisymmetry (diagonal brackets are identically zero)",
        ),
        (LAVB + "twist(b1, b1; a1) = c1\n", 4, "twist pair must be distinct (antisymmetry)"),
        # a missing key wins over an unresolved reference read before it
        ("[matched_pair P]\nA = Z\n", 1, "missing key 'B' in [matched_pair P]"),
        ("[double DD]\nhorizontal = Z\n", 1, "missing key 'vertical' in [double DD]"),
        # of two unresolved references, the first key's is reported
        ("[double DD]\nvertical = Y\nhorizontal = Z\n", 2, "unresolved lavb reference 'Y'"),
    ]

    @pytest.mark.parametrize(
        "block,line,message", CASES, ids=[f"{i}:{c[2].split(' ')[0]}" for i, c in enumerate(CASES)]
    )
    def test_message_and_line(self, block, line, message):
        line += self.PRELUDE.count("\n")
        with pytest.raises(ModelError) as exc:
            parse_model(self.PRELUDE + block)
        assert exc.value.line == line
        assert str(exc.value) == f"line {line}: {message}"

class TestTwistOrientation:
    """`twist(b2, b1; a)` is the negation of `twist(b1, b2; a)`, and a zero
    twist is the same as none."""

    BASE = TestDuplicateEntries.LAVB + "lambda(b1; a1) = x * a1\nq(b1; c1) = c1\n"

    def lavb(self, entries):
        return parse_model(self.BASE + entries).lavbs["V"]

    def test_swapped_pair_is_the_negation(self):
        swapped = self.lavb("twist(b2, b1; a1) = x * c1\n")
        direct = self.lavb("twist(b1, b2; a1) = -x * c1\n")
        assert swapped.twist
        assert swapped == direct
        assert swapped.total == direct.total

    def test_zero_twist_is_no_twist(self):
        zero = self.lavb("twist(b1, b2; a1) = 0\n")
        none = self.lavb("")
        assert zero == none and hash(zero) == hash(none)
        assert zero.total == none.total


def test_dual_name_taken_by_a_basis_name_fails_the_double(tmp_path, capsys):
    """`build drinfeld` and `check manin` fail the double's entry, naming
    the dual basis name that the basis already holds, and exit 1."""
    path = tmp_path / "m.model"
    path.write_text(
        "[lie_algebra g]\ndim = 2\nbasis = [a, a_d]\nbracket(a, a_d) = a_d\n\n"
        "[cobracket d]\nalgebra = g\ndelta(a_d) = a ^ a_d\n"
    )
    for verb, kind, entry in (("check", "manin", "manin.d.double"), ("build", "drinfeld", "drinfeld.d")):
        assert main([verb, kind, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[4:] == [
            f"result {entry}: FAIL",
            "  witness: dual basis name 'a_d' is already a basis name",
            "summary: fail",
        ]


def test_a_chart_holding_xi_of_a_core_frame_keeps_its_double(tmp_path, capsys):
    """The induced duals and the core dual extend the chart by xi_<core
    frame>; one already on the chart gets an apostrophe, as the u_ fibre
    coordinates of a total algebroid do, so the double is checked."""
    text = (MODELS / "t2m_double.pass").read_text()
    assert "coords = [x]\n" in text
    path = tmp_path / "m.model"
    path.write_text(text.replace("coords = [x]\n", "coords = [x, xi_c1]\n"))
    assert main(["check", "double", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.count("  | base = [x, xi_c1, xi_c1']\n") == 2
    assert "  | core_dual_poisson(x, xi_c1') = -1\n" in out
    assert out.endswith("summary: pass\n")


class TestRepeatedKeysInsideValues:
    """A frame repeated inside derivation{...} or a side repeated inside
    ranks = {...} exits 2 with a parse error at its line, instead of
    summing the two values or keeping the last."""

    def run(self, tmp_path, capsys, text):
        path = tmp_path / "m.model"
        path.write_text(text)
        assert main(["check", "matched", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        return captured.err

    def test_derivation_frame(self, tmp_path, capsys):
        base = TestDuplicateEntries.MATCHED
        text = base + "rho(v1) = derivation{f1: x * f1, f1: f1}\n"
        assert self.run(tmp_path, capsys, text) == (
            f"doublealg: parse error: line {base.count(chr(10)) + 1}: "
            "duplicate frame 'f1' in derivation{...}\n"
        )

    def test_ranks_side(self, tmp_path, capsys):
        text = "[chart M]\ncoords = [x]\n[dvb D]\nbase = M\nranks = {A: 1, A: 3, B: 1, C: 1}\n"
        assert self.run(tmp_path, capsys, text) == (
            "doublealg: parse error: line 5: duplicate ranks key 'A'\n"
        )


class TestDoubleDvbKey:
    """The optional `dvb` key of a [double] block names a declared [dvb],
    the one that both of its [lavb] blocks use."""

    T2M = (MODELS / "t2m_double.pass").read_text()

    def with_double_dvb(self, name, extra=""):
        head, double = self.T2M.split("[double T2M]")
        return head + extra + "[double T2M]" + double.replace("dvb = D", f"dvb = {name}")

    @pytest.mark.parametrize(
        "name,extra,line,message",
        [
            ("NOPE", "", 35, "unresolved dvb reference 'NOPE'"),
            (
                "E",
                "[dvb E]\nbase = M\nframes_A = [a1]\nframes_B = [b1]\nframes_C = [c1]\n\n",
                41,
                "lavb 'V' uses dvb 'D', not 'E'",
            ),
        ],
        ids=["undeclared", "not_the_lavb_dvb"],
    )
    def test_other_dvb_exits_two(self, tmp_path, capsys, name, extra, line, message):
        path = tmp_path / "m.model"
        path.write_text(self.with_double_dvb(name, extra))
        assert main(["check", "double", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"doublealg: parse error: line {line}: {message}\n"


@pytest.mark.parametrize(
    "verb,kind,failure,valid",
    [
        (
            "check",
            "bialgebroid",
            "result bialgebroid.bad.dual_side: FAIL",
            "bialgebroid.TM:Tstar.random: pass",
        ),
        (
            "build",
            "cotangent-double",
            "result cotangent_double.bad: FAIL",
            "cotangent_double.TM:Tstar.summary: pass",
        ),
    ],
    ids=["check_bialgebroid", "build_cotangent_double"],
)
def test_co_jacobi_failure_is_a_failed_item(tmp_path, capsys, verb, kind, failure, valid):
    """The dual bracket of the cobracket fails Jacobi: that is the failure
    of its own entry, exit 1, and the valid dual pair is still reported."""
    path = tmp_path / "m.model"
    path.write_text(CO_JACOBI_MODEL)
    assert main([verb, kind, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    witness = lines[lines.index(failure) + 1]
    assert witness.endswith(
        "triple (e1_d, e2_d, e3_d): jacobiator = (-1) e1_d + (1) e2_d + (1) e3_d"
    )
    assert f"result {valid}" in lines


SHARED_FRAME_MODEL = """\
[chart M]
coords = [x]

[algebroid A]
base = M
frame = [e1]
anchor(e1) = d/dx

[algebroid B]
base = M
frame = [e1]
dual_of = A

[algebroid TM]
base = M
frame = [v1]
anchor(v1) = d/dx

[algebroid Z]
base = M
frame = [w1]
dual_of = TM
"""


def test_shared_frame_name_is_the_failed_entry(tmp_path, capsys):
    """A dual pair whose two algebroids share a frame name has no
    cotangent double: that is the failure of its own entry, exit 1, and the
    model's other pair is still reported."""
    path = tmp_path / "m.model"
    path.write_text(SHARED_FRAME_MODEL)
    assert main(["build", "cotangent-double", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    failure = lines.index("result cotangent_double.A:B: FAIL")
    assert lines[failure + 1] == "  witness: primary and dual algebroids share frame names: e1"
    assert "result cotangent_double.TM:Z.summary: pass" in lines
