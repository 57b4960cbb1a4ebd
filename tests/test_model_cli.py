"""Model-file parsing, CLI dispatch, report determinism, bundled contracts."""

import json
import pathlib
import subprocess
import sys

import pytest

from doublealg import dvb
from doublealg.cli import main, run
from doublealg.model import ModelError, parse_model
from doublealg.report import Report, ResultEntry, emit_report

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
        assert b.algebra.constants[0][1] == (0, 1)
        assert b.cobracket.image(1) == {(0, 1): 1}

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
        assert str(L.structure[0][1][1]) == "-1"

    @pytest.mark.parametrize("call", ["rho()", "sigma(f1, f1)"])
    def test_representation_takes_one_frame_name(self, call):
        text = (MODELS / "line_action_matched.pass").read_text()
        text += f"\n{call} = derivation{{}}\n"
        with pytest.raises(ModelError, match="takes one frame name"):
            parse_model(text)

    def test_duplicate_block_names_rejected(self):
        with pytest.raises(ModelError, match="duplicate"):
            parse_model("[chart M]\ncoords = []\n[chart M]\ncoords = []\n")


class TestRun:
    def test_check_manin_passes_on_solvable(self):
        model = parse_model(SOLVABLE)
        report = run("check", "manin", model, "sha256:x", 7, 2)
        assert report.ok
        assert any(r.result_id == "manin.d.invariance" for r in report.results)

    def test_no_applicable_blocks_fails(self):
        report = run("check", "double", parse_model(""), "sha256:x", 7, 2)
        assert not report.ok

    def test_build_drinfeld_detail_includes_structure(self):
        model = parse_model(SOLVABLE)
        report = run("build", "drinfeld", model, "sha256:x", 7, 2)
        assert report.ok
        entry = next(r for r in report.results if r.result_id == "drinfeld.d")
        assert any("bracket(e1, e2) = e2" in line for line in entry.detail)
        assert any(line.startswith("pairing(") for line in entry.detail)


class TestEmitReport:
    def sample(self):
        return Report(
            command="check manin",
            input_digest="sha256:abc",
            results=(
                ResultEntry("a.one", "pass"),
                ResultEntry("a.two", "fail", "witness text", ("detail line",)),
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

    @pytest.mark.parametrize("value", ["-1", "not-a-number"])
    def test_bad_max_degree_is_a_usage_error(self, value, monkeypatch, capsys):
        monkeypatch.setenv("DOUBLEALG_MAX_DEGREE", value)
        code = main(["check", "double", str(MODELS / "t2m_double.pass")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "doublealg: error: DOUBLEALG_MAX_DEGREE must be a non-negative integer\n"
        )


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

    def test_degenerate_pairing_fails_with_its_rank(self, monkeypatch, capsys):
        monkeypatch.setattr(dvb, "pairing_rank", lambda shape: 2)
        code = main(["dualize", "dvb", str(MODELS / "dvb_shape.pass")])
        captured = capsys.readouterr()
        assert code == 1
        assert "pairing of the two duals over C* has rank 2, expected 3" in captured.out


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

    def test_huge_dim_is_a_parse_error(self, tmp_path, capsys):
        text = "[lie_algebra g]\ndim = 99999999\n"
        code, err = self.run_model(tmp_path, capsys, "check", "manin", text)
        assert code == 2
        assert err == "doublealg: parse error: line 2: dim must be between 0 and 64, got 99999999\n"

    def test_counts_at_the_bound_are_accepted(self):
        model = parse_model("[lie_algebra g]\ndim = 64\n[dvb D]\nbase = [x]\nranks = {A: 0, B: 64, C: 1}\n")
        assert model.lie_algebras["g"].dim == 64
        assert len(model.dvbs["D"].frames_b) == 64


class TestSharedFrameNames:
    """A matched pair whose two algebroids share a frame name lays out
    neither a vacant double nor a direct sum: every build verb exits 2."""

    TEXT = (
        "[chart M]\ncoords = [x]\n\n"
        "[algebroid TM]\nbase = M\nframe = [v1]\nanchor(v1) = d/dx\n\n"
        "[matched_pair self]\nA = TM\nB = TM\n"
    )

    @pytest.mark.parametrize(
        "kind,message",
        [
            ("semidirects", "side, bundle and core frame names must be distinct"),
            ("double", "side, bundle and core frame names must be distinct"),
            ("bowtie", "frame names must be distinct"),
        ],
    )
    def test_build_exits_two(self, tmp_path, capsys, kind, message):
        path = tmp_path / "m.model"
        path.write_text(self.TEXT)
        code = main(["build", kind, str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"doublealg: error: {message}\n"
