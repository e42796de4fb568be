"""Session parsing, execution, rendering and CLI determinism."""

import json
import pathlib
import subprocess
import sys

import pytest

from abmod import (DuplicateName, ParseError, UnknownName, parse_session,
                   run_session, saturation)
from abmod.session import SHOW_COMMANDS

ROOT = pathlib.Path(__file__).resolve().parent.parent
SESSIONS = ROOT / "sessions"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


class TestParse:
    def test_two_commands(self):
        s = parse_session("let F = fresco [(3/2, 1), (1/2, 1)]\nshow bernstein F\n")
        assert len(s.commands) == 2

    def test_precision_statement(self):
        s = parse_session("precision 64\nlet X = xi 1/2 0\n")
        assert s.commands[0].value == 64
        assert s.commands[1].precision == 64

    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            parse_session("show bernstein G\n")

    def test_duplicate_name(self):
        with pytest.raises(DuplicateName):
            parse_session("let X = xi 1/2 0\nlet X = xi 1/3 0\n")

    def test_parse_error_carries_line(self):
        with pytest.raises(ParseError) as err:
            parse_session("let X = xi 1/2 0\nfrobnicate\n")
        assert "line 2" in str(err.value)

    @pytest.mark.parametrize("text, col", [
        ("let F = fresco [(x)]", 1),
        ("let F = fresco [(1/0, 1)]", 3),
        ("let M = module [[1/0]]", 3),
        ("let F = fresco [(3/2, 1 + 1/0*b)]", 7),
    ])
    def test_malformed_rational(self, text, col):
        with pytest.raises(ParseError) as err:
            parse_session(text + "\n")
        assert (err.value.line, err.value.col) == (1, col)

    @pytest.mark.parametrize("text, col", [
        ("precision \u00b2", None),
        ("let X = xi 1/2 \u00b2", None),
        ("let F = fresco [(3/2, 1 + \u00b2*b)]", 5),
    ], ids=["precision", "xi-depth", "fresco-unit"])
    def test_non_ascii_digits_are_parse_errors(self, text, col):
        with pytest.raises(ParseError) as err:
            parse_session("\n" + text + "\n")
        assert (err.value.line, err.value.col) == (2, col)

    def test_empty_fresco_is_a_parse_error(self):
        with pytest.raises(ParseError) as err:
            parse_session("precision 8\nlet F = fresco []\n")
        assert err.value.line == 2

    def test_comments_and_blanks(self):
        s = parse_session("# nothing\n\nlet X = xi 1/2 0  # trailing\n")
        assert len(s.commands) == 1

    def test_matrix_literals(self):
        s = parse_session("let M = module [[b, 0], [1+b, 2*b^2]]\n")
        payload = s.commands[0].payload
        assert payload[1][1] == (0, 0, 2)

    def test_render_round_trip(self):
        text = ("precision 16\n"
                "let F = fresco [(3/2, 1), (1/2, 1 + b)]\n"
                "let X = xi 1/2 1\n"
                "let M = module [[0, -1/4*b^2], [1, 2*b]]\n"
                "let S = system [[1/2 + z]]\n"
                "show bernstein F\n"
                "show saturate M\n")
        s1 = parse_session(text)
        s2 = parse_session(s1.render())
        assert s1.render() == s2.render()


class TestRun:
    def test_bernstein_of_xi(self):
        report = run_session(parse_session(
            "let X = xi 1/2 1\nshow bernstein X\n"))
        entry = report.entries[-1]
        assert entry["result"]["polynomial"]["roots"] == [
            {"value": "-1/2", "mult": 2}]
        assert not report.failed

    @pytest.mark.parametrize("matrix, text", [
        ("[[0, 2*b], [b, 0]]", "[x^2 - 2]"),
        ("[[b, 0], [0, b]]", "(x + 1)"),
        ("[[b, 0], [b, b]]", "(x + 1)^2"),
        ("[[0, 0, 2*b], [b, 0, 0], [0, b, 0]]", "[x^3 + 2]"),
    ])
    def test_bernstein_prints_the_minimal_polynomial(self, matrix, text):
        # unsplit and derogatory minimal polynomials, which no golden
        # session shows
        report = run_session(parse_session(
            f"precision 8\nlet M = module {matrix}\nshow bernstein M\n"))
        assert report.entries[-1]["text"] == [f"bernstein (minimal): {text}"]

    def test_higher_bernstein_of_theme(self):
        report = run_session(parse_session(
            "let F = fresco [(3/2, 1), (1/2, 1)]\nshow higher_bernstein F\n"))
        entry = report.entries[-1]
        assert entry["result"]["product_check"] is True
        levels = entry["result"]["classes"][0]["levels"]
        assert [lv["roots"] for lv in levels] == [
            [{"value": "-1/2", "mult": 1}]] * 2

    def test_rank_zero_module_embeds(self):
        report = run_session(parse_session(
            "let M = module []\nshow embed M\nshow expansion M\n"))
        assert not report.failed
        embed, expansion = report.entries[1:]
        assert embed["result"] == {"classes": [], "depth": 0, "dim_v": 1,
                                   "matrix": []}
        assert embed["text"] == [
            "embedded into xi with classes none; depth 0; dim V 1",
            "matrix: []"]
        assert expansion["result"] == {"expansions": []}

    def test_empty_session(self):
        report = run_session(parse_session(""))
        assert report.entries == [] and not report.failed

    def test_error_is_reported_and_fails(self):
        report = run_session(parse_session(
            "let M = module [[1]]\nshow saturate M\n"))
        assert report.failed
        assert report.entries[-1]["error"]["type"] == "NotRegular"

    @pytest.mark.parametrize("let, error", [
        ("let F = fresco [(3/2, 0)]", "NotAUnit"),
        ("let F = module [[b, 0]]", "NonSquare"),
        ("let F = system [[1, 2]]", "NonSquare"),
    ])
    def test_show_after_a_failed_let_is_an_error_entry(self, let, error):
        report = run_session(parse_session(
            f"{let}\nshow bernstein F\nlet X = xi 1/2 0\nshow bernstein X\n"))
        assert report.failed
        assert [e.get("error", {}).get("type") for e in report.entries] \
            == [error, "UnknownName", None, None]
        assert report.entries[1]["error"]["message"] \
            == "name 'F' has no value: its let failed"
        assert report.entries[3]["text"] == ["bernstein (minimal): (x + 1/2)"]

    def test_check_escalates_diagnostics(self):
        text = "let T = system [[1/3, 1], [0, 1/3]]\nshow higher_bernstein T\n"
        relaxed = run_session(parse_session(text))
        strict = run_session(parse_session(text), check=True)
        assert not relaxed.failed and strict.failed

    def test_saturation_cap_applies_to_every_action(self):
        text = "precision 8\nlet F = fresco [(3/2, 1), (1/2, 1)]\n" + "".join(
            f"show {action} F\n" for action in SHOW_COMMANDS)
        capped = run_session(parse_session(text), max_sat_iter=0)
        assert [e.get("error", {}).get("type") for e in capped.entries[2:]] \
            == ["NotRegular"] * len(SHOW_COMMANDS)
        assert not run_session(parse_session(text), max_sat_iter=1).failed

    def test_negative_saturation_cap_is_rejected(self):
        text = ("precision 16\nlet F = fresco [(3/2, 1), (1/2, 1)]\n"
                "show saturate F\n")
        with pytest.raises(ValueError):
            run_session(parse_session(text), max_sat_iter=-1)

    @pytest.mark.parametrize("first, then", [("higher_bernstein", "report"),
                                             ("embed", "expansion")])
    def test_later_action_saturates_nothing_new(self, monkeypatch, first, then):
        bodies = []
        run_body = saturation._shifted_basis_images
        monkeypatch.setattr(saturation, "_shifted_basis_images",
                            lambda lat, m: bodies.append(m) or run_body(lat, m))
        text = f"precision 8\nlet F = fresco [(3/2, 1), (1/2, 1)]\nshow {first} F\n"
        run_session(parse_session(text))
        alone = len(bodies)
        assert alone
        report = run_session(parse_session(text + f"show {then} F\n"))
        assert not report.failed
        assert len(bodies) == 2 * alone

    @staticmethod
    def _fresh_saturations(monkeypatch, keep):
        """The saturation runs (each starts at step 0) of worked_theme.abm
        with the lines *keep* accepts."""
        steps = []
        run_body = saturation._shifted_basis_images
        monkeypatch.setattr(saturation, "_shifted_basis_images",
                            lambda lat, m: steps.append(m) or run_body(lat, m))
        lines = (SESSIONS / "worked_theme.abm").read_text().splitlines(True)
        assert not run_session(parse_session("".join(filter(keep, lines)))
                               ).failed
        return steps.count(0)

    def test_worked_theme_saturates_each_module_once(self, monkeypatch):
        # one run, for F: F/S_1 and the level module S_1, which the
        # filtration validates and keeps, have a simple pole, so each is
        # its own saturation with no run; the one-class primitive part is
        # F, and the top level module is F/S_1
        assert self._fresh_saturations(
            monkeypatch, lambda line: not line.startswith(
                ("show embed", "show expansion"))) == 1

    def test_embed_alone_saturates_each_module_once(self, monkeypatch):
        # one run, for F: its saturation F# (whose semi-simple part starts
        # the search) and the sub-module of the embedding's image have a
        # simple pole, so each is its own saturation with no run
        assert self._fresh_saturations(
            monkeypatch, lambda line: not line.startswith("show")
            or line.startswith("show embed")) == 1


class TestCli:
    def _run(self, args, stdin=""):
        argv = [sys.executable, "-m", "abmod.cli", *args]
        proc = subprocess.run(argv, input=stdin, capture_output=True,
                              text=True, cwd=ROOT)
        return proc

    def test_reads_stdin(self):
        proc = self._run(["--precision", "12"],
                         stdin="let X = xi 1/2 0\nshow bernstein X\n")
        assert proc.returncode == 0
        assert "(x + 1/2)" in proc.stdout

    def test_exit_status_on_error(self):
        proc = self._run([], stdin="let M = module [[1]]\nshow saturate M\n")
        assert proc.returncode == 1

    def test_parse_error_exit(self):
        proc = self._run([], stdin="nonsense\n")
        assert proc.returncode == 2

    def test_show_after_a_failed_let_prints_no_traceback(self):
        proc = self._run([], stdin="let F = fresco [(3/2, 0)]\n"
                                   "show bernstein F\n")
        assert proc.returncode == 1 and proc.stderr == ""
        assert "error [UnknownName]" in proc.stdout
        proc = self._run([], stdin="let F = fresco []\n")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error [ParseError]")

    def test_non_square_system_is_an_error_entry(self):
        proc = self._run([], stdin="let S = system [[1, 2]]\n")
        assert proc.returncode == 1 and proc.stderr == ""
        assert "error [NonSquare]" in proc.stdout

    def test_negative_saturation_cap_is_a_usage_error(self):
        session = "let F = fresco [(3/2, 1), (1/2, 1)]\nshow saturate F\n"
        proc = self._run(["--precision", "16", "--max-sat-iter", "-1"],
                         stdin=session)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "--max-sat-iter: must be >= 0, got -1" in proc.stderr
        proc = self._run(["--precision", "16", "--max-sat-iter", "0"],
                         stdin=session)
        assert proc.returncode == 1
        assert "within 0 steps" in proc.stdout

    def test_precision_flag_keeps_the_line_numbers(self):
        proc = self._run(["--precision", "24"],
                         stdin="let X = xi 1/2 0\nshow bernstein Y\n")
        assert proc.returncode == 2
        assert "name 'Y' is not defined (line 2)" in proc.stderr
        proc = self._run(["--precision", "24"],
                         stdin="let X = xi 1/2 0\nshow bernstein X\n")
        assert proc.returncode == 0
        assert proc.stdout.startswith("> precision 24\n  precision set to 24\n")
        assert "X: xi of rank 1 at precision 24" in proc.stdout

    def test_precision_below_two_is_a_usage_error(self):
        for value in ("0", "1", "-3"):
            proc = self._run(["--precision", value],
                             stdin="let X = xi 1/2 0\nshow bernstein X\n")
            assert proc.returncode == 2
            assert proc.stdout == ""
            assert f"--precision: must be >= 2, got {value}" in proc.stderr
            assert "line" not in proc.stderr

    def test_explicit_default_precision_is_reported(self):
        proc = self._run(["--precision", "32"],
                         stdin="let X = xi 1/2 0\nshow bernstein X\n")
        assert proc.returncode == 0
        assert proc.stdout.startswith("> precision 32\n  precision set to 32\n")

    def test_unreadable_session_file_is_a_usage_error(self, tmp_path):
        undecodable = tmp_path / "latin1.abm"
        undecodable.write_bytes(b"# caf\xe9\n")
        for path in (tmp_path / "missing.abm", tmp_path, undecodable):
            proc = self._run([str(path)])
            assert proc.returncode == 2
            assert proc.stdout == ""
            assert proc.stderr.startswith("error [")
            assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("name", ["worked_theme", "expansions_and_systems",
                                      "mixed_classes"])
    def test_golden_files_text(self, name):
        proc1 = self._run([str(SESSIONS / f"{name}.abm")])
        proc2 = self._run([str(SESSIONS / f"{name}.abm")])
        assert proc1.returncode == 0
        assert proc1.stdout == proc2.stdout
        golden = (GOLDEN / f"{name}.txt").read_text()
        assert proc1.stdout == golden

    @pytest.mark.parametrize("name", ["worked_theme", "expansions_and_systems",
                                      "mixed_classes"])
    def test_golden_files_json(self, name):
        proc = self._run(["--output", "json", str(SESSIONS / f"{name}.abm")])
        golden = (GOLDEN / f"{name}.json").read_text()
        assert proc.stdout == golden
        json.loads(proc.stdout)   # valid JSON


def test_random_frescos_session_matches_its_golden_output():
    """40 seeded geometric frescos through every show action; the header
    of random_frescos.abm says what the pinned output covers."""
    report = run_session(parse_session(
        (GOLDEN / "random_frescos.abm").read_text()))
    assert report.to_text() == (GOLDEN / "random_frescos.txt").read_text()
    assert report.to_json() == (GOLDEN / "random_frescos.json").read_text()


def test_low_precision_session_matches_its_golden_output():
    """60 seeded geometric frescos at precision 2-7 through every show
    action, where derived modules run out of precision; the header of
    low_precision.abm says what the pinned output covers."""
    report = run_session(parse_session(
        (GOLDEN / "low_precision.abm").read_text()))
    assert report.to_text() == (GOLDEN / "low_precision.txt").read_text()
    assert report.to_json() == (GOLDEN / "low_precision.json").read_text()


def test_long_precision_session_matches_its_golden_output():
    """8 seeded geometric frescos at precision 32-64 through show
    filtration and show higher_bernstein, where an eigen-element
    candidate is shifted by up to prec // 2; the header of
    long_precision.abm says what the pinned output covers."""
    report = run_session(parse_session(
        (GOLDEN / "long_precision.abm").read_text()))
    assert report.to_text() == (GOLDEN / "long_precision.txt").read_text()
    assert report.to_json() == (GOLDEN / "long_precision.json").read_text()


def test_readme_library_example_prints_its_documented_lines(capsys):
    """The README's library example runs as written and prints the two
    lines its comments show."""
    text = (ROOT / "README.md").read_text()
    section = text[text.index("## Library example"):]
    code = section[section.index("```python\n") + 10:]
    code = code[:code.index("```")]
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed == ["(x + 1/2)^2", "['1*s^(-1/2)*log(s)']"]
    assert [line[2:] for line in code.splitlines()
            if line.startswith("# ")] == printed
