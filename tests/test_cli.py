import argparse
import inspect
import json
import signal
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from pellbisect import cli, pellcore
from pellbisect.cli import main, render_figure, run_table

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_context_json(capsys):
    code, out = run(capsys, "context", "--d", "34")
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "d": 34,
        "disc": 136,
        "eta": {"a": "35", "b": "6"},
        "norm_eta": 1,
        "eps": {"f1": 35, "g1": 6},
        "h": 2,
        "neg_pell_integral": False,
        "neg_pell_rational": True,
    }


def test_context_half_unit_coordinates(capsys):
    _, out = run(capsys, "context", "--d", "13")
    doc = json.loads(out)
    assert doc["eta"] == {"a": "3/2", "b": "1/2"}


def test_context_601(capsys):
    code, out = run(capsys, "context", "--d", "601")
    assert code == 0
    doc = json.loads(out)
    a, b = Fraction(doc["eta"]["a"]), Fraction(doc["eta"]["b"])
    f1, g1 = doc["eps"]["f1"], doc["eps"]["g1"]
    assert a * a - 601 * b * b == doc["norm_eta"] == f1 * f1 - 601 * g1 * g1


def test_xi_json(capsys):
    code, out = run(capsys, "xi", "--d", "34", "--p", "11")
    assert code == 0
    doc = json.loads(out)
    assert (doc["l"], doc["x"], doc["y"], doc["norm"]) == (2, 27, 5, "-121")


def test_xi_outside_spectrum(capsys):
    code, out = run(capsys, "xi", "--d", "2", "--p", "3")
    assert code == 0
    assert json.loads(out) == {"d": 2, "p": 3, "in_s": False}


def test_spectrum_json(capsys):
    code, out = run(capsys, "spectrum", "--d", "34", "--pmax", "97")
    doc = json.loads(out)
    assert [e["p"] for e in doc] == [3, 5, 11, 29, 37, 47, 61, 89]
    assert doc[0]["norm"] == "-9"


def test_solve_json(capsys):
    code, out = run(capsys, "solve", "--d", "34", "--z", "9", "--strict", "--n-range", "-1..1")
    assert code == 0
    doc = json.loads(out)
    assert doc["exists"] is True
    pairs = {(s["x"], s["y"]) for s in doc["solutions"]}
    assert (5, 1) in pairs and (379, 65) in pairs
    for s in doc["solutions"]:
        assert abs(s["norm"]) == 9


def test_solve_nonexistent(capsys):
    code, out = run(capsys, "solve", "--d", "2", "--z", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["exists"] is False and doc["solutions"] == []


def test_decompose_square_json(capsys):
    code, out = run(capsys, "decompose", "--d", "34", "--x", "405", "--y", "75")
    doc = json.loads(out)
    assert doc["kind"] == "square"
    assert doc["representation"]["scale"] == "15"
    assert doc["representation"]["terms"] == [{"p": 11, "exp": 1, "conj": False}]


@contextmanager
def _within_one_second():
    def expire(signum, frame):
        raise TimeoutError("no result within 1 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(1)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_solve_and_decompose_build_xi_only_for_the_primes_of_z(capsys):
    """A large prime in z costs one xi lookup, not a spectrum up to it."""
    with _within_one_second():
        code, out = run(capsys, "solve", "--d", "34", "--z", "100003")
    assert code == 0
    assert json.loads(out) == {
        "d": 34, "z": 100003, "exists": False, "case_tags": {"100003": "A2"}, "solutions": [],
    }
    with _within_one_second():
        code, out = run(capsys, "decompose", "--d", "2", "--x", "1003", "--y", "1")
    assert code == 0
    assert json.loads(out) == {
        "d": 2, "x": 1003, "y": 1, "kind": "strict",
        "representation": {
            "d": 2, "sign": 1, "m": 0, "n": 0,
            "terms": [{"p": 1006007, "exp": 1, "conj": False}],  # 1003^2 - 2 is prime
            "core": None, "scale": "1",
        },
    }


def test_answers_that_need_no_class_number_do_not_compute_it(capsys, monkeypatch):
    """The class number of d = 10^9+7 takes about 10 s; the unit, its powers
    and an inert z need none of it."""
    def refuse(disc):
        raise RuntimeError(f"class number of {disc} computed")

    monkeypatch.setattr(pellcore, "_narrow_class_number", refuse)
    d = 10**9 + 7
    with _within_one_second():
        ctx = pellcore.make_context(d)
        assert pellcore.pell_sequence(d, 1) == (ctx.f1, ctx.g1)
        code, out = run(capsys, "solve", "--d", str(d), "--z", "3")
    assert code == 0
    assert json.loads(out) == {
        "d": d, "z": 3, "exists": False, "case_tags": {"3": "A2"}, "solutions": [],
    }
    with pytest.raises(RuntimeError, match="class number"):
        ctx.h


def test_triples_case2_with_integral_negative_pell_builds_no_spectrum(capsys):
    """d = 181 pairs up powers of eta; its xi_29 alone takes seconds."""
    with _within_one_second():
        code, out = run(capsys, "triples", "--mode", "case2", "--d", "181", "--range", "2")
    assert code == 0
    source = {"alpha": "(1305+97\u221a181)/2", "beta": "1111225770+82596761\u221a181"}
    assert json.loads(out) == [
        {"a": "1305/2", "b": "1111225770", "c": c, "source": source} for c in ("1305", "-1/1305")
    ]


def test_rational_contains_reference_point(capsys):
    code, out = run(capsys, "rational", "--d", "34", "--sign", "-1", "--max-terms", "2",
                    "--n-range", "-2..2")
    doc = json.loads(out)
    assert any(pt["x"] == "5/3" and pt["y"] == "1/3" for pt in doc)
    assert all(pt["r"] == 1 for pt in doc)
    code, out = run(capsys, "rational", "--d", "34", "--sign", "1", "--max-terms", "-5")
    assert code == 2 and json.loads(out)["error"] == "ValueError"


def test_bisect_json_and_exit_codes(capsys):
    code, out = run(capsys, "bisect", "--a", "3/4", "--b", "12/5")
    assert code == 0
    assert json.loads(out) == {
        "a": "3/4", "b": "12/5", "c_plus": "9/7", "c_minus": "-7/9", "case": "I", "d": 1,
    }
    code, out = run(capsys, "bisect", "--a", "1", "--b", "7")
    doc = json.loads(out)
    assert (doc["c_plus"], doc["c_minus"], doc["case"], doc["d"]) == ("2", "-1/2", "II", 2)
    code, out = run(capsys, "bisect", "--a", "1", "--b", "2")
    assert code == 2
    assert json.loads(out)["error"] == "NoRationalBisector"


def test_bisect_factors_each_norm_once(capsys, monkeypatch):
    """The CLI's bisect takes d, a2 and b2 from one classify_pair and its slopes from
    from_pell_points, which does not factor: a^2+1 and b^2+1 are factored once each."""
    from pellbisect import bisector

    seen = []
    real = bisector.factorize
    monkeypatch.setattr(bisector, "factorize", lambda n: seen.append(n) or real(n))
    code, out = run(capsys, "bisect", "--a", "3/4", "--b", "12/5")
    assert code == 0 and json.loads(out)["c_plus"] == "9/7"
    assert seen == [625, 2704]  # (3/4)^2 + 1 and (12/5)^2 + 1 over the common denominator 20


def test_solve_prints_solutions_past_the_int_digit_limit(capsys):
    """x has 4371 and 4385 digits, past Python's 4300-digit int-to-str limit,
    which the CLI lifts for its own process."""
    code, out = run(capsys, "solve", "--d", "94", "--z", "27", "--n-range", "660..660")
    assert code == 0
    sols = json.loads(out)["solutions"]
    assert [len(str(abs(s["x"]))) for s in sols] == [4371, 4385]
    assert all(s["x"] ** 2 - 94 * s["y"] ** 2 == s["norm"] == 27 for s in sols)


def test_usage_error_exit_code(capsys):
    for bad in ("1//2", "1/0", "inf", "x"):
        with pytest.raises(SystemExit) as exc:
            main(["bisect", "--a", bad, "--b", "2"])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and f"argument --a: invalid rational value: '{bad}'" in captured.err
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 1


def test_d_list_usage_error_names_its_format(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "--d-list", "2,,5"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "argument --d-list: expected D,D,..., got '2,,5'" in captured.err


def test_domain_error_exit_code_for_bad_d(capsys):
    """solve builds the context before it checks z, so a bad d is the error
    reported even when z is bad too."""
    for argv in (("context", "--d", "12"), ("solve", "--d", "12", "--z", "1")):
        code, out = run(capsys, *argv)
        assert code == 2
        assert json.loads(out)["error"] == "NotSquareFreeError"


def test_triples_case1(capsys):
    code, out = run(capsys, "triples", "--mode", "case1", "--range", "5")
    doc = json.loads(out)
    assert {"a": "3/4", "b": "12/5", "c": "9/7", "source": {"l": 2, "m": 5, "n": 1}} in doc


def test_triples_case2(capsys):
    code, out = run(capsys, "triples", "--mode", "case2", "--d", "34", "--range", "2")
    doc = json.loads(out)
    assert any(t["a"] == "5/3" and t["b"] == "379/3" and t["c"] == "32/9" for t in doc)


def test_triples_case2_ascii(capsys):
    _, out = run(capsys, "triples", "--mode", "case2", "--d", "34", "--range", "2", "--ascii")
    doc = json.loads(out)
    assert "√" not in out
    assert doc[0]["source"]["alpha"] == "(5+sqrt(34))/3"


def test_triples_integral(capsys):
    code, out = run(capsys, "triples", "--mode", "integral", "--d", "2", "--range", "2")
    doc = json.loads(out)
    assert any((t["a"], t["b"], t["c"]) == ("1", "7", "2") for t in doc)
    assert any((t["a"], t["b"], t["c"]) == ("1", "-7", "3") for t in doc)


def test_table_matches_golden_fixture(capsys):
    code, out = run(capsys, "--format", "csv", "--ascii", "table")
    assert code == 0
    assert out == (DATA / "reference_table.csv").read_text()


def test_table_flags_after_subcommand(capsys):
    _, before = run(capsys, "--format", "csv", "--ascii", "table")
    _, after = run(capsys, "table", "--format", "csv", "--ascii")
    assert before == after


def test_table_unicode_cells(capsys):
    code, out = run(capsys, "--format", "csv", "table", "--d-list", "29", "--pmax", "5")
    lines = out.splitlines()
    assert lines[2] == "eta,(5+√29)/2"
    assert lines[5] == "N(xi_2),2²"


def test_table_text_format_deterministic(capsys):
    _, first = run(capsys, "--format", "text", "table", "--pmax", "13")
    _, second = run(capsys, "--format", "text", "table", "--pmax", "13")
    assert first == second
    assert first.startswith("d")


def test_run_table_rejects_bad_d(capsys):
    code, out = run(capsys, "table", "--d-list", "2,12")
    assert code == 2


def test_figure_deterministic_and_labeled(tmp_path, capsys):
    out_path = tmp_path / "fig.svg"
    code, _ = run(capsys, "figure", "--a", "3/4", "--b", "12/5", "--out", str(out_path))
    assert code == 0
    svg = out_path.read_text()
    assert "9/7" in svg and "-7/9" in svg
    assert svg == render_figure(__import__("fractions").Fraction(3, 4),
                                __import__("fractions").Fraction(12, 5))
    assert svg.count("<line") == 6  # two axes + four slope lines


def test_unwritable_out_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["context", "--d", "2", "--out", "/nonexistent/x.json"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "/nonexistent/x.json" in captured.err


def test_figure_irrational_pair_exits_2(tmp_path, capsys):
    out_path = tmp_path / "nope.svg"
    code, out = run(capsys, "figure", "--a", "1", "--b", "2", "--out", str(out_path))
    assert code == 2
    assert not out_path.exists()
    assert json.loads(out)["error"] == "NoRationalBisector"


def test_oracle_subcommands(capsys):
    code, out = run(capsys, "oracle", "solutions", "--d", "34", "--z", "9", "--ymax", "70")
    doc = json.loads(out)
    assert {"x": 5, "y": 1, "sign": -1, "strict": True} in doc
    code, out = run(capsys, "oracle", "xi", "--d", "17", "--p", "2", "--lmax", "3", "--ymax", "50")
    assert json.loads(out)["l"] == 3
    code, out = run(capsys, "oracle", "rational", "--d", "34", "--r", "1", "--zmax", "3",
                    "--ymax", "50")
    assert {"x": "5/3", "y": "1/3"} in json.loads(out)
    code, out = run(capsys, "oracle", "tangent", "--a", "1", "--b", "7", "--c", "-1/2")
    assert json.loads(out) == {"bisects": True}


# one argv per leaf of the parser: the ten subcommands that run and the four oracle sweeps
LEAVES = (("context", "--d", "5"), ("xi", "--d", "5", "--p", "11"), ("spectrum", "--d", "5"),
          ("solve", "--d", "5", "--z", "11"), ("decompose", "--d", "5", "--x", "4", "--y", "1"),
          ("rational", "--d", "5"), ("bisect", "--a", "3/4", "--b", "12/5"), ("triples", "--mode", "case1"),
          ("table",), ("figure", "--a", "3/4", "--b", "12/5"),
          ("oracle", "solutions", "--d", "34", "--z", "9", "--ymax", "10"),
          ("oracle", "xi", "--d", "34", "--p", "3", "--ymax", "10"),
          ("oracle", "rational", "--d", "2", "--r", "1", "--ymax", "10"),
          ("oracle", "tangent", "--a", "1", "--b", "7", "--c", "2"))


@pytest.mark.parametrize("leaf", LEAVES, ids=" ".join)
def test_every_leaf_takes_the_common_flags_before_and_after_itself(leaf):
    """--format, --ascii and --out parse the same before the subcommand and after the leaf,
    and a leaf given none of them keeps the values main starts from."""
    seen = []
    for argv in (leaf, ("--format", "text", "--ascii", "--out", "o", *leaf),
                 (*leaf, "--format", "text", "--ascii", "--out", "o")):
        parsed = cli._build_parser().parse_args(list(argv), argparse.Namespace(format="json", ascii=False, out=None))
        seen.append((parsed.format, parsed.ascii, parsed.out))
    assert seen == [("json", False, None)] + [("text", True, "o")] * 2


@pytest.mark.parametrize("leaf", LEAVES[-4:], ids=" ".join)
def test_oracle_sweeps_write_out_given_after_themselves(leaf, tmp_path, capsys):
    """The sweeps accept the common flags after themselves, as README says every subcommand does."""
    _, printed = run(capsys, *leaf)
    path = tmp_path / "o.json"
    code, out = run(capsys, *leaf, "--format", "json", "--ascii", "--out", str(path))
    assert code == 0 and out == "" and path.read_text() == printed


def test_json_outputs_are_deterministic(capsys):
    _, a = run(capsys, "solve", "--d", "2", "--z", "49", "--n-range", "-2..2")
    _, b = run(capsys, "solve", "--d", "2", "--z", "49", "--n-range", "-2..2")
    assert a == b


def test_module_invocation():
    import subprocess
    import sys

    r = subprocess.run(
        [sys.executable, "-m", "pellbisect", "context", "--d", "2"],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0
    assert json.loads(r.stdout)["d"] == 2


def test_run_table_defaults():
    params = inspect.signature(run_table).parameters
    assert params["d_list"].default == (2, 5, 10, 13, 17, 26, 29, 34)
    assert params["p_max"].default == 97
    assert params["format"].default == "text"
    text = run_table(format="csv", ascii_mode=True)
    assert text == (DATA / "reference_table.csv").read_text()


@pytest.mark.parametrize("d", (2, 5, 13, 17, 34, 41))
def test_rational_parity_filter_agrees_with_evaluation(d):
    """rational_family drops candidates by _parity_r before evaluating them;
    that is exact only if it is the r of every evaluated point."""
    from pellbisect.pellcore import make_context, spectrum
    from pellbisect.rationalpell import _family, _parity_r, generate_rational

    ctx = make_context(d)
    spec = spectrum(ctx, 31)
    for rep in _family(ctx, spec.primes, 2, range(-1, 2)):
        assert _parity_r(ctx, rep) == generate_rational(ctx, spec, rep).r, rep
