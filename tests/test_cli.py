import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qshuffle import algebra, catalan, render
from qshuffle.algebra import Element
from qshuffle.catalan import delta_element, nabla_element
from qshuffle.cli import main
from qshuffle.series import Series, delta_series


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_catalan_element(capsys):
    code, out, _ = run_cli(capsys, "compute", "C", "2")
    assert code == 0
    assert out.strip() == "[2]_q^2[3]_q xxyy + [2]_q^2 xyxy"


def test_compute_delta_negative_m(capsys):
    code, out, _ = run_cli(capsys, "compute", "delta", "--m", "-1", "--n", "3")
    assert code == 0
    assert out.strip() == "-xyxyxy"


def test_compute_element_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "compute", "nabla", "--m", "0", "--n", "2", "--format", "json")
    assert code == 0
    assert Element.from_json(json.loads(out)) == nabla_element(0, 2)


def test_compute_series_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "series:delta", "--m", "2", "--cutoff", "3", "--format", "json"
    )
    assert code == 0
    assert Series.from_json(json.loads(out)) == delta_series(2, 3)


def test_compute_element_latex_golden(capsys):
    cases = {
        ("C", "3"): "([2]_q^2[3]_q^2[4]_q)xxxyyy+([2]_q^3[3]_q^2)xxyxyy"
        "+([2]_q^3[3]_q)xxyyxy+([2]_q^3[3]_q)xyxxyy+([2]_q^3)xyxyxy",
        ("beck", "--n", "2"): r"(-\tfrac{1}{2}q^{-11}+\tfrac{1}{2}q^{-9}+\tfrac{1}{2}q^{-7}"
        r"-\tfrac{1}{2}q^{-5}+\tfrac{1}{2}q^{-3}-\tfrac{1}{2}q^{-1}-\tfrac{1}{2}q"
        r"+\tfrac{1}{2}q^{3})xxyy",
        ("delta", "--m", "0", "--n", "2"): "0",
        ("Gtilde", "0"): "1",
        ("delta", "--m", "-1", "--n", "2"): "(1)xyxy",
    }
    for args, want in cases.items():
        code, out, _ = run_cli(capsys, "compute", *args, "--format", "latex")
        assert code == 0
        assert out == want + "\n", args


RENDER_GOLDEN = Path(__file__).parent / "golden" / "cli_render.json"


def test_cli_output_matches_the_render_corpus(capsys):
    """Byte-for-byte stdout, stderr and exit code of 165 requests: every
    compute kind in human and LaTeX, the series at cutoffs 0 and 3, tables
    in every format, enumerate, and refused formats."""
    for case in json.loads(RENDER_GOLDEN.read_text(encoding="utf-8")):
        got = run_cli(capsys, *case["argv"])
        assert got == (case["exit"], case["stdout"], case["stderr"]), case["argv"]


def test_compute_bad_kind(capsys):
    code, _, err = run_cli(capsys, "compute", "bogus", "1")
    assert code == 2
    assert "unknown compute kind" in err


@pytest.mark.parametrize("argv, what, formats", [
    (("compute", "C", "2", "--format", "csv"), "compute C", "human, json, latex"),
    (("compute", "series:C", "--format", "latex"), "compute series:C", "human, json"),
    (("enumerate", "2", "--format", "latex"), "enumerate", "human, json"),
    (("verify", "qserre", "--format", "csv"), "verify", "human, json"),
])
def test_unrendered_format_is_refused(capsys, argv, what, formats):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {what} does not render --format {argv[-1]}; it renders {formats}\n"


def test_bad_cutoff_variable_is_named(capsys, monkeypatch):
    monkeypatch.setenv("QSHUFFLE_CUTOFF", "abc")
    code, out, err = run_cli(capsys, "compute", "series:C")
    assert code == 2
    assert out == ""
    assert err == "error: QSHUFFLE_CUTOFF must be an integer, got 'abc'\n"


def test_compute_missing_params(capsys):
    code, _, err = run_cli(capsys, "compute", "delta", "--n", "1")
    assert code == 2


def test_compute_refuses_what_it_would_drop(capsys):
    # a positional n that disagrees with --n, and --m to a kind that takes none
    assert run_cli(capsys, "compute", "C", "3", "--n", "2") == (
        2, "", "error: index 3 disagrees with --n 2\n")
    assert run_cli(capsys, "compute", "C", "2", "--m", "5") == (
        2, "", "error: compute C takes no --m\n")
    assert run_cli(capsys, "compute", "C", "2", "--n", "2") == (
        0, "[2]_q^2[3]_q xxyy + [2]_q^2 xyxy\n", "")


def test_verify_single_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "qserre")
    assert code == 0
    assert "PASS" in out and "qserre" in out


def test_verify_unknown_name(capsys):
    # --all runs every check, but does not excuse a name that is none of them
    for extra in ((), ("--all",)):
        code, out, err = run_cli(capsys, "verify", "bogus_name", *extra)
        assert code == 2, extra
        assert "unknown checks: bogus_name" in err
        assert out == ""


def test_verify_failure_exit_code(capsys, monkeypatch):
    from qshuffle import checks as checks_mod
    from qshuffle.checks import CheckReport, Witness

    def failing(cfg, ctx=None):
        return CheckReport(
            "qserre", {}, "fail",
            Witness("forced failure", None, 4, Element.from_word("xxxy")),
            0.0,
        )

    monkeypatch.setitem(checks_mod.CHECKS, "qserre", failing)
    code, out, _ = run_cli(capsys, "verify", "qserre")
    assert code == 1
    assert "FAIL" in out


def test_verify_inexact_division_exits_1(capsys, monkeypatch):
    from qshuffle import checks as checks_mod
    from qshuffle.qlaurent import q_int

    # a commutator divided by [2]_q, which does not divide it: a red check, not an error
    monkeypatch.setattr(checks_mod, "commutator", lambda m, a, b: (a * b).div_exact(q_int(2)))
    code, out, err = run_cli(capsys, "verify", "nabla_recursion")
    assert code == 1
    assert "FAIL  nabla_recursion" in out and "not divisible" in out
    assert err == ""


def test_verify_empty_grid_fails(capsys):
    code, out, _ = run_cli(capsys, "verify", "nabla_recursion", "zeta_suite", "structural",
                           "--n-max", "0", "--cutoff", "0")
    assert code == 1
    assert "EMPTY" in out
    assert out.strip().split("\n")[-1] == "2/3 checks passed"


def test_verify_at_cutoff_zero_reports_every_check(capsys):
    code, out, err = run_cli(capsys, "verify", "--all", "--cutoff", "0",
                             "--m-min", "-1", "--m-max", "1", "--n-max", "2")
    assert code == 1  # expderivative compares nothing at cutoff 0
    lines = out.splitlines()
    assert len(lines) == 13 and lines[-1] == "11/12 checks passed"
    assert [line.split()[1] for line in lines[:-1] if not line.startswith("PASS")] == ["expderivative"]
    assert err == ""


def test_verify_json_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "qserre", "zeta_suite",
                             "--n-max", "2", "--format", "json")
    code2, out2, _ = run_cli(capsys, "verify", "qserre", "zeta_suite",
                             "--n-max", "2", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert [r["check"] for r in payload] == ["qserre", "zeta_suite"]
    assert all("elapsed" not in r for r in payload)


def test_enumerate(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "3")
    assert code == 0
    assert out.split() == ["xxxyyy", "xxyxyy", "xxyyxy", "xyxxyy", "xyxyxy"]


def test_enumerate_empty_word(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "0")
    assert code == 0
    assert out.strip() == "1"


def test_enumerate_count_only(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "6", "--count-only")
    assert code == 0
    assert out.strip() == "132"


def test_enumerate_decorations(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "2", "--profiles", "--elevations")
    assert code == 0
    assert "profile=0,2,0" in out
    assert "elevation=0,1,2,1,0" in out


def test_enumerate_cap(capsys):
    code, _, err = run_cli(capsys, "enumerate", "40")
    assert code == 2
    assert "cap" in err


@pytest.mark.parametrize("argv", [
    ("compute", "C", "1", "--output"),
    ("verify", "qserre", "--n-max", "2", "--output"),
    ("table", "delta", "-1", "1", "2", "--output"),
])
def test_unwritable_path_is_a_usage_error(tmp_path, capsys, argv):
    code, out, err = run_cli(capsys, *argv, str(tmp_path / "missing" / "x"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_table_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "delta", "-3", "3", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "w,m=-3,m=-2,m=-1,m=0,m=1,m=2,m=3"
    rows = {line.split(",")[0]: line for line in lines[1:]}
    assert rows["1"] == "1,1,1,1,1,1,1,1"
    assert rows["xy"] == "xy,-[3]_q,-[2]_q,-1,0,1,[2]_q,[3]_q"
    assert rows["xxyy"] == "xxyy,[2]_q^2[3]_q,[2]_q^2,0,0,[2]_q^2,[2]_q^2[3]_q,[2]_q[3]_q[4]_q"


def test_table_csv_full_golden(capsys):
    """The two reference tables, all words of length <= 6, compared cell for
    cell against the frozen expansions through the CLI surface."""
    from test_catalan import DELTA_TABLE, NABLA_TABLE
    from conftest import bracket_str

    for family, table in (("delta", DELTA_TABLE), ("nabla", NABLA_TABLE)):
        code, out, _ = run_cli(capsys, "table", family, "-3", "3", "3", "--format", "csv")
        assert code == 0
        rows = sorted(table.items(), key=lambda kv: (len(kv[0]), kv[0]))
        expected = ["w," + ",".join(f"m={m}" for m in range(-3, 4))]
        for s, cells in rows:
            expected.append((s or "1") + "," + ",".join(bracket_str(c) for c in cells))
        assert out.strip().split("\n") == expected


def test_table_latex(capsys):
    code, out, _ = run_cli(capsys, "table", "nabla", "-1", "1", "1", "--format", "latex")
    assert code == 0
    assert out.startswith("\\begin{tabular}")
    assert "$\\nabla^{(0)}(w)$" in out
    assert "$xy$ & $1$ & $1$ & $1$" in out


def test_table_zero_column(capsys):
    code, out, _ = run_cli(capsys, "table", "delta", "0", "0", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[1] == "1,1"
    assert all(line.endswith(",0") for line in lines[2:])


def test_output_file(tmp_path, capsys):
    target = tmp_path / "c2.json"
    code, out, _ = run_cli(capsys, "compute", "C", "2", "--format", "json",
                           "--output", str(target))
    assert code == 0
    assert out == ""
    assert Element.from_json(json.loads(target.read_text())) == delta_element(2, 2)


def test_determinism_and_cache_independence(capsys):
    # cold (empty shuffle memo), then warm
    algebra.clear_caches()
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "compute", "C", "3")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_env_and_config_precedence(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cutoff": 1}))
    # config file < env < flag
    monkeypatch.setenv("QSHUFFLE_CONFIG", str(cfg))
    code, out, _ = run_cli(capsys, "compute", "series:Gtilde", "--format", "json")
    assert json.loads(out)["cutoff"] == 1
    monkeypatch.setenv("QSHUFFLE_CUTOFF", "2")
    code, out, _ = run_cli(capsys, "compute", "series:Gtilde", "--format", "json")
    assert json.loads(out)["cutoff"] == 2
    code, out, _ = run_cli(capsys, "compute", "series:Gtilde", "--format", "json",
                           "--cutoff", "3")
    assert json.loads(out)["cutoff"] == 3


def test_bad_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nope": 1}))
    code, _, err = run_cli(capsys, "compute", "C", "1", "--config", str(cfg))
    assert code == 2
    assert "unknown config key" in err


def _config_error(tmp_path, capsys, content):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(content)
    code, out, err = run_cli(capsys, "compute", "C", "1", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    return err


def test_negative_enumerate_index_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "enumerate", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: n must be non-negative\n" and "Traceback" not in err


def test_config_file_must_hold_an_object(tmp_path, capsys):
    assert "JSON object" in _config_error(tmp_path, capsys, "[1, 2]")


def test_config_integer_given_as_string(tmp_path, capsys):
    assert "cutoff must be an integer" in _config_error(tmp_path, capsys, '{"cutoff": "5"}')


def test_config_integer_given_as_float_or_bool(tmp_path, capsys):
    assert "n_max must be an integer" in _config_error(tmp_path, capsys, '{"n_max": 2.5}')
    assert "m_min must be an integer" in _config_error(tmp_path, capsys, '{"m_min": true}')


def test_config_unknown_output_format(tmp_path, capsys):
    err = _config_error(tmp_path, capsys, '{"output_format": "yaml"}')
    assert "output_format must be one of human, json, latex, csv" in err


def test_config_output_path_not_a_string(tmp_path, capsys):
    assert "output_path must be a string or null" in _config_error(
        tmp_path, capsys, '{"output_path": 3}'
    )


def test_config_cache_key_is_unknown(tmp_path, capsys):
    err = _config_error(tmp_path, capsys, '{"cache_enabled": false}')
    assert "unknown config key 'cache_enabled'" in err
    with pytest.raises(SystemExit) as exc:
        main(["compute", "C", "1", "--no-cache"])
    assert exc.value.code == 2


def test_config_file_values_pass_through(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    out_path = tmp_path / "out.json"
    cfg.write_text(json.dumps({"output_format": "json", "output_path": str(out_path),
                               "cutoff": 2, "m_min": -1, "m_max": 1, "n_max": 2}))
    code, out, _ = run_cli(capsys, "compute", "series:C", "--config", str(cfg))
    assert code == 0 and out == ""
    assert Series.from_json(json.loads(out_path.read_text())).cutoff == 2


def test_invalid_ranges(capsys):
    code, _, err = run_cli(capsys, "compute", "C", "1", "--m-min", "3", "--m-max", "-3")
    assert code == 2


def test_verify_all_small_grid(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--all",
        "--m-min", "-1", "--m-max", "1", "--n-max", "2", "--cutoff", "2",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[-1] == "12/12 checks passed"
    assert all(line.startswith("PASS") for line in lines[:-1])


def test_verify_json_independent_of_cache(capsys):
    # cold (empty shuffle memo), then warm
    algebra.clear_caches()
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(
            capsys, "verify", "qserre", "structural", "zeta_suite",
            "--m-min", "-1", "--m-max", "1", "--n-max", "2", "--cutoff", "2",
            "--format", "json",
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_table_positionals_do_not_clash_with_global_flags(capsys):
    # the table ranges are positional; the global range flags stay usable
    code, out, _ = run_cli(capsys, "table", "nabla", "-1", "1", "1",
                           "--format", "csv", "--cutoff", "3")
    assert code == 0
    assert out.splitlines()[0] == "w,m=-1,m=0,m=1"


def test_oversized_family_is_refused_at_once(capsys):
    # within the 32-letter cap, but 35,357,670 Catalan words
    for argv in (("compute", "delta", "--m", "2", "--n", "16"), ("enumerate", "16")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "35357670 Catalan words" in err


def test_verify_refused_product_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(algebra, "_SHUFFLE_BUDGET", 10)
    code, out, err = run_cli(capsys, "verify", "commutation", "--n-max", "2")
    assert code == 2
    assert out == ""
    assert "interleavings" in err


def test_verify_refused_in_a_worker_exits_as_in_process(capsys, monkeypatch):
    from qshuffle import checks as checks_mod

    monkeypatch.setattr(algebra, "_SHUFFLE_BUDGET", 100)
    results = []
    for cpus in (1, 2):
        monkeypatch.setattr(checks_mod, "_cpu_count", lambda: cpus)
        results.append(run_cli(capsys, "verify", "--all", "--n-max", "3", "--cutoff", "3"))
        assert not multiprocessing.active_children()
    assert results[0] == results[1]
    assert results[0][0] == 2 and "interleavings" in results[0][2]


@pytest.mark.skipif(sys.platform != "linux", reason="run_all forks workers on Linux only")
@pytest.mark.parametrize("cpus, forks", [({0}, 0), ({0, 1}, 2)])
def test_verify_forks_one_worker_per_cpu(capsys, monkeypatch, cpus, forks):
    # one CPU in the affinity set: the checks run in this process
    forked = []
    real_fork = os.fork

    def fork():
        forked.append(1)
        return real_fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    monkeypatch.setattr(os, "fork", fork)
    code, out, _ = run_cli(capsys, "verify", "--all", "--n-max", "2", "--cutoff", "2")
    assert code == 0 and "12/12 checks passed" in out
    assert len(forked) == forks
    assert not multiprocessing.active_children()


SRC = Path(__file__).resolve().parents[1] / "src"


def _python(*args, **kw):
    """A fresh interpreter that imports qshuffle from this checkout."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.Popen([sys.executable, *args], env=env, **kw)


def _members():
    """(compute arguments, member) of every walked family through n = 6, the
    zero member (m = 0), the unit (n = 0), and the Fraction coefficients of
    beck."""
    for family, ms in (("delta", range(-3, 4)), ("nabla", range(-3, 4)), ("C", [None]), ("D", [None])):
        for m in ms:
            for n in range(catalan.FAMILIES[family][2], 7):
                argv = (family, "--n", str(n)) + (() if m is None else ("--m", str(m)))
                yield argv, catalan.member(family, m, n)
    for n in range(3):
        yield ("Gtilde", str(n)), catalan.member("Gtilde", None, n)
        yield ("beck", "--n", str(n + 1)), catalan.embedding_image("Beck_Edelta", n + 1)


def test_streamed_members_equal_the_built_members_rendered(tmp_path, capsys):
    # compute streams from the walk's packed leaves, one word at a time; its
    # text is what the whole-element writers give for the built member
    target = tmp_path / "out"
    seen = set()
    for argv, el in _members():
        seen.add(("zero" if el.is_zero() else "unit" if el == algebra.UNIT else
                  "fraction" if not el.is_integral() else "integral"))
        want = {
            "human": render.element_str(el) + "\n",
            "latex": render.element_latex(el) + "\n",
            "json": json.dumps(el.to_json(), indent=2) + "\n",
        }
        for fmt, text in want.items():
            assert run_cli(capsys, "compute", *argv, "--format", fmt) == (0, text, ""), (argv, fmt)
            code, out, err = run_cli(capsys, "compute", *argv, "--format", fmt, "--output", str(target))
            assert (code, out, err) == (0, "", "") and target.read_text() == text, (argv, fmt)
    assert seen == {"zero", "unit", "fraction", "integral"}


def test_a_closed_pipe_ends_compute_quietly():
    # the reader takes the first line and goes, as `| head -1` does; the
    # request still exits 0 and writes nothing to stderr
    p = _python("-m", "qshuffle.cli", "compute", "delta", "--m", "2", "--n", "9", "--format", "json",
                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert p.stdout.readline() == b"[\n"
    p.stdout.close()
    err = p.stderr.read()
    p.stderr.close()
    assert (p.wait(timeout=60), err) == (0, b"")


def test_compute_imports_neither_checks_nor_series():
    # nor the process pool, which only run_all's parallel branch imports
    code = ("import sys\n"
            "from qshuffle.cli import main\n"
            "main(['compute', 'C', '2'])\n"
            "mods = ('qshuffle.checks', 'qshuffle.series', 'concurrent.futures', 'multiprocessing')\n"
            "print(sorted(m for m in mods if m in sys.modules))\n"
            "import qshuffle\n"
            "qshuffle.Series, qshuffle.run_all\n"
            "print(sorted(m for m in mods if m in sys.modules))\n")
    p = _python("-c", code, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    out, err = p.communicate(timeout=60)
    assert (p.returncode, err) == (0, "")
    assert out.splitlines()[1:] == ["[]", "['qshuffle.checks', 'qshuffle.series']"]


def test_star_import_names_are_unchanged_and_lazy_names_resolve():
    import qshuffle

    ns: dict = {}
    exec("from qshuffle import *", ns)
    assert sorted(set(ns) - {"__builtins__"}) == sorted(qshuffle.__all__) == [
        "CapExceededError", "CheckReport", "CutoffMismatchError", "DegenerateProfileError",
        "EMPTY_WORD", "Element", "InexactDivisionError", "LaurentPoly",
        "NonCatalanWordError", "QShuffleError", "Q_COMM", "Series",
        "TrivialWordError", "VerifyConfig", "Witness", "Word", "algebra", "alternating_word",
        "beck_log_argument", "catalan", "catalan_element", "catalan_number",
        "checks", "commutator", "d_element", "d_series", "delta_element", "delta_scalar",
        "delta_series", "elevation_sequence", "embedding_image", "enumerate_catalan", "errors",
        "family_series", "gtilde_element", "gtilde_series", "is_balanced", "is_catalan",
        "kronecker", "length_cap", "log_argument", "member",
        "nabla_element", "nabla_from_profile", "nabla_scalar", "nabla_split",
        "profile", "q_falling", "q_int", "q_pow", "qlaurent", "run_all", "series",
        "set_length_cap", "shuffle_fold", "shuffle_sum", "vanishing_bound", "word",
        "words", "x_cn_y", "zeta_word",
    ]
    assert set(qshuffle.__all__) <= set(dir(qshuffle))
    for name in ("Letter", "Profile", "weight", "zeta", "c_series", "nabla0_series",
                 "x_cn_y_series", "nabla0_log_argument"):
        with pytest.raises(ImportError):
            exec(f"from qshuffle import {name}", {})
    assert qshuffle.Series is Series and qshuffle.series.delta_series is delta_series
    with pytest.raises(AttributeError):
        qshuffle.no_such_name
