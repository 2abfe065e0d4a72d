"""Script harness: transcripts, error paths, selftest, entry point."""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dynwalk
from dynwalk import dyncore
from dynwalk.cli import main, run_script, run_selftest


def lines(script):
    return list(run_script(script).lines)


# -- the worked examples -----------------------------------------------------


def test_single_edge_accepts():
    t = run_script(
        "init n=2 d=1 alpha=1/2 prec=exact ell=2\n"
        "batch +(0,1)\n"
        "query expansion\n"
    )
    assert t.lines == ("expansion: accept",)
    assert t.exit_code == 0


def test_disjoint_edges_reject_with_witness():
    t = run_script(
        "init n=4 d=1 alpha=1/2 prec=exact ell=1\n"
        "batch +(0,1) +(2,3)\n"
        "query expansion\n"
    )
    assert t.lines == ("expansion: reject witness=0 value=1/2",)


def test_entry_query_reads_lazy_walk():
    t = run_script(
        "init n=2 d=1 prec=exact ell=1\n"
        "batch +(0,1)\n"
        "query entry 0 0 1\n"
    )
    assert t.lines == ("entry: 1/2",)


# -- grammar and parse errors ---------------------------------------------------


def test_comments_and_blank_lines_are_skipped():
    t = run_script(
        "# a comment\n"
        "\n"
        "init n=2 d=1 ell=1   # trailing comment\n"
        "batch +(0,1)\n"
        "query entry 0 1 1\n"
    )
    assert t.lines == ("entry: 1/2",)
    assert t.exit_code == 0


def test_parse_errors_report_line_and_poison_exit_code():
    t = run_script(
        "init n=2 d=1 ell=1\n"
        "flarble\n"
        "batch +(0,1)\n"
        "batch (0,1)\n"
        "query entry 0 0 1\n"
    )
    assert t.lines[0] == "parse error at line 2: unknown command 'flarble'"
    assert t.lines[1] == "parse error at line 4: bad edge op '(0,1)'; expected +(u,v) or -(u,v)"
    # execution continued: the final query still answered
    assert t.lines[2] == "entry: 1/2"
    assert t.parse_errors == 2
    assert t.exit_code == 1


def test_init_parameter_validation():
    assert lines("init d=1\n") == ["parse error at line 1: init needs n=..."]
    assert lines("init n=2 d=1 n=3\n") == [
        "parse error at line 1: duplicate init parameter 'n'"
    ]
    assert lines("init n=2 d=1 flavor=latte\n") == [
        "parse error at line 1: unknown init parameter 'flavor'"
    ]
    assert lines("init n=two d=1\n") == [
        "parse error at line 1: n must be an integer, got 'two'"
    ]
    assert lines("init n=2 d=1 alpha=0.5\n") == [
        "parse error at line 1: alpha must be p/q, got '0.5'"
    ]
    assert lines("init n=2 d=1 prec=fuzzy\n") == [
        "parse error at line 1: prec must be exact or bits:<int>, got 'fuzzy'"
    ]
    assert lines("init n=2 d=1 mode=sideways\n") == [
        "parse error at line 1: mode must be direct or muddled, got 'sideways'"
    ]


def test_query_grammar_errors():
    prefix = "init n=2 d=1 ell=1\n"
    assert lines(prefix + "query\n")[-1].startswith("parse error at line 2: query needs")
    assert lines(prefix + "query entry 0 0\n") == [
        "parse error at line 2: query entry needs <s> <t> <j>"
    ]
    assert lines(prefix + "query lambda\n") == [
        "parse error at line 2: lambda needs tol=..."
    ]
    assert lines(prefix + "query vibes\n") == [
        "parse error at line 2: unknown query subject 'vibes'"
    ]
    assert lines(prefix + "trace maybe\n") == [
        "parse error at line 2: trace takes exactly one of: on, off"
    ]


# -- semantic error lines ----------------------------------------------------------


def test_query_before_init():
    t = run_script("query expansion\n")
    assert t.lines == ("error: not initialized; the first command must be init",)
    assert t.exit_code == 0  # semantic, not parse


def test_alpha_of_one_without_ell_is_an_error_line():
    # the default walk length divides by 1 - alpha; it must refuse, not crash
    t = run_script(
        "init n=4 d=2 alpha=1/1\n"
        "init n=2 d=1 alpha=1/2 prec=exact ell=2\n"
        "batch +(0,1)\n"
        "query expansion\n"
    )
    assert t.lines == (
        "error: alpha must lie strictly between 0 and 1",
        "expansion: accept",
    )
    assert t.exit_code == 0


def test_rejected_batch_becomes_error_line_and_state_survives():
    t = run_script(
        "init n=2 d=1 ell=1\n"
        "batch +(0,1)\n"
        "batch +(0,1)\n"
        "query entry 0 0 1\n"
    )
    assert t.lines == (
        "error: batch rejected at op 0: edge (0, 1) already present",
        "entry: 1/2",
    )


def test_budget_exhaustion_line():
    t = run_script(
        "init n=3 d=2 prec=bits:10 ell=1\n"
        "batch +(0,1)\n"
        "batch +(1,2)\n"
        "batch +(0,2)\n"
        "query entry 0 0 0\n"
    )
    assert t.lines == (
        "error: precision budget exhausted after 2 steps",
        "entry: 1/1",
    )


def test_precision_refusal_line():
    t = run_script(
        "init n=32 d=2 prec=bits:16 ell=1\n"
        "query expansion\n"
    )
    assert t.lines == ("error: certified error 2^-14 exceeds 1/n^3 at n=32",)


def test_conductance_refuses_past_twenty_vertices():
    t = run_script("init n=21 d=2 ell=1\nquery conductance\n")
    assert t.lines == ("error: refusing conductance enumeration for n=21 > 20",)


def test_muddled_requires_bits():
    t = run_script("init n=4 d=2 mode=muddled L=2\nquery expansion\n")
    assert t.lines[0] == "error: muddled mode needs prec=bits:<int>"
    assert t.lines[1] == "error: not initialized; the first command must be init"


# -- queries beyond the examples -------------------------------------------------------


def test_lambda_and_conductance_output_shapes():
    t = run_script(
        "init n=4 d=2 ell=1\n"
        "batch +(0,1) +(1,2) +(2,3) +(3,0)\n"
        "query lambda tol=1/64\n"
        "query conductance\n"
    )
    lam, cond = t.lines
    assert lam.startswith("lambda: lower=") and " upper=" in lam
    assert cond == "conductance: 1/4 set=0,1"


def test_trace_lines_direct_mode():
    t = run_script(
        "init n=4 d=1 prec=bits:32 ell=1\n"
        "trace on\n"
        "batch +(0,1)\n"
        "batch +(2,3)\n"
        "trace off\n"
        "batch -(0,1)\n"
        "query entry 0 0 1\n"
    )
    assert t.lines == (
        "trace: step=1 version=1 spent=1",
        "trace: step=2 version=2 spent=2",
        "entry: 1/1",
    )


def test_trace_lines_muddled_mode():
    t = run_script(
        "init n=4 d=1 prec=bits:32 mode=muddled L=2 ell=1\n"
        "trace on\n"
        "batch +(0,1)\n"
        "batch +(2,3)\n"
        "query expansion\n"
    )
    assert t.lines == (
        "trace: 1\t2\t1\t0",
        "trace: 2\t2\t1\t1",
        "expansion: reject witness=0 value=1/2",
    )


def test_transcripts_are_deterministic():
    script = (
        "init n=5 d=2 prec=bits:32 ell=1\n"
        "trace on\n"
        "batch +(0,1) +(1,2)\n"
        "batch -(0,1) +(3,4)\n"
        "query expansion\n"
        "query entry 0 2 2\n"
        "query conductance\n"
    )
    assert run_script(script).text == run_script(script).text


def _raise_zero_pivot(state, gadget):
    raise AssertionError("zero pivot in a diagonally dominant matrix")


def test_internal_error_stops_the_script_with_exit_code_3(monkeypatch):
    monkeypatch.setattr(dyncore, "apply_gadget", _raise_zero_pivot)
    t = run_script(
        "init n=4 d=2 ell=1\n"
        "flarble\n"
        "batch +(0,1)\n"
        "query expansion\n"
    )
    assert t.lines == (
        "parse error at line 2: unknown command 'flarble'",
        "internal error at line 3: zero pivot in a diagonally dominant matrix",
    )
    assert t.parse_errors == 1 and t.internal_error
    assert t.exit_code == 3


def test_main_exits_3_on_an_internal_error(monkeypatch, capsys):
    monkeypatch.setattr(dyncore, "apply_gadget", _raise_zero_pivot)
    monkeypatch.setattr("sys.stdin", io.StringIO("init n=2 d=1 ell=1\nbatch +(0,1)\n"))
    assert main(["run"]) == 3
    assert capsys.readouterr().out == (
        "internal error at line 2: zero pivot in a diagonally dominant matrix\n"
    )


# -- selftest and entry point ------------------------------------------------------------


def test_selftest_green():
    buf = io.StringIO()
    assert run_selftest(buf) == 0
    # the seeded suites print the same lines on every run; a dropped or
    # added check changes a count
    assert buf.getvalue().splitlines() == [
        "suite division: pass (20 checks)",
        "suite determinants: pass (25 checks)",
        "suite power cascade: pass (13 checks)",
        "suite incremental vs oracle: pass (13 checks)",
        "suite walk counting: pass (8 checks)",
        "selftest: 5 suites passed (79 checks)",
    ]


# Under -O a bare assert is compiled away; the selftest must still catch an
# apply_gadget that folds nothing (it only bumps the version).
_BROKEN_FOLD_SELFTEST = """
import sys
from dataclasses import replace
from dynwalk import cli, dyncore
dyncore.apply_gadget = lambda state, gadget: replace(state, version=state.version + 1)
sys.exit(cli.main(["selftest"]))
"""


def test_selftest_fails_under_optimize_when_the_fold_is_broken():
    env = dict(os.environ)
    src = str(Path(dynwalk.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_FOLD_SELFTEST],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert "suite incremental vs oracle: FAIL" in proc.stdout.splitlines()
    assert proc.returncode != 0


def test_main_runs_script_file(tmp_path, capsys):
    path = tmp_path / "script.txt"
    path.write_text("init n=2 d=1 ell=1\nbatch +(0,1)\nquery expansion\n")
    assert main(["run", str(path)]) == 0
    assert capsys.readouterr().out == "expansion: accept\n"


def test_main_reads_stdin_by_default(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("query expansion\nnope\n"))
    assert main(["run"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("error: not initialized")
    assert out[1].startswith("parse error at line 2")


@pytest.mark.parametrize(
    "argv",
    [
        ["muddle_trace.py", "--steps", "5"],
        ["expansion_demo.py", "--family", "cycle", "--n", "6", "--max-ell", "2"],
        ["apply_vs_rebuild.py", "--n", "8", "--k", "3", "4", "--batches", "2", "--warmup", "0"],
    ],
)
def test_scripts_run(argv):
    script = Path(__file__).resolve().parent.parent / "scripts" / argv[0]
    proc = subprocess.run(
        [sys.executable, str(script), *argv[1:]],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
