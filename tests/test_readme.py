"""The README's library quick start runs, and the claim in each of its
comments holds; the sizes its Determinism section names are the code's."""

import ast
import re
from pathlib import Path

import icci
from icci.region import _REACH_PASS
from icci.sweep import _BLOCK

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def run_quick_start() -> tuple[dict, dict]:
    """The quick start's namespace after running it, and its claims: each
    expression statement's value and the comment on its line."""
    code = quick_start()
    lines = code.splitlines()
    namespace: dict = {}
    claims = {}
    for stmt in ast.parse(code).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), str(README), "eval"), namespace)
            claims[ast.get_source_segment(code, stmt)] = (value, lines[stmt.lineno - 1].partition("#")[2].strip())
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), str(README), "exec"), namespace)
    return namespace, claims


def test_quick_start_claims():
    _, claims = run_quick_start()
    value, comment = claims["icci.contains(inner, (0.5, 2.0, 2.0))"]
    assert value is True and comment == "True"
    value, comment = claims["icci.vertices(inner)"]
    assert value.shape == (16, 3) and comment.startswith("(16, 3) array")
    for expr in ("cert.slack", "per_rate.slack"):
        value, comment = claims[expr]
        assert value >= 0 and comment.startswith(">= 0"), expr
    value, comment = claims["icci.dof_ic(0.6), icci.dof_icci(0.6)"]
    assert value == (0.6, 0.7) and comment.startswith("(0.6, 0.7)")
    value, comment = claims["icci.mi_discrepancy(gains)"]
    assert value < 1e-12 and comment.startswith("~1e-14")


def test_quick_start_judges_every_slack_by_one_rule():
    # passed(tol) is the least of the delta, containment and clipped gap
    # slacks against -tol, on the witness whose G2 delta is 3.6e-15 over
    # budget too, and no field of a check depends on the tol it was made with
    namespace, claims = run_quick_start()
    check, witness = namespace["check"], namespace["witness"]
    value, comment = claims["check.passed(1e-9)"]
    assert value is True and comment.startswith("True")
    value, comment = claims["witness.delta_slack"]
    assert abs(value / -3.6e-15 - 1) < 0.02 and comment.startswith("~-3.6e-15")
    value, comment = claims["witness.passed(1e-9), witness.passed(0.0)"]
    assert value == (True, False) and comment.startswith("(True, False)")
    for c in (check, witness):
        least = min(c.delta_slack, c.containment_slack, c.gap_slack)
        for tol in (0.0, 1e-15, 1e-9):
            made = icci.check_channel(c.index, c.gains, bits=2.0, tol=tol)
            assert made == c and c.passed(tol) == (least >= -tol), (c.index, tol)


def test_determinism_names_the_block_and_pass_sizes():
    section = README.read_text(encoding="utf-8").split("### Determinism", 1)[1]
    prose = section.split("```", 1)[0]
    assert re.findall(r"blocks of up to (\d+)", prose) == [str(_BLOCK)]
    assert re.findall(r"passes of a fixed size, (\d+) columns", prose) == [str(_REACH_PASS)]
    # no other size, which could go stale unchecked
    assert set(re.findall(r"\b\d+\b", prose)) == {str(_BLOCK), str(_REACH_PASS)}
