"""Every exported name resolves, and so does every name the traced
benchmark run wraps or reads off a region, so that deleting one fails
here rather than in ``bench/run.py --trace 1``."""

import ast
import importlib
from pathlib import Path

import pytest

from icci.bounds import inner_coeffs, outer_coeffs
from icci.channel import ChannelGains, GdofExponents
from icci.gdof import build_gdof_region, gdof_coeffs
from icci.region import build_inner, build_outer

ROOT = Path(__file__).resolve().parents[1]
# every module of the package but the entry point, which runs the CLI on import
MODULES = ["icci"] + [f"icci.{path.stem}" for path in sorted((ROOT / "src" / "icci").glob("*.py"))
                      if path.stem not in ("__init__", "__main__")]


def tracer_source() -> ast.Module:
    return ast.parse((ROOT / "bench" / "tracer.py").read_text(encoding="utf-8"))


def traced_names() -> list[tuple[str, str]]:
    """The (module, attribute) pairs of ``TIMED`` in bench/tracer.py, read
    from its source without importing it."""
    tree = tracer_source()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TIMED" for t in node.targets):
            return [(module, attr) for module, attr, _span in ast.literal_eval(node.value)]
    raise AssertionError("bench/tracer.py assigns no TIMED")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_every_traced_name_resolves():
    pairs = traced_names()
    assert ("icci.gdof", "per_user_dof_optimum") in pairs
    # the tracer wraps each as a function
    assert [pair for pair in pairs if not callable(getattr(importlib.import_module(pair[0]), pair[1], None))] == []


def test_every_attribute_the_tracer_reads_off_a_region_resolves():
    # the tracer counts triples from the region ``vertices`` is called on,
    # as math.comb(len(args[0].halfspaces) + 3, 3)
    attrs = {node.attr for node in ast.walk(tracer_source())
             if isinstance(node, ast.Attribute) and ast.unparse(node.value) == "args[0]"}
    assert "halfspaces" in attrs
    gains = ChannelGains(10, 3, 3, 10)
    for region in (build_inner(inner_coeffs(gains)), build_outer(outer_coeffs(gains)),
                   build_gdof_region(gdof_coeffs(GdofExponents(1, 0.6, 0.6, 1)))):
        assert [attr for attr in attrs if not hasattr(region, attr)] == []
        assert len(region.halfspaces) == 13
