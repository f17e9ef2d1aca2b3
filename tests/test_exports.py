"""Every exported name resolves, and so does every name the benchmark
imports from icci or reads off the package, every name the traced run
wraps or reads off a region and every region method or
``region_as_dict`` key the benchmark workloads use, so that deleting
one fails here rather than in ``bench/run.py``."""

import ast
import importlib
from pathlib import Path

import pytest

import icci
from icci.bounds import inner_coeffs, outer_coeffs
from icci.channel import ChannelGains, GdofExponents
from icci.gdof import build_gdof_region, gdof_coeffs
from icci.region import build_inner, build_outer, region_as_dict

ROOT = Path(__file__).resolve().parents[1]
# every module of the package but the entry point, which runs the CLI on import
MODULES = ["icci"] + [f"icci.{path.stem}" for path in sorted((ROOT / "src" / "icci").glob("*.py"))
                      if path.stem not in ("__init__", "__main__")]


def bench_source(name: str) -> ast.Module:
    return ast.parse((ROOT / "bench" / name).read_text(encoding="utf-8"))


def bench_function(name: str, function: str) -> ast.FunctionDef:
    return next(node for node in bench_source(name).body if isinstance(node, ast.FunctionDef) and node.name == function)


def built_regions() -> list:
    gains = ChannelGains(10, 3, 3, 10)
    return [build_inner(inner_coeffs(gains)), build_outer(outer_coeffs(gains)),
            build_gdof_region(gdof_coeffs(GdofExponents(1, 0.6, 0.6, 1)))]


def string_keys(tree: ast.AST, name: str) -> set[str]:
    """The string constants ``name`` is subscripted with in tree."""
    return {node.slice.value for node in ast.walk(tree) if isinstance(node, ast.Subscript)
            and ast.unparse(node.value) == name and isinstance(node.slice, ast.Constant)}


def traced_names() -> list[tuple[str, str]]:
    """The (module, attribute) pairs of ``TIMED`` in bench/tracer.py, read
    from its source without importing it."""
    tree = bench_source("tracer.py")
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TIMED" for t in node.targets):
            return [(module, attr) for module, attr, _span in ast.literal_eval(node.value)]
    raise AssertionError("bench/tracer.py assigns no TIMED")


def test_the_package_namespace_is_its_modules_exports():
    # every module but the CLI is re-exported, each name once and as the module's own object
    modules = [icci.channel, icci.bounds, icci.region, icci.gdof, icci.gaussian_mi, icci.sweep]
    assert sorted(m.__name__ for m in modules) == sorted(set(MODULES) - {"icci", "icci.cli"})
    names = [name for module in modules for name in module.__all__]
    assert icci.__all__ == names
    assert len(set(names)) == len(names)
    assert [(m.__name__, n) for m in modules for n in m.__all__ if getattr(icci, n) is not getattr(m, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_every_traced_name_resolves():
    pairs = traced_names()
    assert ("icci.gdof", "per_user_dof_optimum") in pairs
    # the tracer wraps each as a function
    assert [pair for pair in pairs if not callable(getattr(importlib.import_module(pair[0]), pair[1], None))] == []


def test_every_name_the_benchmark_imports_from_icci_resolves():
    # module-level and function-level imports alike, such as the tracer's
    # CovarianceError inside install()
    imports = [(node.module, alias.name) for path in sorted((ROOT / "bench").glob("*.py"))
               for node in ast.walk(bench_source(path.name))
               if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "icci"
               for alias in node.names]
    assert ("icci.gaussian_mi", "CovarianceError") in imports
    assert [pair for pair in imports if not hasattr(importlib.import_module(pair[0]), pair[1])] == []


def test_every_icci_attribute_the_workloads_read_resolves():
    attrs = {node.attr for node in ast.walk(bench_source("workloads.py"))
             if isinstance(node, ast.Attribute) and ast.unparse(node.value) == "icci"}
    assert {"mi_discrepancy", "check_channel", "run_gap_sweep"} <= attrs
    assert [attr for attr in sorted(attrs) if not hasattr(icci, attr)] == []


def test_every_attribute_the_tracer_reads_off_a_region_resolves():
    # the tracer counts triples from the region ``vertices`` is called on,
    # as math.comb(len(args[0].halfspaces) + 3, 3)
    attrs = {node.attr for node in ast.walk(bench_source("tracer.py"))
             if isinstance(node, ast.Attribute) and ast.unparse(node.value) == "args[0]"}
    assert "halfspaces" in attrs
    for region in built_regions():
        assert [attr for attr in attrs if not hasattr(region, attr)] == []
        assert len(region.halfspaces) == 13


def test_every_method_the_lp_oracle_calls_on_a_region_resolves():
    # lp_gap_slack(cover, target, bits) gets built regions and sets up its LPs from their methods
    fn = bench_function("workloads.py", "lp_gap_slack")
    names = {arg.arg for arg in fn.args.args[:2]}
    methods = {node.func.attr for node in ast.walk(fn) if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute) and ast.unparse(node.func.value) in names}
    assert names == {"cover", "target"} and {"coefficient_matrix", "rhs_vector"} <= methods
    for region in built_regions():
        assert [method for method in methods if not callable(getattr(region, method, None))] == []
        assert region.coefficient_matrix().shape == (13, 3) and region.rhs_vector().shape == (13,)


def test_every_key_the_vertex_check_reads_off_a_region_dict_exists():
    # _vertices_feasible reads region_dict[...] and, per half-space, hs[...]
    fn = bench_function("workloads.py", "_vertices_feasible")
    keys, row_keys = string_keys(fn, "region_dict"), string_keys(fn, "hs")
    assert {"vertices", "halfspaces"} <= keys and {"c", "rhs"} <= row_keys
    for region in built_regions():
        shown = region_as_dict(region)
        assert keys <= shown.keys() and len(shown["halfspaces"]) == 13
        assert all(row_keys <= row.keys() for row in shown["halfspaces"])
