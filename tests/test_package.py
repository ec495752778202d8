"""Declared entry points: every name a kernel_spectra module exports exists,
every name a module imports is used, a range check names the argument it
rejects, no path of the package needs scipy, and the spectrum path loads no
fork pool."""

import ast
import importlib
import json
import math
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import kernel_spectra
from kernel_spectra import cli, iterated, kernel, spectra, tails, zeta
from kernel_spectra.quadrature import uniform_rule

# (module, function, arguments) of the library calls the scipy-free run repeats
_CALLS = [
    ("tails", "bn_series", (2, 0.37, 2, 3)),
    ("tails", "mixed_power_tail", (2.0, 0.7)),
    ("tails", "kernel_moment", (0.2, 1.5)),
    ("iterated", "k2_quadrature", (0.3, 0.7)),
    ("iterated", "i0_eval", (0.4, 0.5)),
    ("iterated", "i_eval", (0.3, 0.6, 0.5)),
    ("zeta", "zeta", (0.5,)),
    ("zeta", "zeta_connect_residual", (1.0, 0.3)),
    ("zeta", "euler_limit_residual", (0.4,)),
    ("zeta", "stirling_alt_residual", (0.5, 1e-9)),
    ("zeta", "laplace_h_residual", (2.5,)),
    ("zeta", "em_identity_residual", (1.0, 0.5)),
    ("kernel", "delta_r", (0.5, 0.3, 1.0)),
]


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(kernel_spectra.__path__):
        module = importlib.import_module(f"kernel_spectra.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, (info.name, missing)


def test_every_imported_name_is_used():
    # stdlib stand-in for a linter's F401: an imported name is read somewhere in
    # its module, listed in __all__, or sits on a "# noqa: F401" line
    for path in sorted(Path(kernel_spectra.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        module = importlib.import_module(f"kernel_spectra.{path.stem}")
        used.update(getattr(module, "__all__", ()))
        unused = []
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                        unused.append(name)
        assert not unused, (path.name, unused)


# (call, arguments, what the message must name) for range checks no other
# test reaches
_RANGE_CHECKS = {
    "k2_quadrature_x": (iterated.k2_quadrature, (1.5, 0.5), r"x, y in \[0, 1\]"),
    "k2_quadrature_y": (iterated.k2_quadrature, (0.5, -0.1), r"x, y in \[0, 1\]"),
    "kernel_moment_x0": (tails.kernel_moment, (0.0, 1.0), r"x in \(0, 1\]"),
    "kernel_moment_x_nan": (tails.kernel_moment, (math.nan, 1.0), r"x in \(0, 1\]"),
    "tilde_tail_A": (tails._tilde_tail_vec, (2, 1.0, np.array([2.0, 0.5]), np.array([1e-8, 1e-8])),
                     r"A >= 1"),
    "operator_not_2d": (spectra.DiscretizedOperator, (uniform_rule(2, 1), np.ones(2)),
                        r"matrix must be square"),
    "operator_not_square": (spectra.DiscretizedOperator, (uniform_rule(2, 1), np.ones((2, 3))),
                            r"matrix must be square"),
    "zeta_connect_x": (zeta.zeta_connect_residual, (1.0, 1.5), r"^x must lie in \(0, 1\]"),
    "euler_limit_x": (zeta.euler_limit_residual, (0.0,), r"^x must lie in \(0, 1\]"),
    "stirling_alt_x": (zeta.stirling_alt_residual, (math.nan, 1e-9), r"^x must lie in \(0, 1\]"),
    "em_identity_x": (zeta.em_identity_residual, (1.0, -0.5), r"^x must lie in \(0, 1\]"),
}


@pytest.mark.parametrize("name", _RANGE_CHECKS)
def test_range_check_names_its_argument(name):
    fn, args, message = _RANGE_CHECKS[name]
    with pytest.raises(ValueError, match=message):
        fn(*args)


def _k2_values(record):
    return {key: record[key] for key in ("count", "eigenvalues", "rel_discrepancies", "hs_norm_sq",
                                         "k2_fill_workers")}


def test_spectrum_path_loads_no_scipy_special_or_pool(run_fresh, capsys):
    # scipy is blocked outright: a scipy import anywhere, in this process or
    # in the K2 fill's forked workers, raises ImportError
    out = run_fresh(f"""
        import contextlib, importlib, io, json, pkgutil, sys
        sys.modules["scipy"] = None
        import kernel_spectra
        for info in pkgutil.iter_modules(kernel_spectra.__path__):
            importlib.import_module(f"kernel_spectra.{{info.name}}")
        from kernel_spectra import cli

        def run(*argv):
            with contextlib.redirect_stdout(io.StringIO()) as record:
                cli.main(list(argv))
            return json.loads(record.getvalue())

        spectrum = run("spectrum", "--n", "16", "--json")
        pool = "concurrent.futures" in sys.modules
        k2 = run("k2", "--n", "32", "--json")
        values = [getattr(importlib.import_module(f"kernel_spectra.{{m}}"), f)(*args)
                  for m, f, args in {_CALLS!r}]
        print(json.dumps({{"n": spectrum["n"], "pool_after_spectrum": pool, "k2": k2, "values": values,
                          "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}}))
    """)
    fresh = json.loads(out)
    assert fresh["n"] == 16
    assert fresh["pool_after_spectrum"] is False
    assert fresh["scipy"] == ["scipy"]  # the blocking entry alone
    cli.main(["k2", "--n", "32", "--json"])
    here = json.loads(capsys.readouterr().out)
    assert _k2_values(fresh["k2"]) == _k2_values(here)
    assert here["k2_fill_workers"] == spectra._fill_workers(32)
    modules = {"tails": tails, "iterated": iterated, "zeta": zeta, "kernel": kernel}
    assert fresh["values"] == [getattr(modules[m], f)(*args) for m, f, args in _CALLS]
