"""Declared entry points: every name a kernel_spectra module exports exists,
no path of the package needs scipy, and the spectrum path loads no fork pool."""

import importlib
import json
import pkgutil

import kernel_spectra
from kernel_spectra import cli, iterated, kernel, spectra, tails, zeta

# (module, function, arguments) of the library calls the scipy-free run repeats
_CALLS = [
    ("tails", "bn_series", (2, 0.37, 2, 3)),
    ("tails", "mixed_power_tail", (2.0, 0.7)),
    ("tails", "kernel_moment", (0.2, 1.5)),
    ("iterated", "k2_quadrature", (0.3, 0.7)),
    ("iterated", "i0_eval", (0.4, 0.5)),
    ("iterated", "i_eval", (0.3, 0.6, 0.5)),
    ("zeta", "zeta", (-0.5,)),
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
