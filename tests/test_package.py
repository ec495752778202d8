"""Declared entry points: every name a kernel_spectra module exports exists,
and the spectrum path loads neither scipy.special nor the fork pool."""

import importlib
import json
import pkgutil

import kernel_spectra
from kernel_spectra import iterated, tails, zeta


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(kernel_spectra.__path__):
        module = importlib.import_module(f"kernel_spectra.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, (info.name, missing)


def test_spectrum_path_loads_no_scipy_special_or_pool(run_fresh):
    out = run_fresh("""
        import contextlib, importlib, io, json, pkgutil, sys
        import kernel_spectra
        for info in pkgutil.iter_modules(kernel_spectra.__path__):
            importlib.import_module(f"kernel_spectra.{info.name}")
        from kernel_spectra import cli, iterated, tails, zeta
        with contextlib.redirect_stdout(io.StringIO()) as record:
            cli.main(["spectrum", "--n", "16", "--json"])
        loaded = [m for m in ("scipy.special", "concurrent.futures") if m in sys.modules]
        print(json.dumps({
            "n": json.loads(record.getvalue())["n"],
            "loaded": loaded,
            "zeta": zeta.zeta(2.5),
            "bn_series": tails.bn_series(2, 0.37, 2, 3),
            "i0_eval": iterated.i0_eval(0.4, 0.5),
        }))
    """)
    fresh = json.loads(out)
    assert fresh["n"] == 16
    assert fresh["loaded"] == []
    # first calls, which load scipy.special, give the values of this process
    assert fresh["zeta"] == zeta.zeta(2.5)
    assert fresh["bn_series"] == tails.bn_series(2, 0.37, 2, 3)
    assert fresh["i0_eval"] == iterated.i0_eval(0.4, 0.5)
