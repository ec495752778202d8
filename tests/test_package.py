"""Declared entry points: every name a kernel_spectra module exports exists."""

import importlib
import pkgutil

import kernel_spectra


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(kernel_spectra.__path__):
        module = importlib.import_module(f"kernel_spectra.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, (info.name, missing)
