"""Command-line entry point.

    kernel-spectra spectrum --n 1024 --json

assembles the Nystrom matrix on uniform_rule(N // 4, 4), eigensolves it,
and prints the first ten kernel eigenvalues with the eigensolver gate's
measurements and the wall time of each step.

    kernel-spectra k2 --n 128 --json

runs the iterated-kernel cross-check on the same grid and prints its
record: the first kernel eigenvalues, their relative discrepancies against
the iterated-kernel matrix eigenvalues, that matrix's gate residual, the
squared Hilbert-Schmidt norm and its error against the exact value
1/4 + log 2pi + zeta''(0), the wall time of the matrix fill and of its
eigensolve, and k2_fill_workers, the number of processes that filled the
matrix in row stripes (1 when the fill ran in-process).
``python -m kernel_spectra.cli`` runs the same commands.

Neither command loads scipy: no path of the package imports it.

Both records end with ``env``: numpy's BLAS library, the BLAS thread
variables (null when unset) and the usable CPUs (os.cpu_count() where os
has no sched_getaffinity), on which the last digits and the wall time of
an eigensolve depend.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from .quadrature import uniform_rule
from .spectra import assemble, cross_validate_k2, eigensolve

# Gauss order per panel of the spectrum grid
_ORDER = 4


def _environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    # os has no sched_getaffinity on macOS and Windows
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {var: os.environ.get(var)
                    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpus": cpus,
    }


def _spectrum_record(n: int) -> dict:
    rule = uniform_rule(n // _ORDER, _ORDER)
    t0 = time.perf_counter()
    op = assemble(rule)
    t1 = time.perf_counter()
    spec = eigensolve(op)
    t2 = time.perf_counter()
    return {
        "n": n,
        "eigenvalues": spec.eigenvalues[:10].tolist(),
        "floor": spec.floor,
        "discarded": spec.discarded,
        "residual": spec.residual,
        "orthogonality": spec.orthogonality,
        "assemble_s": t1 - t0,
        "eigensolve_s": t2 - t1,
        "env": _environment(),
    }


def _k2_record(n: int) -> dict:
    rule = uniform_rule(n // _ORDER, _ORDER)
    spec = eigensolve(assemble(rule))
    xc = cross_validate_k2(rule, spectrum=spec)
    return {
        "n": n,
        "count": xc.count,
        "eigenvalues": spec.eigenvalues[: xc.count].tolist(),
        "rel_discrepancies": xc.rel_discrepancies.tolist(),
        "residual": xc.residual,
        "hs_norm_sq": xc.hs_norm_sq,
        "hs_norm_error": xc.hs_norm_error,
        "k2_fill_s": xc.fill_s,
        "k2_fill_workers": xc.fill_workers,
        "eigensolve_s": xc.eigensolve_s,
        "env": _environment(),
    }


_COMMANDS = {
    "spectrum": (_spectrum_record, "eigenvalues on the N-node grid uniform_rule(N // {0}, {0})"),
    "k2": (_k2_record, "iterated-kernel cross-check on the N-node grid uniform_rule(N // {0}, {0})"),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="kernel-spectra",
        description="Nystrom spectra of the kernel 1/2 + floor(1/xy) - 1/xy.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    subparsers = {}
    for name, (_, help_text) in _COMMANDS.items():
        sub = commands.add_parser(name, help=help_text.format(_ORDER))
        sub.add_argument(
            "--n", type=int, default=256, help=f"grid size, a positive multiple of {_ORDER}"
        )
        sub.add_argument("--json", action="store_true", help="print one JSON object")
        subparsers[name] = sub
    args = parser.parse_args(argv)
    if args.n < _ORDER or args.n % _ORDER:
        subparsers[args.command].error(
            f"--n must be a positive multiple of {_ORDER}, got {args.n}"
        )
    record = _COMMANDS[args.command][0](args.n)
    if args.json:
        print(json.dumps(record))
    else:
        for key, value in record.items():
            print(f"{key}: {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
