"""Command-line entry point.

    kernel-spectra spectrum --n 1024 --json

assembles the Nystrom matrix on uniform_rule(N // 4, 4), eigensolves it,
and prints the first ten kernel eigenvalues with the eigensolver gate's
measurements and the wall time of each step.  ``python -m
kernel_spectra.cli`` runs the same command.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .quadrature import uniform_rule
from .spectra import assemble, eigensolve

# Gauss order per panel of the spectrum grid
_ORDER = 4


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
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="kernel-spectra",
        description="Nystrom spectra of the kernel 1/2 + floor(1/xy) - 1/xy.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    spectrum = commands.add_parser(
        "spectrum", help=f"eigenvalues on the N-node grid uniform_rule(N // {_ORDER}, {_ORDER})"
    )
    spectrum.add_argument(
        "--n", type=int, default=256, help=f"grid size, a positive multiple of {_ORDER}"
    )
    spectrum.add_argument("--json", action="store_true", help="print one JSON object")
    args = parser.parse_args(argv)
    if args.n < _ORDER or args.n % _ORDER:
        spectrum.error(f"--n must be a positive multiple of {_ORDER}, got {args.n}")
    record = _spectrum_record(args.n)
    if args.json:
        print(json.dumps(record))
    else:
        for key, value in record.items():
            print(f"{key}: {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
