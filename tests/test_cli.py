import json
import os

import numpy as np
import pytest

from kernel_spectra.cli import main
from kernel_spectra.quadrature import uniform_rule
from kernel_spectra.spectra import K2_EIGEN_TOL, assemble, cross_validate_k2, eigensolve


def _assert_env(env):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert env["blas"] == {"name": blas["name"], "version": blas["version"]}
    assert env["threads"] == {var: os.environ.get(var)
                              for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    assert env["cpus"] == len(os.sched_getaffinity(0)) >= 1


def test_spectrum_json_matches_library(capsys):
    assert main(["spectrum", "--n", "32", "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    spec = eigensolve(assemble(uniform_rule(8, 4)))
    assert record["n"] == 32
    assert record["eigenvalues"] == spec.eigenvalues[:10].tolist()
    assert record["floor"] == spec.floor
    assert record["discarded"] == spec.discarded
    assert 0.0 <= record["residual"] <= 1e-11
    assert 0.0 <= record["orthogonality"] <= 1e-11
    assert record["assemble_s"] >= 0.0 and record["eigensolve_s"] >= 0.0
    _assert_env(record["env"])


def test_spectrum_text_output(capsys):
    assert main(["spectrum", "--n", "8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n: 8"
    assert [line.split(":")[0] for line in lines] == [
        "n", "eigenvalues", "floor", "discarded", "residual", "orthogonality",
        "assemble_s", "eigensolve_s", "env",
    ]
    lam = np.array(json.loads(lines[1].split(": ", 1)[1]))
    assert lam.size == 8 and np.all(np.isfinite(lam))


def test_k2_json_matches_library(capsys):
    assert main(["k2", "--n", "16", "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    rule = uniform_rule(4, 4)
    spec = eigensolve(assemble(rule))
    xc = cross_validate_k2(rule, spectrum=spec)
    assert record["n"] == 16
    assert record["count"] == xc.count == 10
    assert record["eigenvalues"] == spec.eigenvalues[:10].tolist()
    assert record["rel_discrepancies"] == xc.rel_discrepancies.tolist()
    assert record["hs_norm_sq"] == xc.hs_norm_sq
    assert 0.0 <= record["residual"] <= K2_EIGEN_TOL
    assert record["k2_fill_s"] > 0.0 and record["eigensolve_s"] > 0.0
    _assert_env(record["env"])


def test_k2_text_output(capsys):
    assert main(["k2", "--n", "16"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "n", "count", "eigenvalues", "rel_discrepancies", "residual", "hs_norm_sq",
        "k2_fill_s", "eigensolve_s", "env",
    ]


@pytest.mark.parametrize("n", ["0", "-4", "30"])
def test_rejects_bad_grid_size(capsys, n):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--n", n, "--json"])
    assert exc.value.code != 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--n must be a positive multiple of 4" in captured.err


def test_requires_a_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code != 0


@pytest.mark.parametrize("n", ["0", "-4", "30"])
def test_k2_rejects_bad_grid_size(capsys, n):
    with pytest.raises(SystemExit) as exc:
        main(["k2", "--n", n])
    assert exc.value.code != 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--n must be a positive multiple of 4" in captured.err
