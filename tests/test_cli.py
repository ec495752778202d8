import json

import numpy as np
import pytest

from kernel_spectra.cli import main
from kernel_spectra.quadrature import uniform_rule
from kernel_spectra.spectra import assemble, eigensolve


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


def test_spectrum_text_output(capsys):
    assert main(["spectrum", "--n", "8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n: 8"
    assert [line.split(":")[0] for line in lines] == [
        "n", "eigenvalues", "floor", "discarded", "residual", "orthogonality",
        "assemble_s", "eigensolve_s",
    ]
    lam = np.array(json.loads(lines[1].split(": ", 1)[1]))
    assert lam.size == 8 and np.all(np.isfinite(lam))


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
