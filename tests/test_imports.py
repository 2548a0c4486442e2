"""Importing boxproj, and projecting with it, loads no scipy module."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys
import numpy as np
import boxproj, boxproj.cli
from boxproj import build_model, error_norm, gaussian, preset, project

def scipy_modules():
    return sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy."))

f = gaussian(2, 1.0)
model = build_model(preset("courant"), 1 / 4, f)
coeffs = project(model, f)
error_norm(f, model, coeffs, 2.0)
assert coeffs.iterations > 0
assert scipy_modules() == [], scipy_modules()

# matrix() imports scipy.sparse on its first call and still returns the
# CSR matrix that the stencil of `project` applies
A = model.matrix()
assert "scipy.sparse" in sys.modules
import scipy.sparse as sp
assert isinstance(A, sp.csr_matrix) and A.shape == (model.unknowns,) * 2
c = np.random.default_rng(3).standard_normal(model.unknowns)
gram, _ = boxproj.projection._normal_operators(model)
assert np.abs(A @ c - gram(c)).max() <= 1.1e-15 * np.abs(A @ c).max()
"""


def test_no_scipy_on_the_import_and_projection_path():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
