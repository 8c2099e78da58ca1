"""Float outputs against a 40-digit recomputation of the same quantity.

Each check starts from the output's own float numbers, converted exactly,
and redoes in 40-digit arithmetic only the steps that produce the
reported value; the float result must agree with it to near rounding.
"""

import numpy as np
import pytest

from qhnbody.central_config import (
    Ordering,
    equilateral_configuration,
    restricted_hessian,
    solve_collinear_batch,
)
from qhnbody.model import MassSystem, PotentialParams, _PairKernel

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

_DIGITS = 40
_REL_BOUND = 1e-13


def _oracle_spectrum(r: np.ndarray, m: np.ndarray, pp: PotentialParams, inertia_I0: float = 1.0):
    """Restricted-Hessian eigenvalues at the float shape r (n, d), at 40 digits.

    The Hessian, W and V are the kernel's floats at r.  The tangent basis
    is rebuilt at 40 digits: the complement of the constraint normals
    sqrt(m) along each axis and sqrt(m) r, divided by sqrt(m).
    """
    terms = _PairKernel(m, pp).terms(r, force=False, hess=True)[0]
    n, d = r.shape
    with mp.workdps(_DIGITS):
        root_m = [mp.sqrt(mp.mpf(float(mi))) for mi in m]
        normals = mp.matrix(n * d, d + 1)
        for i in range(n):
            for ax in range(d):
                normals[i * d + ax, ax] = root_m[i]
                normals[i * d + ax, d] = root_m[i] * mp.mpf(float(r[i, ax]))
        q, _ = mp.qr(normals, mode="full")
        k = n * d - d - 1
        basis = mp.matrix(n * d, k)
        for row in range(n * d):
            for col in range(k):
                basis[row, col] = q[row, d + 1 + col] / root_m[row // d]
        hess = mp.matrix(terms.hess.tolist())
        shift = (pp.a * mp.mpf(float(terms.W)) + pp.b * mp.mpf(float(terms.V))) / inertia_I0
        restricted = basis.T * hess * basis + shift * mp.eye(k)
        eigs = mp.eigsy(restricted, eigvals_only=True)
        return np.sort([float(e) for e in eigs])


def _assert_close(float_eigs, oracle_eigs):
    scale = np.abs(oracle_eigs).max()
    assert np.abs(np.asarray(float_eigs) - oracle_eigs).max() <= _REL_BOUND * scale


def test_collinear_spectra_of_masses_one_to_six_agree_with_40_digits():
    pp = PotentialParams(a=1.0, b=3.0, alpha=1.0, beta=0.5)
    every = Ordering.all_canonical(6)
    picks = np.random.default_rng(20260101).choice(len(every), size=20, replace=False)
    orderings = [every[k] for k in sorted(picks)]
    masses = np.tile(np.arange(1.0, 7.0), (len(orderings), 1))
    batch = solve_collinear_batch(orderings, masses, pp)
    for x, m, eigs in zip(batch.x, masses, batch.hess_eigs):
        _assert_close(eigs, _oracle_spectrum(x[:, None], m, pp))


@pytest.mark.parametrize("m", [10.0**-k for k in range(6, 16)])
def test_planar_triangle_spectra_at_a_vanishing_mass_agree_with_40_digits(m):
    pp = PotentialParams(a=1.0, b=21.0, alpha=0.0, beta=1.0)
    ms = MassSystem(np.array([m, 1.0, 1.0]))
    config = equilateral_configuration(ms)[0]
    _assert_close(restricted_hessian(config, ms, pp)[1],
                  _oracle_spectrum(config.positions, ms.masses, pp))
