"""Shared fixtures: seeded RNG, bounded random states, orbit factories."""

from typing import NamedTuple

import numpy as np
import pytest

from qhnbody import model
from qhnbody.central_config import Ordering
from qhnbody.model import (
    Configuration,
    MassSystem,
    PhaseState,
    PotentialParams,
    centered,
    mass_inner,
)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_masses(rng, n, lo=0.2, hi=5.0):
    return MassSystem(rng.uniform(lo, hi, size=n))


def every_class(ms):
    """The n!/2 canonical orderings of ms.n bodies, and ms's masses as one row per ordering."""
    orderings = Ordering.all_canonical(ms.n)
    return orderings, np.tile(ms.masses, (len(orderings), 1))


def random_config(rng, n, dim=2, min_sep=0.3, scale=1.0):
    """Positions with every pair at least min_sep apart."""
    for _ in range(200):
        r = rng.uniform(-scale, scale, size=(n, dim))
        i, j = np.triu_indices(n, 1)
        if np.sqrt(((r[i] - r[j]) ** 2).sum(axis=1)).min() >= min_sep:
            return r
    raise RuntimeError("could not sample a collision-free configuration")


def unit_sphere_config(rng, ms, dim=2, min_sep=0.3):
    r = centered(random_config(rng, ms.n, dim, min_sep), ms)
    return Configuration(r / np.sqrt(mass_inner(r, r, ms)))


def circular_two_body(ms, pp, separation):
    """Planar circular orbit of a two-body system in the CoM frame.

    Returns (state, omega).  The required angular speed solves
    m1 omega^2 |r1| = |F(d)| with both power-law terms attractive.
    """
    if ms.n != 2:
        raise ValueError("two bodies only")
    m1, m2 = ms.masses
    mt = ms.total_mass
    d = float(separation)
    force = m1 * m2 * (
        pp.a * pp.alpha * d ** (-pp.a - 1.0) + pp.b * pp.beta * d ** (-pp.b - 1.0)
    )
    omega = np.sqrt(force * mt / (m1 * m2 * d))
    r = np.array([[m2 * d / mt, 0.0], [-m1 * d / mt, 0.0]])
    speed = omega * np.abs(r[:, 0])
    p = np.array([[0.0, ms.masses[0] * speed[0]], [0.0, -ms.masses[1] * speed[1]]])
    state = PhaseState(config=Configuration(r), momenta=p)
    return state, float(omega)


def fd_gradient(f, x, h=1e-6):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    flat = x.ravel()
    gflat = g.ravel()
    for k in range(flat.size):
        step = h * max(1.0, abs(flat[k]))
        xp = flat.copy()
        xm = flat.copy()
        xp[k] += step
        xm[k] -= step
        gflat[k] = (f(xp.reshape(x.shape)) - f(xm.reshape(x.shape))) / (2.0 * step)
    return g


def fd_directional_second(f, x, v, h=1e-4):
    """Central second difference of t -> f(x + t v) at t = 0."""
    return (f(x + h * v) - 2.0 * f(x) + f(x - h * v)) / (h * h)


def count_kernel_bindings(monkeypatch):
    """A list that grows by one entry per binding of the pair kernel, from an empty bind cache."""
    model._bound.cache_clear()
    calls = []
    init = model._PairKernel.__init__

    def counted(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(model._PairKernel, "__init__", counted)
    return calls


class KernelPass(NamedTuple):
    """What one pass of the pair kernel summed besides W, V and the gradients."""

    hess: bool
    force: bool


def count_kernel_passes(monkeypatch):
    """A list that grows by one KernelPass per pass (terms call) of the pair kernel."""
    passes = []
    terms = model._PairKernel.terms

    def counted(self, r, force=True, strict=True, hess=False):
        passes.append(KernelPass(hess, force))
        return terms(self, r, force, strict, hess)

    monkeypatch.setattr(model._PairKernel, "terms", counted)
    return passes


def count_gradient_passes(monkeypatch):
    """A list that grows by one per gradients call of the pair kernel: one per numpy pass,
    a terms call or the Cartesian field's numpy pass, which sums no W or V."""
    passes = []
    gradients = model._PairKernel.gradients

    def counted(self, r, strict=True):
        passes.append(1)
        return gradients(self, r, strict)

    monkeypatch.setattr(model._PairKernel, "gradients", counted)
    return passes


def fail_linalg(monkeypatch, name):
    """Make np.linalg.<name> raise LinAlgError, as it does on a singular or unconverged input."""

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError(f"{name} failed")

    monkeypatch.setattr(np.linalg, name, fail)
