"""Shared fixtures: the 4-node reference network and pinned oracle constants.

The spectral constants below were computed with sympy (exact characteristic
polynomial of the symmetrized Laplacian) and mpmath root refinement, i.e.
independently of the numpy eigensolver the package uses. Tests treat them as
frozen expected values.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import settings

from gossipsim import _native
from gossipsim.dynamics import EventProbabilities, Schedule, T_CLIP, S_CLIP, UpdateMode
from gossipsim.graph import validate
from gossipsim.montecarlo import ExperimentConfig, InitialState

# One profile for every property test: derandomized, so each run draws the
# same examples; no deadline, which a loaded machine would trip; and a
# bounded default number of examples, so the suite's time stays bounded.
settings.register_profile("gossipsim", derandomize=True, deadline=None, database=None,
                          max_examples=50)
settings.load_profile("gossipsim")

# 4-node reference selection matrix used throughout.
REF_ROWS = [
    [0.0, 0.5, 0.0, 0.5],
    [0.5, 0.0, 0.25, 0.25],
    [1.0 / 3.0, 0.0, 0.0, 2.0 / 3.0],
    [0.0, 1.0 / 3.0, 2.0 / 3.0, 0.0],
]

# Independently derived spectrum of D - (A + A^T) for REF_ROWS.
LAMBDA2 = 1.6006585939468285
LAMBDA_N = 3.574871512231014
SPECTRUM = (0.0, 1.6006585939468284, 2.8244698938221577, 3.5748715122310139)
A_STAR = 0.25

# Critical repulsion gain for T*=1/4, alpha=gamma: S(1+S) = T(1-T) = 3/16.
S_CRIT = (math.sqrt(7.0) - 2.0) / 4.0

# Infinite product prod_k (1 - 2*4^{-(k+1)}), double precision.
RHO_STAR = 0.41942244179510746


@pytest.fixture(scope="session")
def ref_matrix():
    return validate(REF_ROWS)


def make_config(matrix, *, variant="symmetric", active_rule="uniform",
                alpha=1.0 / 3.0, beta=1.0 / 3.0, gamma=1.0 / 3.0,
                t=0.25, s=0.05, schedule_t=None, schedule_s=None,
                initial=None, steps=100, trials=10, k0=0, seed=0,
                checkpoints=None, eps_agree=1e-6, big_m=None):
    """Build an ExperimentConfig with compact overrides for tests."""
    return ExperimentConfig(
        matrix=matrix,
        mode=UpdateMode(variant=variant, active_rule=active_rule),
        probabilities=EventProbabilities(alpha=alpha, beta=beta, gamma=gamma),
        schedule_t=schedule_t or Schedule.constant(t, clip=T_CLIP),
        schedule_s=schedule_s or Schedule.constant(s, clip=S_CLIP),
        initial=initial or InitialState(kind="ramp"),
        steps=steps, trials=trials, k0=k0, base_seed=seed,
        checkpoints=checkpoints, eps_agree=eps_agree, big_m=big_m,
    )


@pytest.fixture()
def ref_config(ref_matrix):
    return make_config(ref_matrix)


def rng_for(seed):
    return np.random.default_rng(seed)


def fnv1a64_reference(data: bytes) -> int:
    """FNV-1a-64 one byte at a time: the digest the pinned hash tables of
    `test_montecarlo` were recorded with, which pin the generators' draws
    and the canonical config text."""
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def exponent_rows(n: int, seed: int, distinct: bool) -> list[list[float]]:
    """A row-stochastic matrix whose entries print with exponents (1e-05,
    3.0000000000000004e-07, ...), with -0.0 on every third diagonal entry:
    mostly distinct entries when `distinct`, a few repeated values otherwise.
    Row i puts its remaining weight on node i + 1."""
    rng = np.random.default_rng(seed)
    if distinct:
        a = rng.random((n, n)) * 10.0 ** -rng.integers(3, 13, (n, n)).astype(float)
    else:
        a = rng.choice([0.0, 1e-05, 3.0000000000000004e-07, 2.5e-300, 1e-03], (n, n))
    a[0, 2:4] = [1e-05, 3.0000000000000004e-07]
    np.fill_diagonal(a, 0.0)
    a[np.arange(0, n, 3), np.arange(0, n, 3)] = -0.0
    nxt = (np.arange(n) + 1) % n
    a[np.arange(n), nxt] = 0.0
    a[np.arange(n), nxt] = 1.0 - a.sum(axis=1)
    return a.tolist()


def assert_same_text(got, want, what="") -> None:
    """got == want for two texts (or byte strings), reporting where they
    first differ: pytest's own diff of two long texts can run for minutes."""
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                  min(len(got), len(want)))
        near = slice(max(at - 60, 0), at + 60)
        pytest.fail(f"{what} differs at {at} of {len(got)} and {len(want)}: "
                    f"{got[near]!r} against {want[near]!r}")


def whole(mats, name: str):
    """A run's trial matrix `name`, dispersion, spread or states, read whole
    from its pass's file; None where the run did not keep it."""
    return mats.stored[name][:] if name in mats.stored else None


@contextmanager
def numpy_engine():
    """The compiled library off, as where it cannot be built: the loader
    finds none, so the engine runs its numpy twin."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "library", lambda: None)
        yield


@pytest.fixture()
def fallback_engine():
    """Runs the test with the compiled library off (`numpy_engine`)."""
    with numpy_engine():
        yield


def on_paths(cases, ids):
    """`cases` as pytest params with an extra last argument, `twin`: False
    under the given ids, for the package as it is (compiled where the
    library loads), and True under the ids with "-twin" added, for a test
    that then runs under `numpy_engine`."""
    return [pytest.param(*case, twin, id=f"{i}-twin" if twin else i)
            for twin in (False, True) for case, i in zip(cases, ids)]
