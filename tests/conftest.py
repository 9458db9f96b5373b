import numpy as np
import pytest

from chiralplate import IsotropicMaterial, TransverselyIsotropicMaterial
from chiralplate import assembly


@pytest.fixture
def resin():
    """Baseline photopolymer card used throughout the studies."""
    return IsotropicMaterial(E=2800.0, mu=0.35, rho=1200.0, sigma_el=35.0)


@pytest.fixture(scope="class")
def scipy_lapack():
    """Solve through scipy.linalg.lapack, as where numpy's wheel has no
    ILP64 scipy-openblas, for every test of a class."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(assembly, "_numpy_openblas", lambda: None)
        yield


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_iso(rng) -> IsotropicMaterial:
    return IsotropicMaterial(
        E=float(rng.uniform(10.0, 1e4)), mu=float(rng.uniform(0.0, 0.45))
    )


def random_ti(rng) -> TransverselyIsotropicMaterial:
    """Rejection-sample a well-posed transversely isotropic card."""
    while True:
        E2 = float(rng.uniform(10.0, 1e4))
        card = dict(
            E1=float(rng.uniform(0.0, 1e4)),
            mu1=float(rng.uniform(0.0, 0.45)),
            E2=E2,
            mu2=float(rng.uniform(0.0, 0.45)),
            G2=float(rng.uniform(1.0, 1e4)),
        )
        den = (1 + card["mu1"]) * (
            1 - card["mu1"] - 2 * (card["E1"] / E2) * card["mu2"] ** 2
        )
        if den > 1e-3:
            return TransverselyIsotropicMaterial(**card)
