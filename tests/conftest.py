import numpy as np
import pytest
from hypothesis import settings

import quasishadow as qs

# fixed examples for continuous integration: run with --hypothesis-profile=ci
settings.register_profile("ci", derandomize=True)


@pytest.fixture(scope="session")
def product_sys():
    """Unperturbed skew product: analytic splitting, fiber rotation 0.3."""
    return qs.cat_circle_system(alpha=0.3, kappa=0.0)


@pytest.fixture(scope="session")
def skew_sys():
    """Perturbed skew product with numerically computed splitting."""
    return qs.cat_circle_system(alpha=0.3, kappa=0.02)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
