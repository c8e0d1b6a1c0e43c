import mpmath
import numpy as np
import pytest

from modham import Region, build_harmonic_chain, vacuum_state


@pytest.fixture(scope="session")
def chain8():
    model = build_harmonic_chain(8, 1.0)
    return model, vacuum_state(model)


@pytest.fixture(scope="session")
def chain8_light():
    model = build_harmonic_chain(8, 0.1)
    return model, vacuum_state(model)


@pytest.fixture(scope="session")
def chain2():
    model = build_harmonic_chain(2, 1.0)
    return model, vacuum_state(model)


@pytest.fixture(scope="session")
def center_region():
    return Region([3, 4])


@pytest.fixture()
def rng():
    return np.random.default_rng(42)


def _sine_mode_correlators(n, mass, dps=40):
    """X and P of the n-site Dirichlet vacuum as mpmath matrices, summed at
    ``dps`` digits over the sine modes: X_ij = sum_k u_ik u_jk / (2 omega_k)
    and P_ij = sum_k u_ik u_jk omega_k / 2 with
    u_ik = sqrt(2/(n+1)) sin(pi k (i+1)/(n+1))."""
    with mpmath.workdps(dps):
        size = n + 1
        omega = [mpmath.sqrt(mpmath.mpf(mass) ** 2
                             + 4 * mpmath.sin(mpmath.pi * k / (2 * size)) ** 2)
                 for k in range(1, size)]
        modes = [[mpmath.sqrt(mpmath.mpf(2) / size) * mpmath.sin(mpmath.pi * k * i / size)
                  for k in range(1, size)] for i in range(1, size)]
        x, p = mpmath.zeros(n), mpmath.zeros(n)
        for i in range(n):
            for j in range(i + 1):
                pairs = [a * b for a, b in zip(modes[i], modes[j])]
                x[i, j] = x[j, i] = mpmath.fsum(c / w for c, w in zip(pairs, omega)) / 2
                p[i, j] = p[j, i] = mpmath.fsum(c * w for c, w in zip(pairs, omega)) / 2
    return x, p


@pytest.fixture(scope="session")
def sine_mode_correlators():
    """The extended-precision vacuum correlators, the reference of the
    closed-form vacuum and of the split's complement block."""
    return _sine_mode_correlators
