import os

# one BLAS thread, as in the benchmark; set before numpy is first imported
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import mpmath  # noqa: E402
import numpy as np  # noqa: E402
import pytest  # noqa: E402

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


def _exact_block(x_r, p_r, dps=60, floor=0.0):
    """The region block ``[[0, 2 M], [-2 N, 0]]`` of correlators X_R, P_R
    (double arrays or mpmath matrices) by the block route at ``dps`` digits:
    the Williamson frame B = L U from ``mp.cholesky(P_R) = L`` and
    ``mp.eigsy(L^T X_R L) = U diag(c^2) U^T``, then ``M = B f(c) B^T`` and
    ``N = B^{-T} diag(c^2 f(c)) B^{-1}`` with f(c) = ln((2c + 1)/(2c - 1)) / (2c);
    modes with ``c - 1/2 <= floor`` carry f = 0.  Rounded to double at the end."""
    r = len(x_r)
    with mpmath.workdps(dps):
        x_r, p_r = mpmath.matrix(x_r), mpmath.matrix(p_r)
        chol = mpmath.cholesky(p_r)
        lam, vecs = mpmath.eigsy(chol.T * x_r * chol)
        frame, frame_inv = chol * vecs, vecs.T * mpmath.inverse(chol)
        c = [mpmath.sqrt(v) for v in lam]
        f = [mpmath.log((2 * v + 1) / (2 * v - 1)) / (2 * v) if v - 0.5 > floor else 0
             for v in c]
        m_kernel = frame * mpmath.diag(f) * frame.T
        n_kernel = frame_inv.T * mpmath.diag([v**2 * w for v, w in zip(c, f)]) * frame_inv
        block = np.zeros((2 * r, 2 * r))
        block[:r, r:] = 2.0 * np.array(m_kernel.tolist(), dtype=float)
        block[r:, :r] = -2.0 * np.array(n_kernel.tolist(), dtype=float)
    return block


@pytest.fixture(scope="session")
def exact_block():
    """The block route at extended precision on given correlators, the
    reference that judges the double routes."""
    return _exact_block
