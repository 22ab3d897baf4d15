"""Pauli and Dirac matrices, spin matrices, and Clifford-relation checks.

Two frozen gamma representations are provided:

* ``rep26`` -- the block representation
      gamma0 = diag(s3, -s3), gamma_a = diag(i s_a, -i s_a) (a = 1, 2),
      gamma3 = offdiag(i, i), gamma4 = offdiag(i, -i),
  in which gamma3*gamma4 is diagonal and the four-component equations split
  into two-component pairs.

* ``weyl`` -- a representation fixed by gamma0*gamma_k = diag(s_k, -s_k),
  so the massless four-component equation splits into the two Weyl
  equations.  Concretely: gamma0 = offdiag(I, I), gamma_k = offdiag(-s_k, s_k),
  gamma4 = i*gamma0*gamma1*gamma2*gamma3.

Both satisfy gamma_mu^2 = (+1,-1,-1,-1) and gamma4^2 = +1, all pairs
anticommuting; gamma0 and gamma4 are Hermitian, gamma1..3 anti-Hermitian.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import dagger, mat_max

_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def pauli(k: int) -> np.ndarray:
    """Pauli matrix sigma_k, k in {1, 2, 3}."""
    if k not in (1, 2, 3):
        raise ValueError("Pauli index must be 1, 2 or 3")
    return _PAULI[k - 1].copy()


@dataclass(frozen=True)
class GammaSet:
    name: str
    gammas: tuple            # (gamma0, gamma1, gamma2, gamma3, gamma4)
    metric: tuple = (1.0, -1.0, -1.0, -1.0)
    gamma4_square: float = 1.0

    def gamma(self, mu: int) -> np.ndarray:
        return self.gammas[mu]

    def square_sign(self, mu: int) -> float:
        return self.gamma4_square if mu == 4 else self.metric[mu]


def _block(a, b, c, d):
    return np.block([[a, b], [c, d]])


def _build_rep26() -> GammaSet:
    s1, s2, s3 = (pauli(k) for k in (1, 2, 3))
    z = np.zeros((2, 2), dtype=complex)
    i2 = np.eye(2, dtype=complex)
    g0 = _block(s3, z, z, -s3)
    g1 = _block(1j * s1, z, z, -1j * s1)
    g2 = _block(1j * s2, z, z, -1j * s2)
    g3 = _block(z, 1j * i2, 1j * i2, z)
    g4 = _block(z, 1j * i2, -1j * i2, z)
    return GammaSet("rep26", (g0, g1, g2, g3, g4))


def _build_weyl() -> GammaSet:
    z = np.zeros((2, 2), dtype=complex)
    i2 = np.eye(2, dtype=complex)
    g0 = _block(z, i2, i2, z)
    gk = tuple(_block(z, -pauli(k), pauli(k), z) for k in (1, 2, 3))
    g4 = 1j * g0 @ gk[0] @ gk[1] @ gk[2]
    return GammaSet("weyl", (g0,) + gk + (g4,))


_SETS = {"rep26": _build_rep26(), "weyl": _build_weyl()}


def gamma_set(name: str) -> GammaSet:
    try:
        return _SETS[name]
    except KeyError:
        raise ValueError(f"unknown gamma representation {name!r}") from None


def spin_matrix(g: GammaSet, a: int, b: int) -> np.ndarray:
    """Spin matrix S_AB for indices in {0..5}.

    S_{mu nu} = (i/4)(g_mu g_nu - g_nu g_mu) for mu, nu <= 4 and
    S_{mu 5} = (i/2) g_mu (index 5 is not a matrix dimension); the reversed
    index order is the antisymmetric completion.
    """
    if a == b:
        raise ValueError("spin matrix indices must differ")
    if not (0 <= a <= 5 and 0 <= b <= 5):
        raise ValueError("spin matrix indices must be in 0..5")
    if a > b:
        return -spin_matrix(g, b, a)
    if b == 5:
        return 0.5j * g.gamma(a)
    ga, gb = g.gamma(a), g.gamma(b)
    return 0.25j * (ga @ gb - gb @ ga)


def verify_clifford(g: GammaSet) -> float:
    """Max residual over all square/anticommutation and Hermiticity relations."""
    gam, eye = g.gammas, np.eye(g.gammas[0].shape[0])
    return mat_max(
        *(gam[a] @ gam[a] - g.square_sign(a) * eye for a in range(5)),
        *(gam[a] @ gam[b] + gam[b] @ gam[a]
          for a in range(5) for b in range(a + 1, 5)),
        *(dagger(gam[mu]) - sign * gam[mu]
          for mu, sign in enumerate((1.0, -1.0, -1.0, -1.0, 1.0))))
