"""Linear-optical elements acting on Fock-space states.

The beam splitter follows the Schrodinger-picture substitution convention on
creation operators,

    a1+  ->  cos(theta) a1+ + e^{-i phi} sin(theta) a2+
    a2+  -> -e^{+i phi} sin(theta) a1+ + cos(theta) a2+

(not the Heisenberg-picture transformation), extended multiplicatively to
every ket.  Reflectivity is sin^2(theta).  The induced two-mode Fock-basis
coefficients are computed once per (theta, phi, photon pair) via a binomial
expansion and memoized in a least-recently-used cache of at most
:data:`MIXING_ROW_CACHE_SIZE` rows, so a long scan over distinct angles
keeps a bounded amount of memory.  The expansion's binomials and
factorials do not depend on the angles, so they are kept once per photon
pair, and a row for a new angle only multiplies them by the angle's powers.
The angle's cos, sin and phase factors are kept too, per (theta, phi), in a
small cache of their own: a splitter reads the rows of several photon pairs
at one angle, and each row would otherwise recompute them.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock import DEFAULT_CUTOFF, CutoffOverflowError, FockKet, PureState, _check_number, _ket

__all__ = [
    "BeamSplitterParams",
    "apply_beam_splitter",
    "splitter_blocks",
    "unitarity_check",
]


@dataclass(frozen=True, slots=True)
class BeamSplitterParams:
    """Mixing angle and relative phase; :func:`apply_beam_splitter` takes
    the pair of modes being mixed."""

    theta: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", _check_number("beam splitter theta", self.theta))
        object.__setattr__(self, "phi", _check_number("beam splitter phi", self.phi))

    @classmethod
    def balanced(cls) -> "BeamSplitterParams":
        """A 50/50 splitter (theta = pi/4, phi = 0)."""
        return cls(math.pi / 4, 0.0)


#: Bound of the ``_mixing_row`` cache.  A row is a few hundred bytes; a
#: README-shaped sweep fills about 450 rows, so the bound does not evict there.
MIXING_ROW_CACHE_SIZE = 4096

#: Bound of the ``_angle_factors`` cache.  A splitter's rows for several
#: photon pairs are built together, so a few recent angles are enough.
_ANGLE_CACHE_SIZE = 64


@lru_cache(maxsize=MIXING_ROW_CACHE_SIZE)
def _expansion(n1: int, n2: int) -> tuple[tuple[tuple[int, ...], ...], float, tuple[float, ...]]:
    """The angle-free part of the row of |n1, n2>, kept once per photon pair.

    Returns the binomial terms as (m1, comb(n1, j) comb(n2, k), j, n1 - j,
    k, n2 - k) with m1 = j + k, the input norm sqrt(n1! n2!), and the output
    norm sqrt(m1! (n1 + n2 - m1)!) of each m1.
    """
    total = n1 + n2
    terms = tuple(
        (j + k, math.comb(n1, j) * math.comb(n2, k), j, n1 - j, k, n2 - k)
        for j in range(n1 + 1)
        for k in range(n2 + 1)
    )
    norm_in = math.sqrt(math.factorial(n1) * math.factorial(n2))
    norm_out = tuple(math.sqrt(math.factorial(m1) * math.factorial(total - m1)) for m1 in range(total + 1))
    return terms, norm_in, norm_out


@lru_cache(maxsize=_ANGLE_CACHE_SIZE)
def _angle_factors(theta: float, phi: float) -> tuple[float, complex, complex]:
    """cos(theta), and the coefficients of a2+ inside a1+ and of a1+ inside a2+."""
    s = math.sin(theta)
    return math.cos(theta), cmath.exp(-1j * phi) * s, -cmath.exp(1j * phi) * s


@lru_cache(maxsize=MIXING_ROW_CACHE_SIZE)
def _mixing_row(theta: float, phi: float, n1: int, n2: int) -> tuple[tuple[int, complex], ...]:
    """Output amplitudes for the input ket |n1, n2>.

    Returns ((m1, amplitude), ...) with m2 = n1 + n2 - m1 implied; photon
    number is conserved per ket.  Derived by substituting the rotated
    creation operators into a1+^n1 a2+^n2 |0,0> / sqrt(n1! n2!) and expanding
    binomially; the factorials and binomials come from :func:`_expansion`,
    the angle's factors from :func:`_angle_factors`.
    """
    c, f12, f21 = _angle_factors(theta, phi)
    terms, norm_in, norm_out = _expansion(n1, n2)
    row = [0j] * len(norm_out)
    for m1, comb, j, a, k, b in terms:
        row[m1] += comb * (c**j) * (f12**a) * (f21**k) * (c**b)
    out = []
    for m1, coeff in enumerate(row):
        amp = coeff * norm_out[m1] / norm_in
        if abs(amp) > 0.0:
            out.append((m1, amp))
    return tuple(out)


def apply_beam_splitter(state: PureState, modes: tuple[str, str], params: BeamSplitterParams) -> PureState:
    """Mix the two ``modes`` through the splitter; the first is a1 of the
    module's convention, the second a2.

    Raises:
        CutoffOverflowError: if any ket carries more combined photons in the
            pair than the cutoff, since the rotation would then populate
            occupations the register cannot store.
    """
    reg = state.register
    i1, i2 = map(reg.index, modes)
    theta, phi = params.theta, params.phi
    out: dict[FockKet, complex] = {}
    for ket, amp in state._amps.items():
        occ = list(ket.occupations)
        n1, n2 = occ[i1], occ[i2]
        total = n1 + n2
        if total > reg.cutoff:
            raise CutoffOverflowError(
                f"beam splitter on {modes} would exceed cutoff "
                f"{reg.cutoff} for ket {ket} (combined occupation {total})"
            )
        for m1, coeff in _mixing_row(theta, phi, n1, n2):
            occ[i1], occ[i2] = m1, total - m1
            new = _ket((tuple(occ), ket.medium))
            out[new] = out.get(new, 0j) + amp * coeff
    return PureState._of(reg, out, state.norm())


def splitter_blocks(angles: list[tuple[float, float]], totals: list[int] | range) -> np.ndarray:
    """The splitter at each ``(theta, phi)`` of ``angles`` as one
    block-diagonal matrix per angle pair; axes (angle, out, in).

    The diagonal holds, in the order of ``totals``, the block of each photon
    number n: the (n+1) x (n+1) matrix whose column k holds the output
    amplitudes of ``|k, n-k>`` and whose row m is ``|m, n-m>``, the rows
    :func:`apply_beam_splitter` applies.
    """
    *starts, dim = itertools.accumulate((n + 1 for n in totals), initial=0)
    # Each column k of the block at start s reads the row of |k, n-k>, whose entries (m, amp) go to row s + m.
    columns = [(start * dim + start + k, k, n - k) for start, n in zip(starts, totals) for k in range(n + 1)]
    rows = [_mixing_row(theta, phi, n1, n2) for theta, phi in angles for _, n1, n2 in columns]
    m1, amps = zip(*itertools.chain.from_iterable(rows))
    offsets = (np.arange(len(angles))[:, None] * dim * dim + [offset for offset, _, _ in columns]).ravel()
    blocks = np.zeros(len(angles) * dim * dim, dtype=complex)
    index = np.repeat(offsets, np.fromiter(map(len, rows), np.intp, len(rows))) + dim * np.fromiter(m1, np.intp, len(m1))
    blocks[index] = np.fromiter(amps, complex, len(amps))
    return blocks.reshape(len(angles), dim, dim)


def unitarity_check(params: BeamSplitterParams) -> float:
    """Max-norm deviation of the induced Fock-basis matrix from unitarity.

    Places the blocks of every total photon number up to
    :data:`~photonherald.fock.DEFAULT_CUTOFF` (4, the invariants suite's
    bound) on the diagonal (the splitter conserves that total, so this is
    the space it acts on without truncation) and returns
    ``max |U^dag U - I|``.
    """
    (u,) = splitter_blocks([(params.theta, params.phi)], range(DEFAULT_CUTOFF + 1))
    dev = u.conj().T @ u - np.eye(len(u))
    return float(np.max(np.abs(dev)))
