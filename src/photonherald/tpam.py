"""Two-photon-absorbing media (TPAMs).

Two models are provided:

* :class:`GenericTpam` — the abstract channel. Transparent to zero or one
  photon, and on two photons splits into an absorption branch (amplitude
  ``alpha``, medium jumps to an excited level) and a survival branch
  (amplitude ``beta``):

      |0>|g> -> |0>|g>
      |1>|g> -> |1>|g>
      |2>|g> -> alpha |0>|e> + beta |2>|g>

  ``|alpha|^2 + |beta|^2 = 1`` makes the map an isometry; a smaller sum
  models extra loss.  Inputs with more than two photons are rejected — the
  model defines no dynamics for them.

* :class:`FwmParams` / ``fwm_*`` — a resonant four-wave-mixing realization in
  which the photons of a pump mode cycle into a pair of generated field
  modes (E1, E2) with a photon-number-dependent period.  Lengths are
  expressed as multiples M of the full single-photon conversion cycle L0;
  the two-photon sector then evolves with interaction phase
  ``phi = M * pi * sqrt(3/2)``:

      |0,0,0> -> |0,0,0>
      |1,0,0> -> cos(M pi)|1,0,0> - i sin(M pi)|0,1,1>
      |2,0,0> -> alpha0|0,2,2> + alpha1|1,1,1> + beta|2,0,0>

  with alpha0 = -(2 sqrt2 / 3) e^{2i pump_phase} sin^2(phi/2),
  alpha1 = -(i/sqrt3) e^{i pump_phase} sin(phi), beta = (2 + cos(phi))/3;
  these always satisfy |alpha0|^2 + |alpha1|^2 + |beta|^2 = 1.  Because the
  sqrt(3/2) makes phi an irrational multiple of pi, integer M sweeps fill
  the phase circle densely.

  For odd integer M a single photon re-emerges with a sign flip; a
  compensating phase shifter on the pump mode, built into the mixer, undoes
  it, so the medium stays transparent to one photon.  At half-odd M
  (e.g. 3/2) a single photon converts completely into the generated pair —
  evaluated literally the amplitude is +i at M = 3/2; only its magnitude
  enters any probability reported here.

Conditioning the generated modes on a photon-count pattern turns the
four-wave mixer into an effective (generally trace-decreasing) channel on
the pump mode alone: a :class:`FwmTpamSpec` names the mixer and the
pattern, and is that channel (:meth:`FwmTpamSpec.apply`).

All three media are rules on one mode's photon number n <= 2, and one
kernel, ``_through``, applies each: per n, the outputs with their photon
count, the photons each generated field receives, whether the medium is
left excited, and one factor on the input amplitude.  The generic
absorber excites the medium and has no generated fields; the conditioned
channel does neither, so a circuit attaches the same medium whichever of
the two it runs; the mixer fills its two generated fields with the pair
count, and they must be empty on input.  Each medium value builds its
table once and keeps it.
"""

from __future__ import annotations

import cmath
import math
import numbers
import reprlib
from dataclasses import dataclass
from functools import lru_cache

from .fock import (
    PRUNE_THRESHOLD,
    FockKet,
    PureState,
    UnsupportedPhotonNumberError,
    _check_number,
    _ket,
)

__all__ = [
    "MAX_LENGTH_MULTIPLE",
    "GenericTpam",
    "FwmParams",
    "FwmTpamSpec",
    "apply_generic_tpam",
    "fwm_coefficients",
    "fwm_coefficients_from_phase",
    "fwm_evolve",
    "fwm_conditioned_channel",
]

_SQRT_3_2 = math.sqrt(1.5)
_INTEGER_TOL = 1e-9

#: Longest mixer a :class:`FwmParams` accepts, in single-photon cycles.  The
#: phases M*pi and M*pi*sqrt(3/2) are doubles, off by up to about M * 4e-16
#: rad: a few times 1e-10 rad at 1e6, but a quarter radian at 1e15, where
#: cos(M*pi) reads 0.97 for an integer M that must pass a lone photon.
MAX_LENGTH_MULTIPLE = 1e6

#: Bound of the caches of :meth:`GenericTpam._rules`, :meth:`FwmParams._terms`
#: and :meth:`FwmTpamSpec._rules`, one table per value.
_TERMS_CACHE_SIZE = 64


@dataclass(frozen=True, slots=True)
class GenericTpam:
    """Coefficients of the generic two-photon absorber.

    Args:
        alpha: two-photon absorption amplitude.
        beta: two-photon survival amplitude.
    """

    alpha: complex
    beta: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _check_number("generic TPAM alpha", self.alpha, numbers.Complex))
        object.__setattr__(self, "beta", _check_number("generic TPAM beta", self.beta, numbers.Complex))
        # A real or imaginary part above 2 in magnitude already breaks the
        # rule, so it is refused before its square can overflow.
        parts = (self.alpha.real, self.alpha.imag, self.beta.real, self.beta.imag)
        if max(map(abs, parts)) > 2.0 or abs(self.alpha) ** 2 + abs(self.beta) ** 2 > 1.0 + 1e-9:
            raise ValueError(f"generic TPAM requires |alpha|^2 + |beta|^2 <= 1, got {math.fsum(x * x for x in parts):.6g}")

    @classmethod
    def unitary(cls, beta: complex) -> "GenericTpam":
        """The lossless absorber with survival amplitude ``beta``: alpha = sqrt(1 - |beta|^2)."""
        beta = _check_number("generic TPAM beta", beta, numbers.Complex)
        if (mag := abs(beta)) > 1.0 + 1e-12:
            raise ValueError(f"|beta| must be <= 1, got {mag}")
        return cls(math.sqrt(max(0.0, 1.0 - mag * mag)), beta)

    @lru_cache(maxsize=_TERMS_CACHE_SIZE)
    def _rules(self) -> tuple:
        """The ``_through`` table of the absorber, kept per value."""
        return ((0, 0, False, 1.0),), ((1, 0, False, 1.0),), ((0, 0, True, self.alpha), (2, 0, False, self.beta))


def apply_generic_tpam(
    state: PureState, mode: str, tpam: GenericTpam, *, excited_level: int = 1
) -> PureState:
    """Send ``mode`` through a generic two-photon absorber.

    The state's register must carry a medium subsystem with at least
    ``excited_level + 1`` levels (``ModeRegister(..., medium_dims=...)``).
    Kets whose medium is already excited pass through untouched as
    long as they hold at most one photon in the mode — that is the
    "entangled consistently from earlier applications" case.  A two-photon
    ket with an excited medium is outside the model and rejected, as is any
    ket with more than two photons in the mode.
    """
    if not 0 <= excited_level < state.register.medium_dims:
        raise ValueError(f"excited level {excited_level} outside the register's {state.register.medium_dims} medium levels")
    return _through(state, mode, tpam._rules(), excited_level)


def _through(state: PureState, mode: str, rules: tuple, excited_level: int = 0, fields: tuple[str, ...] = ()) -> PureState:
    """Send ``mode`` of ``state`` through a two-photon medium given as a rule table.

    ``rules[n]``, for n = 0, 1, 2 photons in the mode, lists the outputs as
    (photons out, photons in each of ``fields``, whether the medium leaves
    at ``excited_level``, factor on the input amplitude).  An empty list
    drops the input.  The generated ``fields``, which only the mixer has,
    must be empty on input; an output that keeps the mode's photons and
    the medium fills none.  A ket with more than two photons in the mode,
    or one that would excite a medium already excited, is refused: the
    model defines no dynamics for it.
    """
    reg = state.register
    i = reg.index(mode)
    at = tuple(map(reg.index, fields)) if fields else ()
    out: dict[FockKet, complex] = {}
    for ket, amp in state._amps.items():
        occ, medium = ket
        n = occ[i]
        for j in at:
            if occ[j]:
                raise ValueError(f"the generated fields {fields} must be in vacuum on input, got {ket}")
        if n > 2:
            raise UnsupportedPhotonNumberError(f"a two-photon medium saw {n} photons in {mode!r}; the model covers at most 2")
        for n_out, pairs, excites, factor in rules[n]:
            if n_out == n and not excites:
                new = ket
            else:
                if excites and medium:
                    raise UnsupportedPhotonNumberError("two photons reached an excited medium; the model defines no dynamics for this")
                occ_out = [*occ]
                occ_out[i] = n_out
                for j in at:
                    occ_out[j] = pairs
                new = _ket((tuple(occ_out), excited_level if excites else medium))
            out[new] = out.get(new, 0j) + amp * factor
    return PureState._of(reg, out, state.norm())


@dataclass(frozen=True, slots=True)
class FwmParams:
    """Four-wave-mixing medium parameters.

    Args:
        length_multiple: medium length M in units of the full single-photon
            conversion cycle L0.  Positive and at most
            :data:`MAX_LENGTH_MULTIPLE`; integers keep the medium
            transparent to one photon, half-odd values convert one photon
            completely.
        pump_phase: phase of the classical pump amplitude; enters the
            two-photon coefficients as e^{i pump_phase} per converted photon
            pair.  Zero keeps beta real positive.
    """

    length_multiple: float
    pump_phase: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "length_multiple", _check_number("mixer length_multiple", self.length_multiple))
        object.__setattr__(self, "pump_phase", _check_number("mixer pump_phase", self.pump_phase))
        if not self.length_multiple > 0:
            raise ValueError("length_multiple must be positive")
        if self.length_multiple > MAX_LENGTH_MULTIPLE:
            raise ValueError(
                f"length_multiple {self.length_multiple:g} is above {MAX_LENGTH_MULTIPLE:g}: a double cannot hold its phase"
            )

    @property
    def interaction_phase(self) -> float:
        """Two-photon interaction phase phi = M * pi * sqrt(3/2)."""
        return self.length_multiple * math.pi * _SQRT_3_2

    @property
    def rabi_angle(self) -> float:
        """Single-photon conversion angle M * pi."""
        return self.length_multiple * math.pi

    @property
    def is_integer_length(self) -> bool:
        return abs(self.length_multiple - round(self.length_multiple)) <= _INTEGER_TOL

    @property
    def is_half_odd_length(self) -> bool:
        doubled = 2.0 * self.length_multiple
        return abs(doubled - round(doubled)) <= _INTEGER_TOL and round(doubled) % 2 == 1

    @lru_cache(maxsize=_TERMS_CACHE_SIZE)
    def _terms(self) -> tuple:
        """The ``_through`` table of the mixer on n = 0, 1, 2 pump photons with
        both generated fields empty: per n, the terms (pump photons out,
        photons in each generated field, False, amplitude).  At odd integer
        length the compensating phase shifter multiplies each term by
        (-1)^(pump photons out): the terms with one pump photon out change
        sign.  Kept per params, for the branches of a run that cross one
        mixer."""
        rabi = self.rabi_angle
        alpha0, alpha1, beta = fwm_coefficients(self)
        sign = -1.0 if self.is_integer_length and round(self.length_multiple) % 2 == 1 else 1.0
        return (
            ((0, 0, False, 1.0 + 0j),),
            ((1, 0, False, complex(math.cos(rabi) * sign)), (0, 1, False, -1j * math.sin(rabi))),
            ((0, 2, False, alpha0), (1, 1, False, alpha1 * sign), (2, 0, False, beta)),
        )


@dataclass(frozen=True, slots=True)
class FwmTpamSpec:
    """A four-wave mixer used as a TPAM: medium parameters plus the
    photon-count pattern required of the generated fields.

    It is the channel that detecting the generated fields induces on the
    pump mode: :meth:`apply` keeps the terms of the mixer whose generated
    fields show ``condition``.  The map is generally trace-decreasing: the
    lost norm is the probability of the condition failing.  With condition
    (0,0) and integer length it realizes the generic absorber with the
    absorption branch removed: |2> -> beta |2>, |1> -> |1>, |0> -> |0>.
    """

    params: FwmParams
    condition: tuple[int, int] = (0, 0)

    def __post_init__(self) -> None:
        counts = tuple(self.condition) if isinstance(self.condition, (tuple, list)) else ()
        if len(counts) != 2 or any(isinstance(c, bool) or c not in (0, 1, 2) for c in counts):
            raise ValueError(f"condition must be two whole counts in 0..2, got {reprlib.repr(self.condition)}")
        object.__setattr__(self, "condition", tuple(int(c) for c in counts))

    @lru_cache(maxsize=_TERMS_CACHE_SIZE)
    def _rules(self) -> tuple:
        """The ``_through`` table of the channel: per input pump count n, the
        mixer's terms whose generated fields hold ``condition`` photons, with
        amplitudes at or below :data:`PRUNE_THRESHOLD` dropped as a
        projection of the mixer's output would drop them."""
        return tuple(
            tuple(term for term in row if (term[1], term[1]) == self.condition and abs(term[3]) > PRUNE_THRESHOLD)
            for row in self.params._terms()
        )

    def survival_probability(self, n: int) -> float:
        """Probability that ``n`` pump photons pass the condition."""
        return sum((abs(factor) ** 2 for *_, factor in self._rules()[n]), 0.0)

    def apply(self, state: PureState, mode: str) -> PureState:
        """Send ``mode`` of ``state`` through the conditioned channel.

        The output is unnormalized; its lost squared norm is the probability
        that the generated-field detectors failed the condition.
        """
        return _through(state, mode, self._rules())


def fwm_coefficients_from_phase(
    phase: float, pump_phase: float = 0.0
) -> tuple[complex, complex, complex]:
    """Two-photon sector coefficients (alpha0, alpha1, beta) at a given phase."""
    pump = cmath.exp(1j * pump_phase)
    alpha0 = -(2.0 * math.sqrt(2.0) / 3.0) * pump * pump * math.sin(phase / 2.0) ** 2
    alpha1 = -(1j / math.sqrt(3.0)) * pump * math.sin(phase)
    beta = complex((2.0 + math.cos(phase)) / 3.0)
    return alpha0, alpha1, beta


def fwm_coefficients(params: FwmParams) -> tuple[complex, complex, complex]:
    return fwm_coefficients_from_phase(params.interaction_phase, params.pump_phase)


def fwm_evolve(
    state: PureState, modes: tuple[str, str, str], params: FwmParams
) -> PureState:
    """Propagate ``modes = (pump, e1, e2)`` through the four-wave mixer.

    Both generated-field modes must be in vacuum on every populated ket.
    Pump occupations above two are rejected (no dynamics defined).
    """
    return _through(state, modes[0], params._terms(), 0, modes[1:])


def fwm_conditioned_channel(
    params: FwmParams, condition: tuple[int, int] = (0, 0)
) -> FwmTpamSpec:
    """The pump-mode channel induced by detecting ``condition`` photons in
    the generated fields of the mixer ``params``: the :class:`FwmTpamSpec`
    of both, which checks ``condition``."""
    return FwmTpamSpec(params, condition)
