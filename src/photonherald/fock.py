"""Truncated few-mode bosonic Fock space: kets, pure states, ensembles.

States live on a :class:`ModeRegister` that fixes the mode labels, a shared
photon-number cutoff, and the dimension of an optional internal "medium"
subsystem (the absorber register used by two-photon media, ground state at
index 0).

A :class:`FockKet` is a plain tuple ``(occupations, medium)`` with named
fields, so hashing, equality and ordering run in C.  A :class:`PureState` is a
sparse map ``FockKet -> complex amplitude``; nothing writes the map after the
state is built, so a state sums its squared norm on first use and keeps it.
Mixed states are :class:`Ensemble` objects: tuples of unnormalized pure
states whose squared norms are the branch weights.  Every mixture produced by
the circuits in this package is diagonal in that decomposition, so the
ensemble picture is exact — a dense density-matrix representation is never
needed at runtime.

Conventions used throughout:

* One number rule: every numeric field of a value object (a splitter's
  angles, an absorber's or mixer's coefficients, a source's efficiency)
  and every numeric config field passes ``_check_number``, which refuses
  booleans, strings, other non-numbers and values that are not finite (an
  int too large for a float included) with a ``ValueError`` naming the
  field, and hands back the value as a float, or a complex where a complex
  is allowed.  The value objects store what it returns.
* One prune rule: amplitudes with magnitude at or below
  :data:`PRUNE_THRESHOLD` times a norm are dropped, so states never store
  numerical dust.  An op prunes relative to the norm of the state it acted
  on, and ``PureState(register, amplitudes)`` relative to the norm of the
  amplitudes it is given, so a small branch keeps what its normalized state
  would.
* One rule for small weights: a sum of squared magnitudes below the
  smallest normal double (about 2.2e-308) has lost bits, so where one is
  not a normal double, norms and rescaling factors come from the magnitudes
  themselves (``math.hypot``); everywhere else from ``math.sqrt`` of the
  sum.
* Ket iteration order is deterministic (lexicographic on occupations, then the
  medium index), which keeps every downstream output byte-stable.
* Conditioning (:func:`project_number`) returns the *unnormalized* kept
  component together with its squared norm.  For a normalized input that
  squared norm is the outcome probability.  Maps, projections and traces
  keep each ensemble branch unnormalized, so its squared norm is the joint
  probability of everything it has passed.
"""

from __future__ import annotations

import cmath
import math
import numbers
import reprlib
import sys
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

__all__ = [
    "DEFAULT_CUTOFF",
    "PRUNE_THRESHOLD",
    "FockError",
    "CutoffOverflowError",
    "UnsupportedPhotonNumberError",
    "ModeRegister",
    "FockKet",
    "PureState",
    "Ensemble",
    "fock_state",
    "apply_creation",
    "tensor",
    "project_number",
    "partial_trace_discard",
    "fidelity_to_single_photon",
    "relabel_modes",
]

#: Default photon-number cutoff per mode of a bare :class:`ModeRegister`, and
#: of ``photonherald verify``, whose invariants suite draws Fock states up to
#: it.  The scheme circuits hold their registers at two photons instead
#: (``schemes.CIRCUIT_CUTOFF``); an overflow raises either way.
DEFAULT_CUTOFF = 4

#: Amplitudes at or below this magnitude, relative to the norm of the state
#: an op acted on or of the amplitudes a state is built from, are discarded
#: when states are built.
PRUNE_THRESHOLD = 1e-14

#: Amplitude tolerance when deciding two branches are the same state
#: (up to a global phase) during ensemble consolidation.
_CONSOLIDATE_ATOL = 1e-10


class FockError(Exception):
    """Base class for physics-level errors raised by this package."""


class CutoffOverflowError(FockError):
    """An operation would populate occupations above the register cutoff.

    Raised instead of silently clipping, so truncation artifacts cannot
    masquerade as physics.
    """


class UnsupportedPhotonNumberError(FockError):
    """A nonlinear medium was fed more photons than its model covers."""


@dataclass(frozen=True, slots=True)
class ModeRegister:
    """Immutable description of the Hilbert space a state lives on.

    Args:
        labels: Ordered mode names, e.g. ``("B", "C")``.  Must be unique.
            May be empty (a register can shrink to nothing after every mode
            has been measured away).
        cutoff: Maximum photon number stored per mode, an ``int`` of at
            least 1.
        medium_dims: Dimension of the internal medium subsystem, an ``int``;
            ``1`` means no medium, ``2`` models {ground, excited}, larger
            values allow several distinguishable excited levels (one per
            absorber).

    Raises:
        ValueError: for repeated or empty labels, or a cutoff or medium
            size that is not an ``int`` of at least 1 (a boolean is not).
    """

    labels: tuple[str, ...]
    cutoff: int = DEFAULT_CUTOFF
    medium_dims: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.labels, tuple):
            object.__setattr__(self, "labels", tuple(self.labels))
        _check_labels(self.labels)
        for name, value in (("cutoff", self.cutoff), ("medium_dims", self.medium_dims)):
            if type(value) is bool or not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be an integer of at least 1, not a boolean, got {value!r}")

    @classmethod
    def _of(cls, labels: tuple[str, ...], cutoff: int, medium_dims: int) -> "ModeRegister":
        """A register built from parts that already passed the checks of the
        constructor: derived registers (a mode dropped, two registers joined,
        modes renamed) skip re-validation."""
        new = object.__new__(cls)
        object.__setattr__(new, "labels", labels)
        object.__setattr__(new, "cutoff", cutoff)
        object.__setattr__(new, "medium_dims", medium_dims)
        return new

    @property
    def n_modes(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        """Position of ``label`` in the register.

        Raises:
            KeyError: if the label is not present.
        """
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown mode label {label!r}; register has {self.labels}") from None

    def without(self, label: str) -> "ModeRegister":
        """A copy of this register with ``label`` removed."""
        i = self.index(label)
        return ModeRegister._of(self.labels[:i] + self.labels[i + 1 :], self.cutoff, self.medium_dims)

    def validate_ket(self, ket: "FockKet") -> None:
        if len(ket.occupations) != self.n_modes:
            raise ValueError(
                f"ket {ket} has {len(ket.occupations)} modes, register expects {self.n_modes}"
            )
        for n in ket.occupations:
            if not 0 <= n <= self.cutoff:
                raise CutoffOverflowError(f"occupation {n} outside [0, {self.cutoff}] in {ket}")
        if not 0 <= ket.medium < self.medium_dims:
            raise ValueError(f"medium index {ket.medium} outside [0, {self.medium_dims}) in {ket}")


def _check_labels(labels: tuple[str, ...]) -> None:
    if len(set(labels)) != len(labels):
        raise ValueError(f"mode labels must be unique, got {labels!r}")
    for label in labels:
        if not isinstance(label, str) or not label:
            raise ValueError(f"mode labels must be non-empty strings, got {label!r}")


def _check_number(name: str, value: object, kind: type = numbers.Real) -> float | complex:
    """The number rule: ``value`` as a float, or as a complex for ``kind``
    :class:`numbers.Complex`.

    Raises ``ValueError`` naming the field ``name`` unless ``value`` is a
    finite number of ``kind``: a boolean or a string is not a number, and an
    int too large for a float is not finite.  A float passes before the
    slower check against ``kind``.  The refusal shortens a long value.
    """
    if type(value) is float or not isinstance(value, bool) and isinstance(value, kind):
        try:
            number = complex(value) if kind is numbers.Complex else float(value)
        except OverflowError:
            number = math.inf
        if cmath.isfinite(number):
            return number
    raise ValueError(f"{name} must be a finite {kind.__name__.lower()} number, not booleans or strings, got {reprlib.repr(value)}")


class FockKet(NamedTuple):
    """A single basis ket: per-mode photon counts plus a medium index.

    A tuple, so kets order lexicographically on occupations, then medium.
    """

    occupations: tuple[int, ...]
    medium: int = 0

    def __str__(self) -> str:
        occ = ",".join(str(n) for n in self.occupations)
        return f"|{occ};m{self.medium}>"


#: ``_ket((occupations, medium))`` is ``FockKet(occupations, medium)`` without
#: the named tuple's Python-level ``__new__``, for the kernels' inner loops.
_ket = partial(tuple.__new__, FockKet)


class PureState:
    """Sparse pure state on a :class:`ModeRegister`.

    Stores only non-negligible amplitudes.  Instances are treated as
    immutable values: every operation returns a new state.  A ket given to
    the constructor more than once takes the sum of its amplitudes, as an
    op sums the amplitudes it sends to one ket.
    """

    __slots__ = ("register", "_amps", "_n2")

    def __init__(
        self,
        register: ModeRegister,
        amplitudes: Mapping[FockKet, complex] | Iterable[tuple[FockKet, complex]] = (),
    ) -> None:
        items = amplitudes.items() if isinstance(amplitudes, Mapping) else amplitudes
        amps: dict[FockKet, complex] = {}
        for ket, raw in items:
            register.validate_ket(ket)
            amp = complex(raw)
            amps[ket] = amps[ket] + amp if ket in amps else amp
        self.register = register
        self._amps = PureState._of(register, amps, _norm(amps.values(), sum(abs(a) ** 2 for a in amps.values())))._amps
        self._n2: float | None = None

    @classmethod
    def _of(cls, register: ModeRegister, amps: Mapping[FockKet, complex], norm: float) -> "PureState":
        """Wrap complex amplitudes on kets already valid on ``register``.

        Skips :meth:`ModeRegister.validate_ket`, so only operations that map
        valid kets to valid kets may use it.  ``norm`` is the norm of the
        state the amplitudes were computed from; amplitudes at or below
        :data:`PRUNE_THRESHOLD` times it are dropped, into a new dict.  The
        cut is relative, so an op on an unnormalized branch keeps what it
        would keep on the normalized one.  This is the one prune filter: the
        constructor prunes through it too.
        """
        floor = PRUNE_THRESHOLD * norm
        new = cls.__new__(cls)
        new.register = register
        new._amps = {ket: amp for ket, amp in amps.items() if abs(amp) > floor}
        new._n2 = None
        return new

    # -- inspection ------------------------------------------------------

    def terms(self) -> Iterator[tuple[FockKet, complex]]:
        """Deterministically ordered (ket, amplitude) pairs."""
        return iter(sorted(self._amps.items()))

    def amplitude(self, ket: FockKet) -> complex:
        return self._amps.get(ket, 0j)

    def squared_norm(self) -> float:
        """Sum of |amplitude|^2, computed on first use and kept."""
        if self._n2 is None:
            self._n2 = sum(abs(a) ** 2 for a in self._amps.values())
        return self._n2

    def norm(self) -> float:
        return math.sqrt(self.squared_norm())

    def __len__(self) -> int:
        return len(self._amps)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = " + ".join(f"({a:.6g}){k}" for k, a in self.terms())
        return f"PureState({body or '0'})"

    # -- elementwise operations ------------------------------------------

    def scaled(self, factor: complex) -> "PureState":
        """This state times ``factor``; scaling prunes nothing but exact zeros."""
        return PureState._of(self.register, {k: a * factor for k, a in self._amps.items()}, 0.0)


def fock_state(
    register: ModeRegister, occupations: Iterable[int], medium: int = 0
) -> PureState:
    """The basis state ``|occupations; medium>`` with unit amplitude."""
    return PureState(register, {FockKet(tuple(occupations), medium): 1.0 + 0j})


def apply_creation(state: PureState, mode: str) -> PureState:
    """Apply the bosonic creation operator on ``mode``.

    Each ket ``|..n..>`` maps to ``sqrt(n+1)|..n+1..>``, extended linearly.

    Raises:
        CutoffOverflowError: if any populated ket already sits at the cutoff.
    """
    i = state.register.index(mode)
    out: dict[FockKet, complex] = {}
    for ket, amp in state._amps.items():
        n = ket.occupations[i]
        if n + 1 > state.register.cutoff:
            raise CutoffOverflowError(
                f"creation on {mode!r} would exceed cutoff {state.register.cutoff} from {ket}"
            )
        new = _ket((ket.occupations[:i] + (n + 1,) + ket.occupations[i + 1 :], ket.medium))
        out[new] = out.get(new, 0j) + amp * math.sqrt(n + 1)
    return PureState(state.register, out)


def tensor(a: PureState, b: PureState) -> PureState:
    """Tensor product; registers concatenate, amplitudes multiply.

    The two registers must use the same cutoff and have disjoint labels.
    At most one side may carry a nontrivial medium subsystem (the product
    keeps that one); media are global here, not per-mode.
    """
    ra, rb = a.register, b.register
    if set(ra.labels) & set(rb.labels):
        raise ValueError(f"label collision in tensor: {set(ra.labels) & set(rb.labels)}")
    if ra.cutoff != rb.cutoff:
        raise ValueError("tensor requires matching cutoffs")
    if ra.medium_dims > 1 and rb.medium_dims > 1:
        raise ValueError("at most one tensor factor may carry a medium subsystem")
    reg = ModeRegister._of(ra.labels + rb.labels, ra.cutoff, max(ra.medium_dims, rb.medium_dims))
    out: dict[FockKet, complex] = {}
    for ka, aa in a._amps.items():
        for kb, ab in b._amps.items():
            medium = ka.medium if ra.medium_dims > 1 else kb.medium
            out[_ket((ka.occupations + kb.occupations, medium))] = aa * ab
    return PureState._of(reg, out, a.norm() * b.norm())


def project_number(state: PureState, mode: str, n: int) -> tuple[PureState, float]:
    """Project onto ``n`` photons in ``mode`` (ideal number-resolving click).

    Keeps only the kets with occupation ``n`` in the mode and removes the
    measured mode from the register.  Returns the unnormalized kept state and
    its squared norm — the outcome probability when the input is normalized.
    An empty result is not an error: it comes back as (zero state, 0.0).
    """
    if n > state.register.cutoff:
        raise ValueError(f"cannot project onto n={n} above cutoff {state.register.cutoff}")
    i = state.register.index(mode)
    reg = state.register.without(mode)
    out: dict[FockKet, complex] = {}
    for ket, amp in state._amps.items():
        if ket.occupations[i] == n:
            occ = ket.occupations[:i] + ket.occupations[i + 1 :]
            out[_ket((occ, ket.medium))] = amp
    kept = PureState._of(reg, out, state.norm())
    return kept, kept.squared_norm()


def relabel_modes(state: PureState, mapping: Mapping[str, str]) -> PureState:
    """Rename modes; occupations and amplitudes are untouched."""
    labels = tuple(mapping.get(lbl, lbl) for lbl in state.register.labels)
    _check_labels(labels)
    reg = ModeRegister._of(labels, state.register.cutoff, state.register.medium_dims)
    return PureState._of(reg, state._amps, 0.0)


class Ensemble:
    """A mixed state ``rho = sum_k |psi_k><psi_k|`` over unnormalized pure states.

    A branch's weight is the squared norm of its state, so maps, projections
    and traces carry probability in the amplitudes themselves.  Before any
    conditioning the weights of a physical input mixture sum to 1; after
    conditioning the total weight is the accumulated joint probability of
    the accepted outcomes.

    ``Ensemble(register, states)`` wraps states already on ``register``
    without re-checking them; :attr:`branches` gives the (weight, normalized
    state) view.
    """

    __slots__ = ("register", "states")

    def __init__(self, register: ModeRegister, states: Iterable[PureState]) -> None:
        self.register = register
        self.states = _live(states)

    @property
    def branches(self) -> tuple[tuple[float, PureState], ...]:
        """(weight, normalized state) pairs."""
        return tuple((n2, s.scaled(1.0 / _norm(s._amps.values(), n2))) for s in self.states for n2 in [s.squared_norm()])

    def __len__(self) -> int:
        return len(self.states)

    def normalized_weights(self) -> "Ensemble":
        """The ensemble with weights summing to 1."""
        total = sum(s.squared_norm() for s in self.states)
        if total <= 0.0:
            raise ValueError("cannot normalize an empty ensemble")
        norm = _norm((a for s in self.states for a in s._amps.values()), total)
        return Ensemble(self.register, (s.scaled(1.0 / norm) for s in self.states))

    def consolidated(self) -> "Ensemble":
        """Merge branches whose states are equal up to norm and global phase.

        The first state of each group is kept, scaled to the group's total
        weight.  Keeps ensembles small after partial traces; exact mixtures
        produced by the circuits here only ever have a handful of distinct
        branches, so the pairwise comparison is cheap.  An ensemble of one
        state is returned as it is.
        """
        if len(self.states) < 2:
            return self
        groups: list[list] = []  # [direction, group weight, the group's states]
        for state in self.states:
            n2 = state.squared_norm()
            direction = _direction(state, n2)
            for group in groups:
                if _states_close(direction, group[0]):
                    group[1] += n2
                    group[2].append(state)
                    break
            else:
                groups.append([direction, n2, [state]])
        merged = []
        for _, total, states in groups:
            first, own = states[0], states[0].squared_norm()
            group = (a for s in states for a in s._amps.values())
            merged.append(first if total == own else first.scaled(_norm(first._amps.values(), own, total, group)))
        return Ensemble(self.register, merged)


def _norm(amps: Iterable[complex], n2: float, weight: float | None = None, group: Iterable[complex] = ()) -> float:
    """The norm of ``amps``, whose squared magnitudes sum to ``n2``; given a
    ``weight``, the sum of the squared magnitudes of ``group``, the factor
    that takes ``amps`` to that squared norm instead.

    The one rule for small weights.  Where ``n2`` is a normal double these
    are ``math.sqrt(n2)`` and ``math.sqrt(weight / n2)``.  Below that a sum
    of squares has lost bits, so each norm whose square is not a normal
    double comes from the magnitudes, as ``math.hypot`` takes them.
    """
    if weight is None:
        return math.sqrt(n2) if n2 >= sys.float_info.min else math.hypot(*map(abs, amps))
    if n2 >= sys.float_info.min:
        return math.sqrt(weight / n2)
    return _norm(group, weight) / _norm(amps, n2)


def _live(states: Iterable[PureState]) -> tuple[PureState, ...]:
    """The states that carry weight.  Ops prune relative to each branch's own
    norm, so a branch dies by losing every amplitude, not by being small."""
    return tuple(s for s in states if s.squared_norm() > 0.0)


def _direction(state: PureState, n2: float) -> PureState:
    """``state`` at unit norm, turned so its largest amplitude is real positive."""
    norm = _norm(state._amps.values(), n2)
    best: tuple[float, FockKet] | None = None
    for ket, amp in state._amps.items():
        mag = abs(amp) / norm
        if best is None or mag > best[0] + 1e-15 or (abs(mag - best[0]) <= 1e-15 and ket < best[1]):
            best = (mag, ket)
    anchor = state._amps[best[1]]
    return state.scaled(abs(anchor) / anchor / norm)


def _states_close(a: PureState, b: PureState) -> bool:
    kets = set(a._amps) | set(b._amps)
    return all(abs(a.amplitude(k) - b.amplitude(k)) <= _CONSOLIDATE_ATOL for k in kets)


def partial_trace_discard(state: PureState, mode: str) -> Ensemble:
    """Trace out one mode, returning the reduced state as an ensemble.

    Grouping the kets by the discarded mode's occupation yields orthogonal
    components; their squared norms are the branch weights of the reduced
    density matrix.
    """
    i = state.register.index(mode)
    reg = state.register.without(mode)
    groups: dict[int, dict[FockKet, complex]] = {}
    for ket, amp in state._amps.items():
        occ = ket.occupations[:i] + ket.occupations[i + 1 :]
        groups.setdefault(ket.occupations[i], {})[_ket((occ, ket.medium))] = amp
    return Ensemble(reg, (PureState._of(reg, amps, state.norm()) for _, amps in sorted(groups.items()))).consolidated()


def fidelity_to_single_photon(state: PureState | Ensemble) -> float:
    """Overlap with the one-photon Fock state of a single-mode state.

    For a pure state this is ``|<1|psi>|^2`` (medium levels summed over, i.e.
    the medium is traced out); for an ensemble, the weight-averaged value.
    Norms and weights are divided out, so conditioned states can be passed
    directly.

    Raises:
        ValueError: if the state still has more (or fewer) than one mode.
    """
    if state.register.n_modes != 1:
        raise ValueError(
            f"fidelity_to_single_photon needs a single-mode state, got {state.register.n_modes} modes"
        )
    states = state.states if isinstance(state, Ensemble) else (state,)
    total = sum(psi.squared_norm() for psi in states)
    if total <= 0.0:
        return 0.0
    got = sum(
        abs(amp) ** 2 for psi in states for ket, amp in psi._amps.items() if ket.occupations == (1,)
    )
    return got / total
