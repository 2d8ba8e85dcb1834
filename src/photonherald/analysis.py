"""Closed-form success probabilities, the null-condition manifold, sweeps.

The interferometric scheme only heralds cleanly when a lone photon can never
reach the detector.  That destructive-interference requirement pins the
splitter parameters to a one-dimensional manifold:

* the relative phases must satisfy ``phi1 - phi2 = nu * pi`` for integer nu;
* for even nu, ``cos(theta1 + theta2) = 0``; for odd nu,
  ``cos(theta1 - theta2) = 0``.

That yields four constraint branches (sum/diff, +pi/2 / -pi/2).  On every
one of them the two-photon click probability has the same closed form,

    P_s / p^2 = |1 - beta|^2 cos^6(theta1) sin^2(theta1),

depending on the angles only through the splitter ahead of the absorber.
(Parameterizing by the second splitter instead gives the mirrored surface
``|1-beta|^2 sin^6(theta2) cos^2(theta2)``; the two expressions agree on the
manifold.)  The optimum sits at theta1 = 30 degrees modulo the symmetry set
{30, 150, 210, 330} and equals ``27/256 |1-beta|^2`` — independent of the
absorber, which only sets the prefactor.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import numbers
import reprlib
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .elements import BeamSplitterParams, splitter_blocks
from .fock import PRUNE_THRESHOLD, FockKet, ModeRegister, PureState, _check_number, fock_state
from .schemes import DEFAULT_TPAM, MAIN, Circuit, SchemeConfig, SourceSpec, _front_weights, build_circuit
from .tpam import FwmParams, FwmTpamSpec, GenericTpam, apply_generic_tpam, fwm_coefficients

__all__ = [
    "ANGLE_TOL",
    "CaseId",
    "SweepSpec",
    "manifold_completion",
    "closed_form_ps",
    "manifold_config",
    "golden_section_maximize",
    "optimize_ps",
    "jf_length_scan",
    "sweep_rows",
    "SWEEP_COLUMNS",
    "MAX_SWEEP_POINTS",
]

#: Angular tolerance for deciding a configuration sits on the manifold.
ANGLE_TOL = 1e-10

#: Peak value of cos^6(t) sin^2(t), attained at t = 30 degrees.
_PEAK = 27.0 / 256.0


class CaseId(str, Enum):
    """The four null-condition branches."""

    SUM_PLUS = "sum_plus"
    SUM_MINUS = "sum_minus"
    DIFF_PLUS = "diff_plus"
    DIFF_MINUS = "diff_minus"


def manifold_completion(theta1: float, case: CaseId | str) -> tuple[float, float, float]:
    """Given theta1 and a branch, return (theta2, phi1, phi2) on the manifold.

    This holds the case rule, for configs and sweeps alike.

    Raises:
        ValueError: naming ``case`` for a value that is no branch.
    """
    try:
        cid = CaseId(case)
    except ValueError:
        raise ValueError(f"case must be one of {[branch.value for branch in CaseId]}, got {reprlib.repr(case)}") from None
    if cid is CaseId.SUM_PLUS:
        return math.pi / 2 - theta1, 0.0, 0.0
    if cid is CaseId.SUM_MINUS:
        return -math.pi / 2 - theta1, 0.0, 0.0
    if cid is CaseId.DIFF_PLUS:
        return theta1 - math.pi / 2, math.pi, 0.0
    return theta1 + math.pi / 2, math.pi, 0.0


def closed_form_ps(beta: complex, theta1: float) -> float:
    """Success probability per p^2 on the null-condition manifold.

    Every branch gives ``|1-beta|^2 cos^6(theta1) sin^2(theta1)``: on the
    manifold the click probability depends on the angles only through the
    splitter ahead of the absorber.  Off the manifold there is no closed
    form; run the simulator instead.
    """
    return abs(1.0 - beta) ** 2 * math.cos(theta1) ** 6 * math.sin(theta1) ** 2


def _number(name: str, value: object, kind: type = numbers.Real) -> float | complex:
    """The field ``name`` through the number rule,
    :func:`~photonherald.fock._check_number`, as a ``kind`` number.  This is
    the one step that reads typed text, as flags, files and the absorber
    wire format give it: with ``float``, or with ``complex`` (spaces
    dropped) for ``kind`` :class:`numbers.Complex`."""
    if isinstance(value, str):
        with contextlib.suppress(ValueError):
            value = complex(value.replace(" ", "")) if kind is numbers.Complex else float(value)
    return _check_number(name, value, kind)


def _whole(name: str, value: object) -> int:
    """A count given as an int or an integral float (JSON may write 1e9)."""
    number = _number(name, value)
    if not number.is_integer():
        raise ValueError(f"{name} must be a whole number, got {reprlib.repr(value)}")
    return int(number)


def manifold_config(
    theta1: float = math.pi / 4,
    case: CaseId | str = CaseId.SUM_PLUS,
    *,
    p: float = 1.0,
    tpam: GenericTpam | FwmTpamSpec | None = None,
    theta0: float = math.pi / 4,
    theta2: float | None = None,
    phi1: float | None = None,
    phi2: float | None = None,
    variant: str = MAIN,
) -> SchemeConfig:
    """The one way to turn manifold parameters into a :class:`SchemeConfig`.

    theta2, phi1 and phi2 default to the completion of theta1 on ``case``;
    giving them leaves the manifold.  ``tpam`` is the only absorber argument:
    ``None`` means the variant's entry in :data:`~photonherald.schemes.DEFAULT_TPAM`,
    and a unitary generic absorber with survival amplitude beta is
    ``GenericTpam.unitary(beta)``.

    Each numeric parameter passes the number rule of
    :func:`~photonherald.fock._check_number` under its own name, so a
    refusal names the field the caller gave (``theta2``, not the splitter's
    ``theta``); text such as a flag's is read with ``float`` first.  The
    splitters are built from the checked angles and hold no modes.

    Raises:
        ValueError: for a null, non-numeric or non-finite parameter (an int
            too large for a float included), a theta1 so large that its
            completed theta2 misses the branch by more than ``ANGLE_TOL`` in
            double precision, or an absorber the variant cannot run.
    """
    theta1 = _number("theta1", theta1)
    completion = _completed(theta1, case) if theta2 is None else manifold_completion(theta1, case)
    theta2, phi1, phi2 = (
        default if value is None else _number(name, value)
        for name, value, default in zip(("theta2", "phi1", "phi2"), (theta2, phi1, phi2), completion)
    )
    return SchemeConfig(
        source=SourceSpec(_number("p", p)),
        tpam=DEFAULT_TPAM.get(variant) if tpam is None else tpam,  # SchemeConfig rejects an unknown variant
        bs0=BeamSplitterParams(_number("theta0", theta0)),
        bs1=BeamSplitterParams(theta1, phi1),
        bs2=BeamSplitterParams(theta2, phi2),
        variant=variant,
    )


def _completed(theta1: float, case: CaseId | str) -> tuple[float, float, float]:
    """:func:`manifold_completion`, checked to hold in double precision.

    On the sum (diff) branches theta1 + theta2 (theta1 - theta2) is +-pi/2;
    for a huge theta1 the rounding of theta2 loses that.
    """
    completion = manifold_completion(theta1, case)
    off = math.cos(theta1 + completion[0] if completion[1] == 0.0 else theta1 - completion[0])
    if abs(off) > ANGLE_TOL:
        raise ValueError(
            f"theta1 = {theta1!r} is too large to complete theta2 onto {CaseId(case).value} "
            f"in double precision (the branch cosine is {off:.3g}, not 0)"
        )
    return completion


def golden_section_maximize(f, lo: float, hi: float, tol: float = 1e-9) -> tuple[float, float]:
    """Derivative-free 1-D maximization on [lo, hi] (assumed unimodal there)."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    x = (a + b) / 2.0
    return x, f(x)


#: Points of the coarse theta1 grid :func:`optimize_ps` refines from.
_GRID_POINTS = 1441


def optimize_ps(beta: complex) -> tuple[float, float]:
    """Maximize the closed form, the same on every branch, over theta1 in [0, 2 pi).

    Coarse grid scan followed by golden-section refinement around the best
    grid point.  Returns (theta1_star, ps_star); the argmax lands on one of
    the symmetric optima {30, 150, 210, 330} degrees for every beta != 1.
    ``beta`` passes the number rule, so NaN or a string raises ``ValueError``.
    """
    beta = _check_number("beta", beta, numbers.Complex)

    def f(theta1: float) -> float:
        return closed_form_ps(beta, theta1)

    step = 2.0 * math.pi / _GRID_POINTS
    best_i = max(range(_GRID_POINTS), key=lambda i: f(i * step))
    lo, hi = (best_i - 1) * step, (best_i + 1) * step
    theta_star, ps_star = golden_section_maximize(f, lo, hi)
    return theta_star % (2.0 * math.pi), ps_star


def jf_length_scan(m_values: Iterable[float]) -> list[float]:
    """Success probability per p^2 of a mixer conditioned on empty generated
    fields, one value per length of m_values, in their order.

    The length alone sets the composition of each value: an integer length
    feeds the interferometric scheme at its optimal angle
    (27/256 |1-beta|^2), a half-odd length the filter-split scheme
    (|beta|^2 / 4); any other length raises ``ValueError``.  Because the
    interaction phase advances by an irrational multiple of pi per cycle,
    integer scans fill the phase circle densely and the running max of the
    interferometric composition climbs toward 27/256 * 16/9 = 3/64.
    """
    values: list[float] = []
    for m in m_values:
        params = FwmParams(m)
        _, _, beta = fwm_coefficients(params)
        if params.is_integer_length:
            values.append(_PEAK * abs(1.0 - beta) ** 2)
        elif params.is_half_odd_length:
            values.append(abs(beta) ** 2 / 4.0)
        else:
            raise ValueError(f"no scheme composes a mixer of length_multiple {m}: it must be an integer or half-odd")
    return values


# --------------------------------------------------------------------------
# Parameter sweeps


#: Largest grid a sweep accepts, checked before any axis is built.  On a
#: 2-CPU host a README-shaped grid runs at about 400k points per second in
#: the benchmark harness, once its stage matrices are kept, and a 100 x 100
#: theta0 x p grid at about 65k-110k, each (theta0, p) pair costing its
#: sector weights, about 8-9 us on cached splitter rows.  Each theta1 value
#: the memo lacks costs its splitter rows and each beta value its absorber
#: block, some microseconds each, so this limit takes longest, about 10 s,
#: on one long theta1 axis, whose rows overflow the ``_mixing_row`` cache.
MAX_SWEEP_POINTS = 100_000


def _check_grid_size(points: int) -> None:
    if points > MAX_SWEEP_POINTS:
        raise ValueError(f"sweep grid has {points} points, more than the {MAX_SWEEP_POINTS} allowed")


SWEEP_COLUMNS = (
    "theta0_rad",
    "theta1_rad",
    "theta2_rad",
    "beta_re",
    "beta_im",
    "p",
    "p_success",
    "p_success_over_p2",
    "fidelity",
)


@dataclass(frozen=True, slots=True)
class SweepSpec:
    """Grids for a main-scheme parameter sweep, checked when built.

    Angles are radians; each sweep point snaps theta2 (and the phases) onto
    the requested constraint branch rather than penalizing violations.
    Each axis value passes the rule a single run applies to it, once, and
    the spec stores what that rule returns: theta0 and theta1 the number
    rule under their own names (text read as :func:`_number` reads it),
    theta1 also the completion onto ``case`` in double precision, p the
    range of :class:`~photonherald.schemes.SourceSpec`, and beta the rule
    of ``GenericTpam.unitary``.  So theta0, theta1 and p hold floats and
    beta complex numbers, and a refusal carries the single run's message.

    Raises:
        ValueError: for a case that is no branch, an axis that is not a
            list or a tuple, a grid above ``MAX_SWEEP_POINTS``, an empty
            axis, a value its rule refuses, or a decreasing theta0, theta1
            or p axis.
    """

    theta0: tuple[float, ...] = (math.pi / 4,)
    theta1: tuple[float, ...] = (math.pi / 4,)
    beta: tuple[complex, ...] = (0j,)
    p: tuple[float, ...] = (1.0,)
    case: CaseId = CaseId.SUM_PLUS

    def __post_init__(self) -> None:
        manifold_completion(0.0, self.case)  # the case rule
        object.__setattr__(self, "case", CaseId(self.case))
        axes = {name: getattr(self, name) for name in ("theta0", "theta1", "p", "beta")}
        for name, values in axes.items():
            if not isinstance(values, (list, tuple)):
                raise ValueError(f"sweep axis {name!r} must be a list or a tuple, got {reprlib.repr(values)}")
        _check_grid_size(math.prod(map(len, axes.values())))
        for name, values in axes.items():
            axis = tuple(_axis_value(name, value, self.case) for value in values)
            if not axis:
                raise ValueError(f"sweep axis {name!r} is empty")
            if name != "beta" and any(b < a for a, b in zip(axis, axis[1:])):
                raise ValueError(f"sweep axis {name!r} must be non-decreasing")
            object.__setattr__(self, name, axis)

    @classmethod
    def from_mapping(cls, data: Mapping[str, object]) -> "SweepSpec":
        """Parse the JSON sweep format into :class:`SweepSpec` arguments,
        which the spec checks.

        Each axis is either an explicit list of values or a range object
        ``{"start": x, "stop": y, "steps": n, "unit": "deg"|"rad"}`` (unit
        applies to the angle axes only, default radians; ``p`` takes none).
        Beta values may be numbers, ``[re, im]`` pairs, or strings accepted
        by ``complex()``.  The grid size is checked before a range is built.
        """
        unknown = set(data) - {"theta0", "theta1", "beta", "p", "case"}
        if unknown:
            raise ValueError(f"unknown sweep axes: {reprlib.repr(sorted(unknown))}")
        axes = {name: _parse_axis(name, data[name]) for name in ("theta0", "theta1", "p") if name in data}
        beta = data.get("beta", [0j])
        if not isinstance(beta, (list, tuple)):
            raise ValueError("'beta' must be a list")
        _check_grid_size(math.prod(size for size, _ in axes.values()) * len(beta))
        kwargs: dict[str, object] = {name: tuple(values) for name, (_, values) in axes.items()}
        kwargs["beta"] = tuple(_parse_beta(v) for v in beta)
        if "case" in data:
            kwargs["case"] = data["case"]
        return cls(**kwargs)


def _axis_value(name: str, value: object, case: CaseId) -> float | complex:
    """A value of the sweep axis ``name`` through the rule a single run
    applies to it: :func:`manifold_config`'s for the angles and p, and
    ``GenericTpam.unitary``'s for beta."""
    if name == "beta":
        return GenericTpam.unitary(_number("generic TPAM beta", value, numbers.Complex)).beta
    number = _number(name, value)
    if name == "theta1":
        _completed(number, case)
    return SourceSpec(number).p if name == "p" else number


def _parse_axis(name: str, raw: object) -> tuple[int, Iterable[object]]:
    """An axis as (size, values).  A range's values are generated lazily, so
    the grid size can be checked before any of them is built."""
    if isinstance(raw, (list, tuple)):
        return len(raw), raw
    if isinstance(raw, Mapping):
        extra = set(raw) - {"start", "stop", "steps", "unit"}
        if extra:
            raise ValueError(f"unknown keys in axis spec: {reprlib.repr(sorted(extra))}")
        try:
            start, stop = _number(f"{name} start", raw["start"]), _number(f"{name} stop", raw["stop"])
            steps = _whole("steps", raw["steps"])
        except KeyError as missing:
            raise ValueError(f"axis spec needs start/stop/steps, missing {missing}") from None
        if steps < 1:
            raise ValueError("axis spec needs steps >= 1")
        if name == "p" and "unit" in raw:
            raise ValueError("'unit' only applies to angle axes, not to 'p'")
        unit = raw.get("unit", "rad")
        scale = math.pi / 180.0 if unit == "deg" else 1.0
        if unit not in ("deg", "rad"):
            raise ValueError(f"unknown unit {reprlib.repr(unit)} on sweep axis {name!r}")
        if steps == 1:
            return 1, [start * scale]
        inc = (stop - start) / (steps - 1)
        return steps, ((start + i * inc) * scale for i in range(steps))
    raise ValueError(f"sweep axis {name!r} must be a list or a range object, got {reprlib.repr(raw)}")


def _parse_beta(raw: object) -> object:
    """A beta value, an ``[re, im]`` pair made complex; :class:`SweepSpec` checks it."""
    if not isinstance(raw, (list, tuple)):
        return raw
    if len(raw) != 2:
        raise ValueError(f"beta pair must be [re, im], got {reprlib.repr(raw)}")
    return complex(_number("beta", raw[0]), _number("beta", raw[1]))


def sweep_rows(spec: SweepSpec) -> list[dict[str, float]]:
    """Evaluate the main scheme at every grid point; deterministic row order.

    Grid order is theta0-major, then theta1, beta, p.  The spec's values
    were checked when it was built, so the sweep checks nothing; it runs
    the :func:`build_circuit` stages of the default main config, which do
    not depend on the axes.  Each stage is one block-diagonal matrix on the
    input photon-number sectors 0, 1 and 2, built once per value it depends
    on and kept across calls by :func:`_sector_heralds` (the splitters per
    (theta, phi), the absorber ``GenericTpam.unitary(beta)`` per beta), so
    a repeated call builds none of them; no herald or row is kept.  numpy
    products cover the whole theta1 x beta product.  B's weight of each
    sector, and that weight over p^2, come per (theta0, p) pair from the
    function that :func:`reduce_through_bs0` calls after its checks, with
    no checks per pair.  As the fold of a single run
    (:func:`~photonherald.schemes._interpret`) weights its
    :func:`~photonherald.schemes._sectors` rows, p_success sums the weights
    times the sectors' heralds, p_success/p^2 sums the weights over p^2
    times the heralds, and the fidelity weights the sectors that herald
    relative to the largest.  After every stage the amplitudes a single run
    would prune are set to 0, so rows agree with ``run_main_scheme`` to
    rounding, and its exact zeros stay 0.
    """
    circuit = build_circuit(manifold_config())
    completed = [manifold_completion(theta1, spec.case) for theta1 in spec.theta1]
    bs1 = [(theta1, phi1) for theta1, (_, phi1, _) in zip(spec.theta1, completed)]
    bs2 = [(theta2, phi2) for theta2, _, phi2 in completed]
    heralds = _sector_heralds(circuit, bs1, bs2, [GenericTpam.unitary(beta) for beta in spec.beta])
    # B's weight of 0, 1 and 2 photons per (theta0, p), and that weight over p^2: axes (theta0, p, n).
    fronts = [[_front_weights(q, t, 0.0) for q in spec.p] for t in spec.theta0]
    weights, over_p2 = np.array([[[[front[i].get(n, 0.0) for n in range(3)] for front in row] for row in fronts] for i in (0, 1)])
    p_success = np.einsum("kln,tbn->ktbl", weights, heralds[0])
    # As in a single run, a sector whose weight over p^2 overflows (at p = 0, the vacuum's below
    # p = 1e-154, the one-photon sector's below 5.6e-309) outweighs every other sector where it
    # heralds; otherwise the sectors are weighed by their weights over p^2.
    overflow = over_p2 == math.inf
    finite, lead = (np.einsum("kln,xtbn->xktbl", w, heralds) for w in (np.where(overflow, 0.0, over_p2), 1.0 * overflow))
    part = np.where(lead[0] > 0.0, lead, finite)
    ratio = np.where(np.array(spec.p) > 0.0, np.where(lead[0] > 0.0, math.inf, finite[0]), math.nan)
    fidelity = np.divide(part[1], part[0], out=np.zeros_like(part[0]), where=part[0] > 0.0)
    values = zip(p_success.ravel().tolist(), ratio.ravel().tolist(), fidelity.ravel().tolist())
    points = itertools.product(spec.theta0, zip(spec.theta1, completed), spec.beta, spec.p)
    return [
        {
            "theta0_rad": theta0,
            "theta1_rad": theta1,
            "theta2_rad": theta2,
            "beta_re": beta.real,
            "beta_im": beta.imag,
            "p": p,
            "p_success": p_success,
            "p_success_over_p2": ratio,
            "fidelity": fidelity,
        }
        for (theta0, (theta1, (theta2, _, _)), beta, p), (p_success, ratio, fidelity) in zip(points, values)
    ]


#: Most (theta1, beta) pairs the sweep engine holds amplitudes for at once,
#: which bounds its memory on a large grid; a README-shaped grid is one chunk.
_CHUNK = 4096

#: Bounds of the sweep engine's memos of its constant stage matrices.  A
#: splitter or absorber block of the main circuit is a 7 x 7 complex matrix,
#: about 1 kB with its key, so either memo holds about 1 MB when full; a
#: layout is a few kB, one per circuit shape, and every sweep runs one shape.
_BLOCK_MEMO_SIZE = 1024
_LAYOUT_MEMO_SIZE = 16

#: The splitter blocks :func:`_splitter_blocks` has built, keyed on
#: ``(theta, phi, totals)``.
_SPLITTER_MEMO: dict[tuple[float, float, tuple[int, ...]], np.ndarray] = {}


class _Layout(NamedTuple):
    """The sectors of a circuit shape: the photon-number total of each
    diagonal block, the basis kets and their states, the herald's ``keep``
    and ``one`` masks over the basis, and the input rows ``|n, 0>``."""

    totals: tuple[int, ...]
    basis: tuple[FockKet, ...]
    kets: tuple[PureState, ...]
    keep: np.ndarray
    one: np.ndarray
    inputs: np.ndarray


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@lru_cache(maxsize=_LAYOUT_MEMO_SIZE)
def _layout(shape: tuple) -> _Layout:
    """The sector layout of ``shape``, ``(attach vacuum's register, herald
    counts, absorber mode, excited level)``.

    The input is the front splitter's output B; the circuit attaches the
    rest, with the medium.  Sector n holds the kets ``|k, n-k>`` on the
    ground medium and, on each excited level, ``|k, n-2-k>``: the absorber
    took two photons.  Sector 2 comes first, so each sum over a sector's
    kets adds them in the order it would alone.
    """
    vacuum_register, counts, _, _ = shape
    medium_dims = vacuum_register.medium_dims
    register = ModeRegister(("B", *vacuum_register.labels), vacuum_register.cutoff, medium_dims)
    groups = [(level, n - 2 * (level > 0)) for n in (2, 1, 0) for level in range(medium_dims) if n - 2 * (level > 0) >= 0]
    basis = tuple(FockKet((k, total - k), level) for level, total in groups for k in range(total + 1))
    measured = {register.index(m): c for m, c in counts}
    keep = np.array([all(ket.occupations[i] == c for i, c in measured.items()) for ket in basis])
    one = np.array([[o for i, o in enumerate(ket.occupations) if i not in measured] == [1] for ket in basis])
    kets = tuple(fock_state(register, ket.occupations, ket.medium) for ket in basis)
    inputs = np.eye(len(basis), dtype=complex)[[basis.index(FockKet((n, 0))) for n in range(3)]]
    return _Layout(tuple(total for _, total in groups), basis, kets, *map(_read_only, (keep, one, inputs)))


@lru_cache(maxsize=_BLOCK_MEMO_SIZE)
def _absorber_block(shape: tuple, tpam: GenericTpam) -> np.ndarray:
    """The absorber ``tpam`` on the basis of ``shape``'s layout, column j
    the circuit's kernel :func:`apply_generic_tpam` on ket j."""
    _, _, mode, excited = shape
    layout = _layout(shape)
    index = {ket: i for i, ket in enumerate(layout.basis)}
    block = np.zeros((len(index), len(index)), dtype=complex)
    for j, ket in enumerate(layout.kets):
        for out, amp in apply_generic_tpam(ket, mode, tpam, excited_level=excited).terms():
            block[index[out], j] = amp
    return _read_only(block)


def _splitter_blocks(angles: list[tuple[float, float]], totals: tuple[int, ...]) -> np.ndarray:
    """:func:`splitter_blocks` at ``angles`` on ``totals``, each block read
    from ``_SPLITTER_MEMO``.

    The blocks the memo lacks are built in one :func:`splitter_blocks` call
    and kept as views of its read-only array.  A memo left above
    ``_BLOCK_MEMO_SIZE`` is emptied, so every view of an array leaves it at
    once and the memory it holds stays within its bound.
    """
    keys = [(theta, phi, totals) for theta, phi in angles]
    missing = [key for key in dict.fromkeys(keys) if key not in _SPLITTER_MEMO]
    if missing:
        _SPLITTER_MEMO.update(zip(missing, _read_only(splitter_blocks([key[:2] for key in missing], totals))))
    blocks = np.array([_SPLITTER_MEMO[key] for key in keys])
    if len(_SPLITTER_MEMO) > _BLOCK_MEMO_SIZE:
        _SPLITTER_MEMO.clear()
    return blocks


def _sector_heralds(
    circuit: Circuit, bs1: list[tuple[float, float]], bs2: list[tuple[float, float]], absorbers: list[GenericTpam]
) -> np.ndarray:
    """Herald probability, and its part with one photon left in the output,
    of the main circuit fed ``|n>`` at unit weight: ``h[x, theta1, beta, n]``
    for n = 0, 1, 2, with x = 0 the herald and x = 1 that part.  This is the
    table of a single run's :func:`~photonherald.schemes._sectors` rows in
    numpy form: x = 0 is row n's ``q``, and x = 1 the weight of its
    ``states`` with one photon in C.

    The circuit attaches the output mode and a medium, then runs BS1 and
    BS2, at the ``(theta, phi)`` of ``bs1`` and ``bs2``, around the absorber.
    The three sectors of :func:`_layout` run as one pass on the union of
    their kets, each stage one block-diagonal matrix, with amplitudes on the
    axes (theta1, beta, n, ket), in chunks of at most ``_CHUNK`` (theta1,
    beta) pairs.  The stage matrices are constants kept across calls: the
    layout per circuit shape, each absorber block per ``GenericTpam`` value
    and each splitter block per ``(theta, phi)``, every one read-only.
    """
    # Attach, BS1, absorber, BS2, and the herald's one outcome.
    attach, _, absorb, _ = circuit.stages
    ((_, counts, _),) = circuit.outcomes
    shape = (attach.keywords["b"].register, counts, absorb.keywords["mode"], absorb.keywords["excited_level"])
    layout = _layout(shape)
    dim = len(layout.basis)
    heralds = np.zeros((2, len(bs1), len(absorbers), 3))
    for b in range(0, len(absorbers), _CHUNK):
        chunk = absorbers[b : b + _CHUNK]
        absorber = np.array([_absorber_block(shape, tpam) for tpam in chunk])[None, :, None]
        step = max(1, _CHUNK // len(chunk))
        for t in range(0, len(bs1), step):
            blocks = _splitter_blocks(bs1[t : t + step] + bs2[t : t + step], layout.totals)
            split1, split2 = blocks.reshape(2, -1, 1, 1, dim, dim)
            amps = layout.inputs
            for matrix in (split1, absorber, split2):
                amps = _pruned((matrix @ amps[..., None])[..., 0], amps)
            probs = abs(_pruned(np.where(layout.keep, amps, 0.0), amps)) ** 2
            heralds[:, t : t + step, b : b + _CHUNK] = probs.sum(axis=-1), probs[..., layout.one].sum(axis=-1)
    return heralds


def _pruned(amps: np.ndarray, before: np.ndarray) -> np.ndarray:
    """``amps`` with every amplitude at or below ``PRUNE_THRESHOLD`` times the
    norm of ``before``, the stage's input, set to 0, as a single run drops it."""
    floor = PRUNE_THRESHOLD * np.sqrt(np.sum(abs(before) ** 2, axis=-1, keepdims=True))
    return np.where(abs(amps) > floor, amps, 0.0)
