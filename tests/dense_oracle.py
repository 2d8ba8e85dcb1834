"""Brute-force dense density-matrix simulator used only as a test oracle.

Deliberately independent of the package internals: states are full numpy
density tensors with shape ``dims + dims`` (ket axes then bra axes), beam
splitters come from a matrix exponential of the two-mode generator, and the
absorber/mixer maps are written down directly from their defining rules.
Nothing here shares code with the sparse ensemble machinery under test.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm


# --------------------------------------------------------------------------
# density-tensor plumbing


def basis_density(index: int, dim: int) -> np.ndarray:
    rho = np.zeros((dim, dim), dtype=complex)
    rho[index, index] = 1.0
    return rho


def mixture_density(p: float, dim: int) -> np.ndarray:
    """Imperfect source: p |1><1| + (1-p) |0><0|."""
    return p * basis_density(1, dim) + (1.0 - p) * basis_density(0, dim)


def product_density(factors: list[np.ndarray]) -> np.ndarray:
    """Tensor product of single-site density matrices, axes (kets..., bras...)."""
    rho = factors[0]
    for f in factors[1:]:
        rho = np.tensordot(rho, f, axes=0)
    n = len(factors)
    perm = [2 * i for i in range(n)] + [2 * i + 1 for i in range(n)]
    return rho.transpose(perm)


def extend(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Append one fresh site in state ``sigma`` (ket/bra axes stay paired)."""
    n = rho.ndim // 2
    out = np.tensordot(rho, sigma, axes=0)
    return np.moveaxis(out, -2, n)


def apply_op(rho: np.ndarray, op: np.ndarray, axes: tuple[int, ...], dims: list[int]) -> np.ndarray:
    """rho -> V rho V^dagger with V acting on the given ket axes."""
    n = len(dims)
    k = len(axes)
    site_dims = [dims[a] for a in axes]
    op_t = np.asarray(op, dtype=complex).reshape(site_dims + site_dims)
    in_axes = list(range(k, 2 * k))
    rho = np.tensordot(op_t, rho, axes=(in_axes, list(axes)))
    rho = np.moveaxis(rho, list(range(k)), list(axes))
    bra = [n + a for a in axes]
    rho = np.tensordot(np.conj(op_t), rho, axes=(in_axes, bra))
    rho = np.moveaxis(rho, list(range(k)), bra)
    return rho


def ptrace(rho: np.ndarray, axis: int) -> np.ndarray:
    n = rho.ndim // 2
    return np.trace(rho, axis1=axis, axis2=n + axis)


def project(rho: np.ndarray, axis: int, value: int) -> np.ndarray:
    """Unnormalized conditioning on one basis value; the site is removed."""
    n = rho.ndim // 2
    rho = np.take(rho, value, axis=n + axis)
    return np.take(rho, value, axis=axis)


def trace_of(rho: np.ndarray) -> float:
    n = rho.ndim // 2
    d = int(np.prod(rho.shape[:n]))
    return float(np.real(np.trace(rho.reshape(d, d))))


def number_distribution(rho: np.ndarray, axis: int) -> dict[int, float]:
    n = rho.ndim // 2
    dim = rho.shape[axis]
    return {v: float(np.real(trace_of(project(rho, axis, v)))) for v in range(dim)}


def _normalized(dist: dict[int, float], total: float) -> dict[int, float]:
    if total <= 0.0:
        return {}
    return {n: v / total for n, v in dist.items()}


# --------------------------------------------------------------------------
# element matrices


def annihilator(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)


def bs_unitary(theta: float, phi: float, dim: int) -> np.ndarray:
    """Two-mode beam-splitter unitary via the exponential of its generator.

    Chosen so that U a1^dag U^dag = cos(theta) a1^dag + e^{-i phi} sin(theta) a2^dag.
    """
    a = annihilator(dim)
    eye = np.eye(dim)
    a1 = np.kron(a, eye)
    a2 = np.kron(eye, a)
    g = theta * (
        np.exp(-1j * phi) * (a2.conj().T @ a1) - np.exp(1j * phi) * (a1.conj().T @ a2)
    )
    return expm(g)


def tpam_operator(
    alpha: complex,
    beta: complex,
    dim: int,
    medium_dims: int = 2,
    excited: int = 1,
    phase: float = 0.0,
) -> np.ndarray:
    """Two-photon absorber on (mode, medium): |2,g> -> alpha|0,e> + beta|2,g>."""
    d = dim * medium_dims

    def idx(n: int, m: int) -> int:
        return n * medium_dims + m

    op = np.zeros((d, d), dtype=complex)
    for n in range(dim):
        for m in range(medium_dims):
            if (n, m) != (2, 0):
                op[idx(n, m), idx(n, m)] = 1.0
    op[idx(0, excited), idx(2, 0)] = alpha
    op[idx(2, 0), idx(2, 0)] = beta
    return op * np.exp(1j * phase)


def fwm_coeffs(length_multiple: float, pump_phase: float = 0.0) -> tuple[complex, complex, complex]:
    phase = length_multiple * math.pi * math.sqrt(1.5)
    pump = np.exp(1j * pump_phase)
    alpha0 = -(2.0 * math.sqrt(2.0) / 3.0) * pump**2 * math.sin(phase / 2.0) ** 2
    alpha1 = -(1j / math.sqrt(3.0)) * pump * math.sin(phase)
    beta = (2.0 + math.cos(phase)) / 3.0
    return alpha0, alpha1, beta


def fwm_operator(length_multiple: float, dim: int, pump_phase: float = 0.0) -> np.ndarray:
    """Three-mode mixer on (pump, E1, E2), written from the defining rules.
    At odd integer length a phase shifter on the pump undoes the sign a lone
    photon picks up: the operator is multiplied by (-1)^(pump photons out)."""
    rabi = length_multiple * math.pi
    alpha0, alpha1, beta = fwm_coeffs(length_multiple, pump_phase)

    def idx(n_p: int, n_1: int, n_2: int) -> int:
        return (n_p * dim + n_1) * dim + n_2

    op = np.eye(dim**3, dtype=complex)
    op[:, idx(1, 0, 0)] = 0.0
    op[idx(1, 0, 0), idx(1, 0, 0)] = math.cos(rabi)
    op[idx(0, 1, 1), idx(1, 0, 0)] = -1j * math.sin(rabi)
    op[:, idx(2, 0, 0)] = 0.0
    op[idx(0, 2, 2), idx(2, 0, 0)] = alpha0
    op[idx(1, 1, 1), idx(2, 0, 0)] = alpha1
    op[idx(2, 0, 0), idx(2, 0, 0)] = beta
    is_odd_integer = (
        abs(length_multiple - round(length_multiple)) < 1e-9 and round(length_multiple) % 2 == 1
    )
    if is_odd_integer:
        signs = np.array([(-1.0) ** (i // dim**2) for i in range(dim**3)])
        op = signs[:, None] * op
    return op


# --------------------------------------------------------------------------
# full dense circuits (mirror the schemes step by step)


def front_splitter(p: float, theta0: float, phi0: float, dim: int) -> np.ndarray:
    """Two sources into the front splitter, discarded arm traced out; one site left."""
    rho = product_density([mixture_density(p, dim), mixture_density(p, dim)])
    rho = apply_op(rho, bs_unitary(theta0, phi0, dim), (0, 1), [dim, dim])
    return ptrace(rho, 0)


def dense_main_generic(
    p: float,
    alpha: complex,
    beta: complex,
    theta1: float,
    phi1: float,
    theta2: float,
    phi2: float,
    *,
    theta0: float = math.pi / 4,
    cutoff: int = 4,
) -> dict[str, object]:
    """Returns the detector distribution on B and the heralded-C distribution."""
    dim = cutoff + 1
    rho = front_splitter(p, theta0, 0.0, dim)           # B
    rho = extend(rho, basis_density(0, dim))            # B, C
    rho = extend(rho, basis_density(0, 2))              # B, C, medium
    dims = [dim, dim, 2]
    rho = apply_op(rho, bs_unitary(theta1, phi1, dim), (0, 1), dims)
    rho = apply_op(rho, tpam_operator(alpha, beta, dim), (0, 2), dims)
    rho = apply_op(rho, bs_unitary(theta2, phi2, dim), (0, 1), dims)
    detector = number_distribution(rho, 0)
    heralded = project(rho, 0, 1)                       # C, medium left
    p_success = trace_of(heralded)
    conditional = _normalized(number_distribution(heralded, 0), p_success)
    return {"detector": detector, "p_success": p_success, "conditional": conditional}


def dense_main_fwm(
    p: float,
    length_multiple: float,
    condition: tuple[int, int],
    theta1: float,
    phi1: float,
    theta2: float,
    phi2: float,
    *,
    theta0: float = math.pi / 4,
    cutoff: int = 4,
    pump_phase: float = 0.0,
) -> dict[str, object]:
    dim = cutoff + 1
    rho = front_splitter(p, theta0, 0.0, dim)           # B
    rho = extend(rho, basis_density(0, dim))            # B, C
    dims = [dim, dim]
    rho = apply_op(rho, bs_unitary(theta1, phi1, dim), (0, 1), dims)
    rho = extend(rho, basis_density(0, dim))            # B, C, E1
    rho = extend(rho, basis_density(0, dim))            # B, C, E1, E2
    dims = [dim, dim, dim, dim]
    rho = apply_op(rho, fwm_operator(length_multiple, dim, pump_phase), (0, 2, 3), dims)
    rho = project(rho, 3, condition[1])
    rho = project(rho, 2, condition[0])                 # B, C (unnormalized)
    dims = [dim, dim]
    rho = apply_op(rho, bs_unitary(theta2, phi2, dim), (0, 1), dims)
    detector = number_distribution(rho, 0)
    heralded = project(rho, 0, 1)
    p_success = trace_of(heralded)
    return {
        "detector": detector,
        "p_success": p_success,
        "conditional": _normalized(number_distribution(heralded, 0), p_success),
    }


def dense_doubled_generic(
    p: float,
    alpha: complex,
    beta: complex,
    theta1: float,
    phi1: float,
    theta2: float,
    phi2: float,
    *,
    theta0: float = math.pi / 4,
    cutoff: int = 4,
) -> dict[str, object]:
    """Both splitter outputs processed; returns the joint (n_A, n_B) distribution."""
    dim = cutoff + 1
    rho = product_density([mixture_density(p, dim), mixture_density(p, dim)])
    rho = apply_op(rho, bs_unitary(theta0, 0.0, dim), (0, 1), [dim, dim])
    rho = extend(rho, basis_density(0, dim))            # A, B, CA
    rho = extend(rho, basis_density(0, dim))            # A, B, CA, CB
    rho = extend(rho, basis_density(0, 3))              # + shared medium {g, eA, eB}
    dims = [dim, dim, dim, dim, 3]
    bs1 = bs_unitary(theta1, phi1, dim)
    bs2 = bs_unitary(theta2, phi2, dim)
    rho = apply_op(rho, bs1, (0, 2), dims)
    rho = apply_op(rho, tpam_operator(alpha, beta, dim, medium_dims=3, excited=1), (0, 4), dims)
    rho = apply_op(rho, bs2, (0, 2), dims)
    rho = apply_op(rho, bs1, (1, 3), dims)
    rho = apply_op(rho, tpam_operator(alpha, beta, dim, medium_dims=3, excited=2), (1, 4), dims)
    rho = apply_op(rho, bs2, (1, 3), dims)
    joint: dict[tuple[int, int], float] = {}
    p_success = 0.0
    for n_a in range(dim):
        cut_a = project(rho, 0, n_a)                    # B, CA, CB, medium
        for n_b in range(dim):
            cut_ab = project(cut_a, 0, n_b)             # CA, CB, medium
            prob = trace_of(cut_ab)
            joint[(n_a, n_b)] = prob
            if (n_a == 1) != (n_b == 1):
                p_success += prob
    return {"joint": joint, "p_success": p_success}


def dense_pair_herald(
    p: float,
    length_multiple: float,
    *,
    theta0: float = math.pi / 4,
    cutoff: int = 4,
    pump_phase: float = 0.0,
) -> dict[str, object]:
    dim = cutoff + 1
    rho = front_splitter(p, theta0, 0.0, dim)           # B
    rho = extend(rho, basis_density(0, dim))            # B, E1
    rho = extend(rho, basis_density(0, dim))            # B, E1, E2
    dims = [dim, dim, dim]
    rho = apply_op(rho, fwm_operator(length_multiple, dim, pump_phase), (0, 1, 2), dims)
    joint: dict[tuple[int, int], float] = {}
    for n_1 in range(dim):
        cut_1 = project(rho, 1, n_1)                    # B, E2
        for n_2 in range(dim):
            joint[(n_1, n_2)] = trace_of(project(cut_1, 1, n_2))
    heralded = project(project(rho, 2, 1), 1, 1)        # B only
    p_success = trace_of(heralded)
    return {
        "joint": joint,
        "p_success": p_success,
        "conditional": _normalized(number_distribution(heralded, 0), p_success),
    }


def dense_filter_split(
    p: float,
    length_multiple: float,
    *,
    theta0: float = math.pi / 4,
    cutoff: int = 4,
    pump_phase: float = 0.0,
) -> dict[str, object]:
    dim = cutoff + 1
    rho = front_splitter(p, theta0, 0.0, dim)           # B
    rho = extend(rho, basis_density(0, dim))            # B, E1
    rho = extend(rho, basis_density(0, dim))            # B, E1, E2
    dims = [dim, dim, dim]
    rho = apply_op(rho, fwm_operator(length_multiple, dim, pump_phase), (0, 1, 2), dims)
    rho = project(rho, 2, 0)
    rho = project(rho, 1, 0)                            # B (unnormalized)
    rho = extend(rho, basis_density(0, dim))            # B, C
    rho = apply_op(rho, bs_unitary(math.pi / 4, 0.0, dim), (0, 1), [dim, dim])
    detector = number_distribution(rho, 0)
    heralded = project(rho, 0, 1)                       # C
    p_success = trace_of(heralded)
    return {
        "detector": detector,
        "p_success": p_success,
        "conditional": _normalized(number_distribution(heralded, 0), p_success),
    }


# --------------------------------------------------------------------------
# null-condition manifold


def null_branch(theta1: float, theta2: float, phi1: float, phi2: float, tol: float = 1e-10) -> str | None:
    """The null-condition branch the splitter parameters sit on, or ``None`` off it.

    The phases must differ by nu*pi; then cos(theta1 + theta2) = 0 for even
    nu (a ``sum`` branch) or cos(theta1 - theta2) = 0 for odd nu (a ``diff``
    branch), and the sign of that angle's sine names ``plus`` or ``minus``.
    """
    nu = round((phi1 - phi2) / math.pi)
    angle = theta1 + theta2 if nu % 2 == 0 else theta1 - theta2
    if abs(phi1 - phi2 - nu * math.pi) > tol or abs(math.cos(angle)) > tol:
        return None
    return f"{'sum' if nu % 2 == 0 else 'diff'}_{'plus' if math.sin(angle) > 0.0 else 'minus'}"
