"""Floating-point side: map evaluation, Jacobians, and a damped Newton solver
with seeded multi-start, behind `expbij solve`.

The exact layer is ground truth; nothing here feeds a verdict. All
randomness is seeded by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analyzer import ExponentialMapSpec

EXP_CLAMP = 700.0


class EvaluationOverflow(RuntimeError):
    """An exponent exceeded the clamp; the value would overflow a double."""


@dataclass(frozen=True)
class NumericMapInstance:
    coeff: np.ndarray  # d x n
    exponents: np.ndarray  # d~ x n
    c: np.ndarray  # positive, length n

    def __post_init__(self):
        if self.coeff.shape[1] != self.exponents.shape[1] or self.coeff.shape[1] != self.c.shape[0]:
            raise ValueError("inconsistent dimensions")
        if not np.all(self.c > 0):
            raise ValueError("parameters must be strictly positive")

    @classmethod
    def from_spec(cls, spec: ExponentialMapSpec, c) -> "NumericMapInstance":
        return cls(
            coeff=np.array([[float(x) for x in row] for row in spec.coeff.row_tuples]),
            exponents=np.array([[float(x) for x in row] for row in spec.exponents.row_tuples]),
            c=np.asarray([float(x) for x in c], dtype=float),
        )

    @property
    def d(self) -> int:
        return self.coeff.shape[0]

    @property
    def d_tilde(self) -> int:
        return self.exponents.shape[0]


def _monomials(instance: NumericMapInstance, x: np.ndarray) -> tuple[np.ndarray, bool]:
    z = instance.exponents.T @ x
    overflow = bool(np.any(z > EXP_CLAMP))
    return instance.c * np.exp(np.clip(z, -EXP_CLAMP, EXP_CLAMP)), overflow


def evaluate(instance: NumericMapInstance, x) -> np.ndarray:
    """F_c(x); raises EvaluationOverflow instead of returning clamped values."""
    mono, overflow = _monomials(instance, np.asarray(x, dtype=float))
    if overflow:
        raise EvaluationOverflow("an exponent exceeds the overflow clamp of 700")
    return instance.coeff @ mono


def _jacobian(instance: NumericMapInstance, mono: np.ndarray) -> np.ndarray:
    """DF_c at the point whose monomials c o exp(Wt^T x) are mono."""
    return instance.coeff @ (mono[:, None] * instance.exponents.T)


def jacobian(instance: NumericMapInstance, x) -> np.ndarray:
    mono, _ = _monomials(instance, np.asarray(x, dtype=float))
    return _jacobian(instance, mono)


@dataclass(frozen=True)
class SolveResult:
    status: str  # "converged" | "diverged-along-ray" | "max-iterations"
    x: np.ndarray | None
    residual: float
    iterations: int
    direction: np.ndarray | None = None

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def solve(instance: NumericMapInstance, y, x0=None, tol: float = 1e-10,
          max_iterations: int = 200) -> SolveResult:
    """Damped Newton with Armijo backtracking on the squared residual."""
    y = np.asarray(y, dtype=float)
    x = np.zeros(instance.d_tilde) if x0 is None else np.asarray(x0, dtype=float)
    scale = 1.0 + float(np.linalg.norm(y))
    overflowed = False
    # a huge x or step overflows to inf, which the finiteness and size
    # checks below already handle
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(max_iterations):
            mono, over = _monomials(instance, x)
            overflowed = overflowed or over
            r = instance.coeff @ mono - y
            res = float(np.linalg.norm(r))
            if res <= tol * scale:
                x, res = _polish(instance, x, y, res)
                return SolveResult("converged", x, res, it)
            if not np.isfinite(res) or np.linalg.norm(x) > 1e8:
                break
            J = _jacobian(instance, mono)
            try:
                step = np.linalg.solve(J, -r)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(J, -r, rcond=None)[0]
            if not np.all(np.isfinite(step)) or np.linalg.norm(step) == 0:
                break
            phi = res * res
            slope = 2.0 * float(r @ (J @ step))
            alpha = 1.0
            while alpha > 1e-14:
                trial = x + alpha * step
                mono_t, _ = _monomials(instance, trial)
                phi_t = float((instance.coeff @ mono_t - y) @ (instance.coeff @ mono_t - y))
                if np.isfinite(phi_t) and phi_t <= phi + 1e-4 * alpha * slope:
                    break
                alpha *= 0.5
            if alpha <= 1e-14:
                break  # no descent; treat as stalled
            x = x + alpha * step
        norm = float(np.linalg.norm(x))
        mono, over = _monomials(instance, x)
        res = float(np.linalg.norm(instance.coeff @ mono - y))
        if norm > 1e6 or (overflowed and norm > 1e2):
            return SolveResult("diverged-along-ray", None, res, max_iterations, direction=x / norm)
    return SolveResult("max-iterations", x, res, max_iterations)


def _polish(instance: NumericMapInstance, x: np.ndarray, y: np.ndarray, res: float):
    """A few undamped Newton steps near the root, kept only while they help."""
    for _ in range(3):
        mono, _ = _monomials(instance, x)
        r = instance.coeff @ mono - y
        J = _jacobian(instance, mono)
        try:
            step = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError:
            break
        trial = x + step
        mono_t, _ = _monomials(instance, trial)
        res_t = float(np.linalg.norm(instance.coeff @ mono_t - y))
        if not np.isfinite(res_t) or res_t >= res:
            break
        x, res = trial, res_t
    return x, res


def multi_start_solve(instance: NumericMapInstance, y, starts: int, seed: int,
                      tol: float = 1e-10, spread: float = 3.0) -> list[np.ndarray]:
    """Distinct converged solutions from seeded random starting points."""
    rng = np.random.default_rng(seed)
    solutions: list[np.ndarray] = []
    origins = [np.zeros(instance.d_tilde)] + [
        rng.uniform(-spread, spread, instance.d_tilde) for _ in range(max(0, starts - 1))
    ]
    for x0 in origins:
        res = solve(instance, y, x0=x0, tol=tol)
        if not res.converged:
            continue
        if all(np.max(np.abs(res.x - s)) > 1e-6 * (1.0 + np.max(np.abs(s))) for s in solutions):
            solutions.append(res.x)
    return solutions
