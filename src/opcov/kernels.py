"""Isotropic correlation kernels with an explicit lengthscale parameter.

Two stationary families are provided, squared exponential and Matern, both
normalized to k(0) = 1 and strictly decreasing in the separation r.  The
lengthscale ``lam`` enters only through r / lam, so k_lam(a * r) equals
k_{lam/a}(r) exactly; several downstream scaling computations rely on this
identity.

Matern kernels exist for nu in {1/2, 3/2, 5/2} only, each by its exact
closed form (the experiments use nu = 3/2); any other nu is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "KernelError",
    "KernelModel",
    "se_kernel",
    "matern_kernel",
    "eval_kernel",
    "half_width",
    "parse_kernel",
]

_HALF_INTEGER_NU = (0.5, 1.5, 2.5)


class KernelError(ValueError):
    """Invalid kernel parameters or evaluation arguments."""


@dataclass(frozen=True)
class KernelModel:
    """An isotropic correlation function k_lam(r) with k_lam(0) = 1.

    Parameters
    ----------
    family : str
        Either ``"se"`` (squared exponential) or ``"matern"``.
    lam : float
        Correlation lengthscale, dimensionless on the unit cube; must be > 0.
    nu : float or None
        Matern smoothness; one of 0.5, 1.5 and 2.5.  Ignored for the SE
        family.

    Notes
    -----
    The Matern family satisfies the standing sparsity/continuity hypotheses
    of the estimation theory only for nu > max((d - 1) / 2, 1/2): nu = 3/2
    and 5/2 do at every d <= 3, and nu = 1/2 at none.  This is documented
    rather than enforced; nu = 1/2 is accepted.
    """

    family: str
    lam: float
    nu: float | None = None

    def __post_init__(self) -> None:
        if self.family not in ("se", "matern"):
            raise KernelError(f"unknown kernel family {self.family!r}")
        if not (isinstance(self.lam, (int, float)) and math.isfinite(self.lam) and self.lam > 0):
            raise KernelError(f"lengthscale must be a positive finite real, got {self.lam!r}")
        if self.family == "matern" and self.nu not in _HALF_INTEGER_NU:
            raise KernelError(f"matern smoothness nu must be 0.5, 1.5 or 2.5, got {self.nu!r}")


def se_kernel(lam: float) -> KernelModel:
    return KernelModel("se", float(lam))


def matern_kernel(lam: float, nu: float) -> KernelModel:
    return KernelModel("matern", float(lam), float(nu))


def _matern_unit(z, nu: float):
    """Matern correlation as a function of z = sqrt(2 nu) r / lam.

    Accepts scalars or ndarrays; nu is 1/2, 3/2 or 5/2.
    """
    z = np.asarray(z, dtype=float)
    # exp(-z) is 0 from z ~ 745 on; capping the polynomials there keeps
    # them from overflowing into inf * 0 = nan at tiny lengthscales
    zc = np.minimum(z, 746.0)
    if nu == 0.5:
        out = np.exp(-z)
    elif nu == 1.5:
        out = (1.0 + zc) * np.exp(-z)
    else:
        out = (1.0 + zc + zc * zc / 3.0) * np.exp(-z)
    return out if out.ndim else float(out)


def eval_kernel(kernel: KernelModel, r):
    """Evaluate k_lam(r) for scalar or array separations r >= 0.

    SE: exp(-r^2 / (2 lam^2)).  Matern: the closed form for nu = 1/2, 3/2
    or 5/2.  Values may underflow to exactly 0 at large r; thresholding only
    ever zeroes small entries, so this is harmless.
    """
    arr = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise KernelError("separation r must be finite")
    if np.any(arr < 0):
        raise KernelError("separation r must be nonnegative")
    # t and z overflow to inf only where the kernel is already 0
    if kernel.family == "se":
        with np.errstate(over="ignore"):
            t = arr / kernel.lam
            out = np.exp(-0.5 * t * t)
    else:
        scale = math.sqrt(2.0 * kernel.nu) / kernel.lam
        with np.errstate(over="ignore"):
            # an infinite scale (a subnormal lam) keeps z(0) = 0
            z = scale * arr if math.isfinite(scale) else np.where(arr > 0.0, math.inf, 0.0)
        out = _matern_unit(z, kernel.nu)
    return out if np.ndim(r) else float(out)


def half_width(kernel: KernelModel) -> float:
    """The unique s > 0 with k_1(s) = 1/2 on the unit-lengthscale profile.

    Found by bracket expansion plus bisection to absolute tolerance 1e-12.
    Independent of ``kernel.lam``.
    """
    unit = KernelModel(kernel.family, 1.0, kernel.nu)

    def f(s: float) -> float:
        return eval_kernel(unit, s) - 0.5

    lo, hi = 0.0, 1.0
    for _ in range(200):
        if f(hi) < 0.0:
            break
        lo, hi = hi, 2.0 * hi
    else:
        raise KernelError("no bracket for k_1(s) = 1/2; kernel does not decay to 0")
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def parse_kernel(text: str) -> KernelModel:
    """Parse a kernel spec string into its unit-lengthscale model (lam = 1).

    Accepted forms::

        se
        matern:nu={0.5,1.5,2.5}

    Commands step the model to each lengthscale of their ``--lambdas`` grid,
    so a ``lambda`` token is refused like any other unknown one.  Raises
    ``KernelError`` naming the offending token on malformed input.
    """
    head, sep, rest = text.strip().partition(":")
    family = head.strip().lower()
    if family not in ("se", "matern"):
        raise KernelError(f"unknown kernel family token {head.strip()!r}")
    nu = None
    for token in rest.split(",") if sep else ():
        key, eq, value = token.partition("=")
        key = key.strip().lower()
        if not eq or key != "nu" or nu is not None:  # one nu, set once
            raise KernelError(f"bad kernel parameter token {token.strip()!r}: a spec is 'se' "
                              "or 'matern:nu={0.5,1.5,2.5}', and --lambdas sets every lengthscale")
        try:
            nu = float(value)
        except ValueError:
            raise KernelError(f"bad numeric value in token {token.strip()!r}") from None
    if family == "se":
        if nu is not None:
            raise KernelError("token 'nu' is not valid for the se family")
        return se_kernel(1.0)
    if nu is None:
        raise KernelError(f"kernel spec {text!r} is missing 'nu'")
    return matern_kernel(1.0, nu)
