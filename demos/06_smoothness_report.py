"""Mean-square differentiability and derivative covariances.

An axis is differentiable exactly when its smoothness exponent exceeds
one. The report below shows the margin on each axis, the derivative
variance where it exists, and the finite-difference cross-check that
the spectral moments are the right numbers.
"""

import numpy as np

from anisofield.models import canonical_c, fbm, stein
from anisofield.smoothness import (cross_covariance, derivative_covariance,
                                   ms_derivative_report)
from anisofield.variogram import variogram_numeric


def second_difference(model, axis, delta, step=1e-2):
    """d2v/dh_axis^2 at delta: Richardson-extrapolated central differences."""
    e = np.zeros(model.dims)
    e[axis] = 1.0
    v0, _ = variogram_numeric(model, delta)

    def second(h):
        return (variogram_numeric(model, delta + h * e)[0] - 2 * v0
                + variogram_numeric(model, delta - h * e)[0]) / h**2

    return (4.0 * second(step / 2) - second(step)) / 3.0


def show(model, label):
    report = ms_derivative_report(model)
    print(f"{label}: H = {tuple(round(h, 4) for h in report.exponents.h)}")
    for j in range(model.dims):
        dvar = report.derivative_variance[j]
        tail = f"Var X'_{j} = {dvar:.6f}" if dvar is not None else "rough"
        print(f"   axis {j}: differentiable={report.exists[j]} "
              f"margin={report.margins[j]:+.3f}  {tail}")


def main():
    show(canonical_c(beta=(1.0, 2.0), gamma=4.0), "canonical (1, 2) g=4")
    show(fbm(0.5, 2), "Brownian sheet")
    show(stein(c=(1.0, 1.0), a=(1.0, 2.0), alpha=(0.8, 1.4), nu=2.0),
         "stein")

    print()
    model = canonical_c(beta=(1.0, 2.0), gamma=4.0)
    print("spectral derivative covariance vs 0.5 v'' at delta = (0.3, 0.2):")
    delta = np.array([0.3, 0.2])
    for axis in (0, 1):
        spectral = derivative_covariance(model, axis, delta)
        fd = 0.5 * second_difference(model, axis, delta)
        print(f"   axis {axis}: spectral {spectral:.6f}   "
              f"finite difference {fd:.6f}")

    print()
    print("field-derivative cross covariance is genuinely nonstationary:")
    s, t = np.array([0.4, 0.2]), np.array([0.9, -0.3])
    c_st = cross_covariance(model, 1, s, t)
    c_ts = cross_covariance(model, 1, t, s)
    print(f"   Cov(X(s), X'(t)) = {c_st:+.6f}")
    print(f"   Cov(X(t), X'(s)) = {c_ts:+.6f}")


if __name__ == "__main__":
    main()
