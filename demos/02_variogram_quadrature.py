"""Variogram quadrature against closed forms.

The fbm family has the exact variogram v(h) = |h|^(2H), and the package
returns it in closed form: the first table shows the value, its error
estimate (the rounding that H carries) and the true error side by side.
Every other family goes through the Laplace-domain engine.  A model
whose axis has no closed-form transform goes through the graded 1-D
rule, which the engine derives from each lag, and the second table holds
it to that model's closed form from lag 0.01 to 30.  Gaussian axes with
nu = gamma - N/2 = 1/2 give the Matern form v = C (1 - e^-|h|); the
third table holds the engine to it in 1-D and in space-time (3-D), at
lags whose components differ by orders of magnitude.
"""

import math

import numpy as np

from anisofield.models import canonical_c, fbm, smoothness_exponents
from anisofield.variogram import (modulus_envelope, sigma_scale,
                                  variogram_envelope, variogram_numeric)


def main():
    model = fbm(0.7, 1)
    print("fbm H=0.7, closed form")
    print(f"{'lag':>6} {'numeric':>12} {'exact':>12} {'est err':>10} {'true err':>10}")
    for lag in (0.1, 0.5, 1.0, 2.0):
        value, err = variogram_numeric(model, [lag])
        exact = lag ** 1.4
        print(f"{lag:>6} {value:>12.8f} {exact:>12.8f} "
              f"{err:>10.2e} {abs(value - exact):>10.2e}")

    print()
    # f = 1/(1 + l^4) on R: v(h) = sqrt(2) pi (1 - e^-a (cos a + sin a)),
    # a = h/sqrt(2); beta = 4 has no closed-form transform
    print("numeric axis: canonical_c(beta=4, gamma=1), default quadrature")
    print(f"{'lag':>6} {'numeric':>14} {'exact':>14} {'est err':>10} {'true err':>10}")
    model2 = canonical_c((4.0,), 1.0)
    for lag in (0.01, 0.1, 0.7, 3.0, 30.0):
        a = lag / math.sqrt(2.0)
        exact = math.sqrt(2.0) * math.pi * (1.0 - math.exp(-a) * (math.cos(a) + math.sin(a)))
        value, err = variogram_numeric(model2, [lag])
        print(f"{lag:>6} {value:>14.10f} {exact:>14.10f} "
              f"{err:>10.2e} {abs(value - exact):>10.2e}")

    print()
    # (1 + |l|^2)^-gamma with nu = 1/2: v = 2 pi (1 - e^-r) on R and
    # 2 pi^2 (1 - e^-r) on R^3, r = |h|
    print("Matern nu = 1/2, Laplace engine")
    for model3, const, lags in (
            (canonical_c((2.0,), 1.0), 2.0 * math.pi, ((0.001,), (0.3,), (4.0,))),
            (canonical_c((2.0, 2.0, 2.0), 2.0), 2.0 * math.pi**2,
             ((0.3, 0.5, 0.9), (1.0, 0.001, 0.02), (0.002, 0.004, 0.001)))):
        for lag in lags:
            value, err = variogram_numeric(model3, lag)
            exact = -const * math.expm1(-float(np.linalg.norm(lag)))
            print(f"   h={lag}: value={value:.10f} est={err:.2e} "
                  f"true={abs(value - exact):.2e}")

    print()
    print("small-lag machinery for the modulus of continuity, H=0.7:")
    exps = smoothness_exponents(model)
    print(f"   sigma_scale(0.7, 0.1) = {sigma_scale(0.7, 0.1):.6f}"
          f"   (the r^(2H) branch)")
    lo, hi = variogram_envelope(exps, [0.1])
    print(f"   envelope at lag 0.1: [{lo:.6f}, {hi:.6f}]")
    for eps in (0.1, 0.01, 0.001):
        print(f"   modulus_envelope(eps={eps}) = "
              f"{modulus_envelope(exps, (eps,)):.6f}")


if __name__ == "__main__":
    main()
