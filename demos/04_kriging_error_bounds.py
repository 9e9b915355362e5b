"""Simple kriging with the pinned-origin prior.

Brownian motion makes every number checkable by hand: conditioning on
X(1) = 0.7 gives the Brownian bridge on [0, 1] and independent-increment
extrapolation beyond it. The second half shows the small-ball error
bound tracking the actual kriging variance.
"""

import numpy as np

from anisofield.kriging import (Observations, krige,
                                prediction_error_envelope,
                                scaling_exponent_check)
from anisofield.models import fbm, smoothness_exponents
from anisofield.quadrature import QuadratureSpec

TIGHT = QuadratureSpec(rel_tol=0.01)


def main():
    model = fbm(0.5, 1)
    obs = Observations(sites=[[1.0]], values=[0.7], model=model)
    print("Brownian motion conditioned on X(1) = 0.7:")
    print(f"{'site':>6} {'prediction':>11} {'variance':>9}   closed form")
    closed = {0.25: (0.175, 0.1875), 0.5: (0.35, 0.25),
              0.75: (0.525, 0.1875), 1.0: (0.7, 0.0), 2.0: (0.7, 1.0)}
    for site, (cf_pred, cf_var) in closed.items():
        result = krige(obs, [site], TIGHT)
        print(f"{site:>6} {result.prediction:>11.6f} {result.variance:>9.6f}"
              f"   ({cf_pred}, {cf_var})")

    print()
    print("error envelope vs kriging variance, observations at 0.5 and 1.3:")
    obs2 = Observations(sites=[[0.5], [1.3]], values=[0.2, -0.4], model=model)
    exps = smoothness_exponents(model)
    print(f"{'site':>6} {'variance':>10} {'lower':>9} {'upper':>9}")
    for site in (0.1, 0.7, 1.1, 2.0):
        result = krige(obs2, [site], TIGHT)
        lower, upper = prediction_error_envelope(exps, obs2.sites, [site])
        print(f"{site:>6} {result.variance:>10.6f} {lower:>9.6f} "
              f"{upper:>9.6f}")

    print()
    print("variance scaling against the smoothness exponent:")
    for hurst in (0.3, 0.5, 0.75):
        slope = scaling_exponent_check(fbm(hurst, 1), 0, quad=TIGHT)
        print(f"   H = {hurst}: fitted slope {slope:.4f} (2H = {2 * hurst})")


if __name__ == "__main__":
    main()
