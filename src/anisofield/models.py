"""Spectral model families for anisotropic Gaussian fields.

A model is a spectral density f on R^N, even in each coordinate, whose
high-frequency envelope is comparable to (sum_j |lambda_j|^{beta_j})^{-gamma}.
The field it induces has stationary increments, is pinned to zero at the
origin, and its smoothness along axis j is summarized by the exponent

    H_j = (beta_j / 2) * (gamma - sum_i 1/beta_i),

finite exactly when gamma > sum_j 1/beta_j (the legitimacy condition,
which is also what makes the increment variance integral converge).

Three families are provided:

* ``canonical_c``: f(lambda) = c0 / (1 + sum_j |lambda_j|^{beta_j})^gamma,
  the reference anisotropic family.
* ``fbm``: the isotropic density c(H, N) |lambda|^{-(2H+N)} with
  c(H, N) = 2^{2H} H Gamma(H + N/2) / (2 pi^{N/2} Gamma(1 - H)), so the
  variogram is |h|^{2H}: fractional Brownian motion with index H.
* ``stein``: f(lambda) = (sum_j c_j (a_j + lambda_j^2)^{alpha_j})^{-nu},
  a space-time family with envelope exponents beta_j = 2 alpha_j and
  gamma = nu, hence H_j = alpha_j (nu - sum_l 1/(2 alpha_l)).

Each density is written once, as the :class:`LaplaceForm` that
:func:`laplace_form` builds; :func:`evaluate_density`, the synthesis
lattice and every spectral integral read it.  So do the legitimacy
verdict and the exponents H_j, through its envelope exponents and
margin, and the lattice cutoffs, solved by :meth:`LaplaceAxis.inverse`
in closed form.
"""

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelError, SingularDensityError

KIND_CANONICAL = "canonical_c"
KIND_FBM = "fbm"
KIND_STEIN = "stein"


@dataclass(frozen=True)
class SpectralModel:
    """Tagged record for one spectral density.

    Use the module factories (:func:`canonical_c`, :func:`fbm`,
    :func:`stein`) instead of the raw constructor; they validate
    parameters and fill in derived fields.
    """

    kind: str
    dims: int
    beta: tuple = None
    gamma: float = None
    scale: float = 1.0
    hurst: float = None
    fbm_const: float = None
    stein_c: tuple = None
    stein_a: tuple = None
    stein_alpha: tuple = None
    nu: float = None


@dataclass(frozen=True)
class Legitimacy:
    """Outcome of the integrability check, with the violated inequality."""

    ok: bool
    reason: str = None


@dataclass(frozen=True)
class SmoothnessExponents:
    """Per-axis smoothness exponents H_j with Q = sum_j 1/H_j."""

    h: tuple
    q: float

    @property
    def h_bar(self):
        return tuple(min(1.0, v) for v in self.h)


def _positive_vector(name, values):
    vec = tuple(float(v) for v in values)
    if len(vec) == 0:
        raise ModelError(f"{name} must be non-empty")
    if any(not v > 0 or not math.isfinite(v) for v in vec):
        raise ModelError(f"{name} entries must be positive and finite")
    return vec


def canonical_c(beta, gamma, scale=1.0):
    """Model with density c0 / (1 + sum_j |lambda_j|^{beta_j})^gamma."""
    beta = _positive_vector("beta", beta)
    if not gamma > 0 or not math.isfinite(gamma):
        raise ModelError("gamma must be positive and finite")
    if not scale > 0 or not math.isfinite(scale):
        raise ModelError("scale must be positive and finite")
    return SpectralModel(kind=KIND_CANONICAL, dims=len(beta), beta=beta,
                         gamma=float(gamma), scale=float(scale))


def fbm(hurst, dims, fbm_const=None):
    """Fractional Brownian motion of index ``hurst`` on R^dims.

    The spectral constant defaults to the closed form c(H, N) of
    :func:`normalize_fbm_constant`; pass ``fbm_const`` to reuse a stored one.
    """
    _check_fbm(hurst, dims)
    if fbm_const is None:
        fbm_const = normalize_fbm_constant(hurst, dims)
    elif not (fbm_const > 0 and math.isfinite(fbm_const)):
        raise ModelError("fbm_const must be positive and finite")
    return SpectralModel(kind=KIND_FBM, dims=int(dims), hurst=float(hurst),
                         fbm_const=float(fbm_const))


def stein(c, a, alpha, nu):
    """Model with density (sum_j c_j (a_j + lambda_j^2)^{alpha_j})^{-nu}."""
    c = _positive_vector("c", c)
    a = _positive_vector("a", a)
    alpha = _positive_vector("alpha", alpha)
    if not (len(c) == len(a) == len(alpha)):
        raise ModelError("c, a and alpha must have equal length")
    if not nu > 0 or not math.isfinite(nu):
        raise ModelError("nu must be positive and finite")
    return SpectralModel(kind=KIND_STEIN, dims=len(alpha), stein_c=c,
                         stein_a=a, stein_alpha=alpha, nu=float(nu))


@dataclass(frozen=True)
class LaplaceAxis:
    """One axis of a Laplace form: the increment a_j(lambda) - a_j(0) of its term.

    ``kind`` is "power", for coef * lambda^expo, or "shifted", for
    coef * ((shift + lambda^2)^expo - shift^expo).  ``growth`` is the
    exponent beta of the large-lambda envelope coef * lambda^beta.
    """

    kind: str
    coef: float
    expo: float
    shift: float = 0.0

    @property
    def growth(self):
        return self.expo if self.kind == "power" else 2.0 * self.expo

    def term(self, lam):
        lam = np.asarray(lam, dtype=float)
        if self.kind == "power":
            return self.coef * lam**self.expo
        rise = np.expm1(self.expo * np.log1p(lam**2 / self.shift))
        return self.coef * self.shift**self.expo * rise

    def inverse(self, level):
        """The lambda >= 0 whose term is ``level`` >= 0, in closed form; inf
        where it lies beyond the floats (numpy warns of the overflow)."""
        level = np.asarray(level, dtype=float)
        if self.kind == "power":
            return (level / self.coef) ** (1.0 / self.expo)
        rise = np.log1p(level / (self.coef * self.shift**self.expo)) / self.expo
        return np.sqrt(self.shift * np.expm1(rise))


@dataclass(frozen=True)
class LaplaceForm:
    """The density as prefactor * int_0^inf m(t) prod_j e^{-t a_j(lambda_j)} dt.

    The weight is m(t) = t^(power - 1) e^(-rate t) / Gamma(power), so the
    density is prefactor * (rate + sum_j a_j(|lambda_j|))^(-power), with
    each axis term a_j taken from ``axes`` (vanishing at lambda_j = 0).
    Its envelope exponents are gamma = power and beta_j = axes[j].growth;
    ``margin`` is gamma - sum_j 1/beta_j, set by the family so that fbm's
    is exactly its index H.
    """

    prefactor: float
    power: float
    margin: float
    rate: float
    axes: tuple

    def density(self, lam):
        """f at one coordinate array per axis, broadcast together.

        Raises SingularDensityError at lambda = 0 when the weight has no
        decay (fbm), where the density is infinite.
        """
        total = sum(ax.term(np.abs(x)) for ax, x in zip(self.axes, lam))
        if self.rate == 0 and np.any(total == 0):
            raise SingularDensityError("fbm density is singular at lambda = 0")
        return self.prefactor * (self.rate + total) ** -self.power


@functools.lru_cache(maxsize=64)
def laplace_form(model):
    """The Laplace form of ``model``'s density; cached, as both are frozen."""
    if model.kind == KIND_CANONICAL:
        return LaplaceForm(model.scale, model.gamma,
                           model.gamma - sum(1.0 / b for b in model.beta), 1.0,
                           tuple(LaplaceAxis("power", 1.0, b) for b in model.beta))
    if model.kind == KIND_FBM:
        return LaplaceForm(model.fbm_const, (2.0 * model.hurst + model.dims) / 2.0,
                           model.hurst, 0.0, (LaplaceAxis("power", 1.0, 2.0),) * model.dims)
    if model.kind == KIND_STEIN:
        c, a, alpha = model.stein_c, model.stein_a, model.stein_alpha
        # the terms at lambda = 0 form the rate; alpha = 1 then leaves c lambda^2
        rate = sum(ci * ai**al for ci, ai, al in zip(c, a, alpha))
        margin = model.nu - sum(0.5 / al for al in alpha)
        return LaplaceForm(1.0, model.nu, margin, rate, tuple(
            LaplaceAxis("power", ci, 2.0) if al == 1.0
            else LaplaceAxis("shifted", ci, al, ai)
            for ci, ai, al in zip(c, a, alpha)))
    raise ModelError(f"unknown model kind: {model.kind!r}")


def evaluate_density(model, freq):
    """Evaluate f(lambda); accepts a vector or an (..., N) array."""
    freq = np.asarray(freq, dtype=float)
    if freq.ndim == 0 or freq.shape[-1] != model.dims:
        raise ModelError(f"frequency must have {model.dims} coordinates")
    value = laplace_form(model).density(np.moveaxis(freq, -1, 0))
    return float(value) if np.ndim(value) == 0 else value


@functools.lru_cache(maxsize=64)
def legitimacy_check(model):
    """Check the integrability condition gamma > sum_j 1/beta_j on the
    envelope exponents, that is a positive margin of the Laplace form;
    cached, as both the model and the verdict are frozen."""
    form = laplace_form(model)
    if form.margin > 0:
        return Legitimacy(ok=True)
    return Legitimacy(ok=False, reason=(
        f"the envelope's gamma = {form.power:g} must exceed "
        f"sum(1/beta) = {form.power - form.margin:g}"))


def check_legitimate(model):
    """ModelError unless the model passes :func:`legitimacy_check`."""
    verdict = legitimacy_check(model)
    if not verdict.ok:
        raise ModelError(f"illegitimate model: {verdict.reason}")


def smoothness_exponents(model):
    """Per-axis exponents H_j = (beta_j / 2) * margin of the induced field.

    Raises ModelError when the model fails the legitimacy check, since
    the exponents are only defined for integrable densities.
    """
    check_legitimate(model)
    form = laplace_form(model)
    h = tuple(0.5 * ax.growth * form.margin for ax in form.axes)
    q = sum(1.0 / v for v in h)
    return SmoothnessExponents(h=h, q=q)


def is_integer(value):
    """True for an int or numpy integer; a bool is not a dimension."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_integer(value, name, low, high=None):
    """``value`` as an int; ModelError unless :func:`is_integer` holds and
    low <= value, and value < high when ``high`` is given."""
    if not (is_integer(value) and low <= value and (high is None or value < high)):
        bounds = f"in [{low}, {high})" if high is not None else f">= {low}"
        raise ModelError(f"{name} must be an integer {bounds}, got {value!r}")
    return int(value)


def _check_fbm(hurst, dims):
    if not 0 < hurst < 1:
        raise ModelError("fbm requires hurst in (0, 1)")
    check_integer(dims, "dims", 1)


def normalize_fbm_constant(hurst, dims):
    """c(H, N) = 2^{2H} H Gamma(H + N/2) / (2 pi^{N/2} Gamma(1 - H)).

    The closed form of 1 / (2 int (1 - cos<e_1, lambda>) |lambda|^{-(2H+N)}),
    so the variogram is |h|^{2H}; ModelError where Gamma(H + N/2) overflows.
    """
    _check_fbm(hurst, dims)
    try:
        ratio = math.gamma(hurst + dims / 2.0) / math.pi ** (dims / 2.0)
    except OverflowError:
        raise ModelError(f"fbm constant overflows for dims = {dims}") from None
    return 4.0**hurst * hurst * ratio / (2.0 * math.gamma(1.0 - hurst))


# Per family, the document's fields: a number (float) or a list of
# numbers (list); "kind" is checked by model_from_dict.
_JSON_FIELDS = {
    KIND_CANONICAL: {"beta": list, "gamma": float, "scale": float},
    KIND_FBM: {"hurst": float, "fbm_const": float},
    KIND_STEIN: {"c": list, "a": list, "alpha": list, "nu": float},
}


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_fields(doc, label, fields):
    """Raise ModelError on a key of ``doc`` that ``fields`` lacks, or on a
    field it maps to float (list, int) that is not a number (list of
    numbers, integer)."""
    extra = set(doc) - set(fields)
    if extra:
        raise ModelError(f"unknown {label} fields: {sorted(extra)}")
    for name, kind in fields.items():
        value = doc.get(name)
        if kind is list:
            ok = isinstance(value, (list, tuple)) and all(map(_is_number, value))
        elif kind is int:
            ok = is_integer(value)
        else:
            ok = kind is None or _is_number(value)
        if name in doc and not ok:
            wanted = {list: "a list of numbers", int: "an integer"}.get(kind, "a number")
            raise ModelError(f"field {name!r} must be {wanted}, got {value!r}")


def model_to_dict(model):
    """JSON-ready dict with exactly the family's fields."""
    if model.kind == KIND_CANONICAL:
        return {"kind": model.kind, "dims": model.dims, "beta": list(model.beta),
                "gamma": model.gamma, "scale": model.scale}
    if model.kind == KIND_FBM:
        return {"kind": model.kind, "dims": model.dims, "hurst": model.hurst,
                "fbm_const": model.fbm_const}
    if model.kind == KIND_STEIN:
        return {"kind": model.kind, "dims": model.dims, "c": list(model.stein_c),
                "a": list(model.stein_a), "alpha": list(model.stein_alpha),
                "nu": model.nu}
    raise ModelError(f"unknown model kind: {model.kind!r}")


def model_from_dict(doc):
    """Inverse of :func:`model_to_dict`; unknown keys are rejected."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ModelError("model document must be an object with a 'kind' field")
    kind = doc["kind"]
    if not isinstance(kind, str) or kind not in _JSON_FIELDS:
        raise ModelError(f"unknown model kind: {kind!r}")
    check_fields(doc, "model", {"kind": None, "dims": int, **_JSON_FIELDS[kind]})
    try:
        if kind == KIND_CANONICAL:
            model = canonical_c(doc["beta"], doc["gamma"], doc.get("scale", 1.0))
        elif kind == KIND_FBM:
            model = fbm(doc["hurst"], doc["dims"], fbm_const=doc.get("fbm_const"))
        else:
            model = stein(doc["c"], doc["a"], doc["alpha"], doc["nu"])
    except KeyError as exc:
        raise ModelError(f"missing model field: {exc.args[0]}") from None
    if "dims" in doc and model.dims != doc["dims"]:
        raise ModelError("dims is inconsistent with the parameter vectors")
    return model


def model_to_json(model):
    return json.dumps(model_to_dict(model))


def model_from_json(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(f"invalid model JSON: {exc}") from None
    return model_from_dict(doc)
