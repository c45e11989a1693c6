"""Constitutive correlations for fiberboard, moist air and bound water.

Every function is a pure map from state to property value and accepts scalars
or numpy arrays (broadcasting).  Units follow one discipline throughout the
package:

    temperature      T      degC  (Kelvin only where noted)
    moisture content H      % of oven-dry mass
    pressure         P      N/m2
    density          rho    kg/m3
    conductivity     kappa  W/(m K)
    permeability     K      m2
    viscosity        mu     kg/(m s)
    diffusivity      D      m2/s
    specific heat    Cp     J/(kg K)
    latent/sorption  J/kg

The fitted coefficients are hard numbers from published measurements; they
are not tunable knobs and live next to the formulas that use them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import ConvergenceError, DomainError

KELVIN = 273.15

# Near-unity temperature correction of the dry-board conductivity, per degC
# away from 20 degC.  The magnitude ~1e-3 keeps the factor within a few
# percent of 1 over the whole press cycle; a factor 1e3 larger would make
# conductivity negative just below room temperature, which is unphysical.
KAPPA_TEMP_COEFF = 1.077e-3  # 1/degC

# Moisture correction of conductivity, per % moisture away from 12%.
KAPPA_MOIST_COEFF = 9.77e-3  # 1/%


def thermal_conductivity_z(t_c, h_pct, rho_s):
    """Through-thickness thermal conductivity of the board.

    Linear in dry density, with near-unity temperature and moisture
    correction factors.

    Parameters
    ----------
    t_c : float or ndarray
        Temperature [degC].
    h_pct : float or ndarray
        Moisture content [%], >= 0.
    rho_s : float or ndarray
        Dry board density [kg/m3], >= 0.

    Returns
    -------
    float or ndarray
        kappa_z [W/(m K)], always > 0 for physical inputs.
    """
    base = 1.172e-2 + 1.319e-4 * np.asarray(rho_s, dtype=float)
    f_h = 1.0 + KAPPA_MOIST_COEFF * (np.asarray(h_pct, dtype=float) - 12.0)
    f_t = 1.0 + KAPPA_TEMP_COEFF * (np.asarray(t_c, dtype=float) - 20.0)
    kappa = base * f_h * f_t
    if np.any(kappa <= 0.0):
        raise DomainError(
            f"thermal_conductivity_z: non-positive conductivity for "
            f"T={t_c!r} degC, H={h_pct!r} %, rho_s={rho_s!r} kg/m3"
        )
    return kappa if np.ndim(kappa) else float(kappa)


def thermal_conductivity_xy(kappa_z, anisotropy=1.5):
    """In-plane conductivity from the vertical one (fiber-mat anisotropy)."""
    return anisotropy * kappa_z


def gas_viscosity(t_c):
    """Dynamic viscosity of the pore gas (Sutherland-type fit).

    Parameters
    ----------
    t_c : float or ndarray
        Temperature [degC].

    Returns
    -------
    float or ndarray
        mu [kg/(m s)]; ~1.56e-5 at 0 degC, increasing with temperature.
    """
    t = np.asarray(t_c, dtype=float)
    mu = 1.112e-5 * (t + KELVIN) ** 1.5 / (t + 3211.0)
    return mu if np.ndim(mu) else float(mu)


def load_permeability_table(path=None):
    """Read the density/permeability table shipped with the package.

    The file has two columns: density [kg/m3] and permeability in units of
    1e-15 m2.  Returns ``(density, permeability_m2)`` arrays with the scale
    factor applied.
    """
    if path is None:
        ref = resources.files("hotpress").joinpath("data/permeability_table.txt")
        with resources.as_file(ref) as p:
            raw = np.loadtxt(p)
    else:
        raw = np.loadtxt(path)
    if raw.ndim != 2 or raw.shape[1] != 2:
        raise DomainError("permeability table must have two columns")
    dens, perm = raw[:, 0], raw[:, 1] * 1e-15
    if np.any(np.diff(dens) <= 0):
        raise DomainError("permeability table densities must strictly increase")
    if np.any(perm <= 0):
        raise DomainError("permeability table values must be positive")
    if np.any(np.diff(perm) > 0):
        # denser boards never conduct gas better; equal neighbouring values
        # do occur at the dense end of the measured range
        raise DomainError("permeability may not increase with density")
    return dens, perm


def vertical_permeability(rho_s, params):
    """Superficial vertical gas permeability at a given board density.

    Densities outside the tabulated range are clamped to the endpoints.

    Parameters
    ----------
    rho_s : float or ndarray
        Dry board density [kg/m3].
    params : MaterialParams

    Returns
    -------
    float or ndarray
        K_z [m2].
    """
    dens = params.perm_density
    rho = np.clip(np.asarray(rho_s, dtype=float), dens[0], dens[-1])
    k = 10.0 ** params._perm_interp(rho)
    return k if np.ndim(k) else float(k)


def horizontal_permeability(k_z, anisotropy=59.0):
    """In-plane permeability from the vertical one."""
    return anisotropy * k_z


def steam_air_diffusivity(p_total, t_k):
    """Interdiffusion coefficient of steam and air in the pore space.

    Parameters
    ----------
    p_total : float or ndarray
        Total gas pressure [N/m2], > 0.
    t_k : float or ndarray
        Temperature [K], > 0.

    Returns
    -------
    float or ndarray
        D [m2/s]; 2.20e-5 at one atmosphere and 273.15 K, inversely
        proportional to pressure.
    """
    d = 2.20e-5 * (101325.0 / np.asarray(p_total, dtype=float)) * (
        np.asarray(t_k, dtype=float) / KELVIN
    )
    return d if np.ndim(d) else float(d)


_PSAT_B = 2141.0  # K, slope of log10(P_sat) in 1/T


def saturated_vapor_pressure(t_c):
    """Saturated water-vapor pressure, Kirchhoff-type log-linear fit.

    Parameters
    ----------
    t_c : float or ndarray
        Temperature [degC].

    Returns
    -------
    float or ndarray
        P_sat [N/m2]; ~1.02e5 at 100 degC.
    """
    t = np.asarray(t_c, dtype=float)
    p = 10.0 ** (10.745 - _PSAT_B / (t + KELVIN))
    return p if np.ndim(p) else float(p)


def saturated_vapor_pressure_slope(t_c):
    """d(P_sat)/dT [N/(m2 K)] of ``saturated_vapor_pressure``."""
    t_k = np.asarray(t_c, dtype=float) + KELVIN
    return saturated_vapor_pressure(t_c) * np.log(10.0) * _PSAT_B / t_k**2


def vapor_density(p_sat, hr_pct):
    """Water-vapor density in the pore gas from the linear vapor-state fit.

    Parameters
    ----------
    p_sat : float or ndarray
        Saturated vapor pressure [N/m2].
    hr_pct : float or ndarray
        Relative humidity [%].

    Returns
    -------
    float or ndarray
        rho_v [kg/m3]; ~0.61 at saturation and 100 degC.
    """
    rv = np.asarray(p_sat, dtype=float) * 6.0e-8 * np.asarray(hr_pct, dtype=float)
    return rv if np.ndim(rv) else float(rv)


def latent_heat(t_c):
    """Latent heat of vaporization of free water [J/kg], linear in T."""
    lam = 2.511e6 - 2.48e3 * np.asarray(t_c, dtype=float)
    return lam if np.ndim(lam) else float(lam)


def sorption_heat(h_pct):
    """Differential heat of sorption of bound water [J/kg].

    Decays exponentially with moisture content: dry cell walls bind water
    much more strongly than walls near fiber saturation.
    """
    q = 1.176e6 * np.exp(-0.15 * np.asarray(h_pct, dtype=float))
    return q if np.ndim(q) else float(q)


def specific_heat(t_k, h_frac):
    """Specific heat of moist wood material.

    Parameters
    ----------
    t_k : float or ndarray
        Temperature [K].
    h_frac : float or ndarray
        Moisture content as a *fraction* of dry mass (11% -> 0.11).
        The dry-wood golden value 1120.2 J/(kg K) at 273.15 K only comes out
        when the mixture rule is applied in fractions.

    Returns
    -------
    float or ndarray
        Cp [J/(kg K)]; tends to liquid-water values ~4180 as h_frac grows.
    """
    t = np.asarray(t_k, dtype=float)
    h = np.asarray(h_frac, dtype=float)
    cp = 4180.0 * (0.268 + 1.1e-3 * (t - KELVIN) + h) / (1.0 + h)
    return cp if np.ndim(cp) else float(cp)


def porosity(rho, params):
    """Void fraction of the mat under the configured porosity model.

    ``simple``: one minus the ratio of current bulk density to the compacted
    dry-material density.  ``suzuki``: mixture rule over fiber and resin
    volume with the resin mass ratio ``y_r``; depends on the dry board
    density only.

    Returns a value in [0, 1); exactly 0 means a fully dense mat (allowed
    here, rejected by scenario validation for actual runs).
    """
    if params.porosity_model == "simple":
        eps = 1.0 - float(rho) / params.rho_s
    elif params.porosity_model == "suzuki":
        eps = 1.0 - params.rho_s * (1.0 / params.rho_f + params.y_r / params.rho_r) / (
            1.0 + params.y_r
        )
    else:
        raise DomainError(f"unknown porosity model {params.porosity_model!r}")
    if not 0.0 <= eps < 1.0:
        raise DomainError(
            f"porosity {eps:.4f} outside [0, 1) for model "
            f"{params.porosity_model!r} (rho={rho}, rho_s={params.rho_s})"
        )
    return eps


# ---------------------------------------------------------------------------
# sorption isotherm
# ---------------------------------------------------------------------------

# Hailwood-Horrobin W, k, k1, k2 as quadratics c0 + c1 F + c2 F^2 in degF
_HH_POLYNOMIALS = ((330.0, 0.452, 0.00415), (0.791, 4.63e-4, -8.44e-7),
                   (6.34, 7.75e-4, -9.35e-5), (1.09, 2.84e-2, -9.04e-5))


def _surface(x, a, b):
    """(g, dg/dx, num, den) of g = x/(1-x) + num/den with
    num = a x + 2b x^2 and den = 1 + a x + b x^2."""
    num = a * x + 2.0 * b * x**2
    den = 1.0 + a * x + b * x**2
    g_x = 1.0 / (1.0 - x) ** 2 \
        + ((a + 4.0 * b * x) * den - num * (a + 2.0 * b * x)) / den**2
    return x / (1.0 - x) + num / den, g_x, num, den


def _cubic_root(c3, c2, c1, c0, j):
    """Real root of c3 s^3 + c2 s^2 + c1 s + c0: the largest (j = 0) or the
    middle one (j = 1) of three real roots, else the only real root."""
    b, c, d = c2 / c3, c1 / c3, c0 / c3
    p, q = c - b * b / 3.0, 2.0 * b**3 / 27.0 - b * c / 3.0 + d
    disc = q * q / 4.0 + p**3 / 27.0
    sq = np.sqrt(np.abs(disc))
    three = 2.0 * np.sqrt(np.maximum(-p / 3.0, 0.0)) \
        * np.cos((np.arctan2(sq, -q / 2.0) - 2.0 * np.pi * j) / 3.0)
    u = np.cbrt(-q / 2.0 - np.copysign(sq, q))  # Cardano, larger-modulus term
    return np.where(disc <= 0.0, three, u - p / (3.0 * u)) - b / 3.0


@dataclass(frozen=True)
class HailwoodHorrobinIsotherm:
    """Two-hydrate sorption surface EMC(T, RH) for wood-based material.

    Uses the published Fahrenheit-polynomial coefficients for the
    monolayer/polylayer constants.  ``scale`` multiplies the whole surface
    (compressed fiber mats equilibrate slightly below solid wood);
    temperatures are clamped to ``t_range`` because the published k1
    polynomial changes sign above ~125 degC.

    The clamp is a kink: above it dRH/dT is zero, so d(rho_v)/dT keeps
    only its saturation-pressure term and falls by 12 % across 115 degC,
    from 0.032585 to 0.028605 kg/(m3 K) at H = 10 %.
    """

    scale: float = 1.0
    t_range: tuple = (0.0, 115.0)  # degC

    def __post_init__(self):
        if not (np.isfinite(self.scale) and self.scale > 0.0):
            raise DomainError(f"scale must be positive and finite, "
                              f"got {self.scale!r}")

    def _coefficients(self, t_c):
        """``(pref, k, a, b)`` of EMC = pref g(k RH/100, a, b) at T [degC],
        with pref = scale 1800/W, a = k1 and b = k1 k2, and their
        T-derivatives [1/degC], which are zero outside ``t_range``."""
        t = np.asarray(t_c, dtype=float)
        t_f = np.clip(t, *self.t_range) * 1.8 + 32.0
        df_dt = 1.8 * ((t >= self.t_range[0]) & (t <= self.t_range[1]))
        (w, k, k1, k2), (dw, dk, dk1, dk2) = zip(*(
            (c0 + c1 * t_f + c2 * t_f**2, df_dt * (c1 + 2.0 * c2 * t_f))
            for c0, c1, c2 in _HH_POLYNOMIALS))
        pref = self.scale * (1800.0 / w)
        return (pref, k, k1, k1 * k2), (-pref * dw / w, dk, dk1, dk1 * k2 + k1 * dk2)

    def emc(self, t_c, hr_pct):
        """Equilibrium moisture content [%] at T [degC] and RH [%]."""
        (pref, k, a, b), _ = self._coefficients(t_c)
        out = pref * _surface(k * (np.asarray(hr_pct, dtype=float) / 100.0), a, b)[0]
        return out if np.ndim(out) else float(out)

    def hr_from_emc(self, t_c, h_pct):
        """Invert the surface: RH [%] that equilibrates at moisture H [%].

        With x = k RH/100 and y = H/pref, EMC(T, RH) = H clears to the cubic
        b(y-1) x^3 + (2b - y(b-a)) x^2 + (1 + a - y(a-1)) x - y = 0, whose
        one root in [0, k] is taken in closed form; for y >= 1/2 the cubic
        is solved for 1/x, since its x^3 coefficient vanishes at y = 1.
        Two Newton steps on the surface remove the roundoff of the closed
        form.  Moisture at or above the saturated value EMC(T, 100)
        returns 100 (saturated pore gas).

        Raises
        ------
        ConvergenceError
            If the root does not reproduce H to 1e-6 %.
        """
        target = np.asarray(h_pct, dtype=float)
        (pref, k, a, b), _ = self._coefficients(t_c)
        y = target / pref
        y_sat = _surface(k, a, b)[0]
        y_eq = np.minimum(y, y_sat)
        flip = y >= 0.5
        cubic = (b * (y - 1.0), 2.0 * b - y * (b - a), 1.0 + a - y * (a - 1.0), -y)
        # below y = 1/2 the cubic has three real roots and x is the middle
        # one; 1/x is the largest real root of the reversed cubic
        root = _cubic_root(*(np.where(flip, rev, fwd)
                             for fwd, rev in zip(cubic, cubic[::-1])),
                           np.where(flip, 0, 1))
        x = np.clip(root ** np.where(flip, -1.0, 1.0), 0.0, k)
        for _ in range(2):
            g, g_x = _surface(x, a, b)[:2]
            x = np.clip(x - (g - y_eq) / g_x, 0.0, k)
        hr = np.where(y >= y_sat, 100.0, 100.0 * x / k)

        resid = np.abs(pref * (_surface(x, a, b)[0] - y_eq))
        if np.any(resid > 1e-6):
            raise ConvergenceError(
                f"isotherm inversion residual {float(np.max(resid)):.2e} % "
                f"exceeds 1e-6 (T={t_c!r}, H={h_pct!r})"
            )
        return hr if np.ndim(hr) else float(hr)

    def hr_slopes(self, t_c, hr_pct):
        """(dRH/dT, dRH/dH) of the inverse at (T [degC], RH [%]), by the
        implicit function theorem; both are zero at saturation (RH = 100)."""
        (pref, k, a, b), (dpref, dk, da, db) = self._coefficients(t_c)
        h = np.asarray(hr_pct, dtype=float) / 100.0
        x = k * h
        g, g_x, num, den = _surface(x, a, b)
        g_ab = (x * (den - num) * da + x**2 * (2.0 * den - num) * db) / den**2
        emc_t = dpref * g + pref * (g_x * dk * h + g_ab)
        emc_hr = np.where(h < 1.0, pref * g_x * k / 100.0, np.inf)
        return -emc_t / emc_hr, 1.0 / emc_hr

    @classmethod
    def calibrated(cls, t_c=30.0, hr_pct=65.0, emc_target=11.0):
        """Scale the published surface so EMC(t_c, hr_pct) == emc_target."""
        raw = cls(scale=1.0).emc(t_c, hr_pct)
        return cls(scale=emc_target / raw)


# ---------------------------------------------------------------------------
# material parameter bundle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaterialParams:
    """All constitutive constants and fitted data for one board.

    Parameters
    ----------
    rho_s : float
        Dry board density [kg/m3].
    bulk_density : float, optional
        Current bulk density [kg/m3] for the ``simple`` porosity model;
        defaults to ``rho_s`` (fully compacted).
    kappa_anisotropy, perm_anisotropy : float
        In-plane/vertical ratios for conductivity (1.5) and gas
        permeability (59).
    cp_vapor : float
        Specific heat of water vapor [J/(kg K)].
    mm_air : float
        Molar mass of air [kg/kmol].
    r_gas : float
        Universal gas constant [J/(kmol K)].
    porosity_model : str
        ``"suzuki"`` or ``"simple"``.
    rho_f, rho_r, y_r : float
        Fiber density, resin density [kg/m3] and resin mass ratio for the
        Suzuki porosity model.
    perm_table_path : str or None
        Override for the permeability data file (default: packaged table).
    isotherm : HailwoodHorrobinIsotherm
        Replaceable sorption surface.
    """

    rho_s: float
    bulk_density: float | None = None
    kappa_anisotropy: float = 1.5
    perm_anisotropy: float = 59.0
    cp_vapor: float = 1880.0       # J/(kg K)
    mm_air: float = 28.96          # kg/kmol
    r_gas: float = 8314.0          # J/(kmol K)
    porosity_model: str = "suzuki"
    rho_f: float = 900.0           # kg/m3
    rho_r: float = 1100.0          # kg/m3
    y_r: float = 0.085
    perm_table_path: str | None = None
    isotherm: HailwoodHorrobinIsotherm = field(
        default_factory=HailwoodHorrobinIsotherm.calibrated
    )

    def __post_init__(self):
        # every message starts with the name of the offending field
        for name in ("rho_s", "bulk_density", "kappa_anisotropy",
                     "perm_anisotropy", "cp_vapor", "mm_air", "r_gas",
                     "rho_f", "rho_r"):
            value = getattr(self, name)
            if value is None and name == "bulk_density":  # means rho_s
                continue
            if not (np.isfinite(value) and value > 0.0):
                raise DomainError(f"{name} must be positive and finite, "
                                  f"got {value!r}")
        if not 0.0 <= self.y_r < 1.0:
            raise DomainError(f"y_r must lie in [0, 1), got {self.y_r!r}")
        if self.porosity_model not in ("simple", "suzuki"):
            raise DomainError("porosity_model must be 'simple' or 'suzuki', "
                              f"got {self.porosity_model!r}")
        try:
            dens, perm = load_permeability_table(self.perm_table_path)
        except (OSError, ValueError) as exc:
            raise DomainError(f"perm_table_path {self.perm_table_path!r}: "
                              f"{exc}") from exc
        object.__setattr__(self, "perm_density", dens)
        object.__setattr__(self, "perm_values", perm)
        # monotone cubic interpolant of log10(K) through every tabulated
        # point: a least-squares line in log space misses the flat dense
        # tail of the measurements by >20 %
        object.__setattr__(self, "_perm_interp", PchipInterpolator(
            dens, np.log10(perm), extrapolate=False))

    def porosity_value(self):
        """Porosity of this board (bulk density defaults to rho_s)."""
        rho = self.rho_s if self.bulk_density is None else self.bulk_density
        return porosity(rho, self)

    def __eq__(self, other):
        if not isinstance(other, MaterialParams):
            return NotImplemented
        mine = {k: v for k, v in self.__dict__.items() if not k.startswith("_")
                and k not in ("perm_density", "perm_values")}
        theirs = {k: v for k, v in other.__dict__.items() if not k.startswith("_")
                  and k not in ("perm_density", "perm_values")}
        return mine == theirs
