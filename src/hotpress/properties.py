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

import math
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


def _build_perm_interpolator(dens, perm):
    """Monotone cubic interpolant of log10(K) vs density.

    A straight least-squares line in log space misses the flattened dense
    tail of the measurements by >20%, so interpolation is used instead; it
    reproduces every tabulated point exactly and stays monotone.
    """
    return PchipInterpolator(dens, np.log10(perm), extrapolate=False)


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
    p = 10.0 ** (10.745 - 2141.0 / (t + KELVIN))
    return p if np.ndim(p) else float(p)


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

@dataclass(frozen=True)
class HailwoodHorrobinIsotherm:
    """Two-hydrate sorption surface EMC(T, RH) for wood-based material.

    Uses the published Fahrenheit-polynomial coefficients for the
    monolayer/polylayer constants.  ``scale`` multiplies the whole surface
    (compressed fiber mats equilibrate slightly below solid wood);
    temperatures are clamped to ``t_range`` because the published k1
    polynomial changes sign above ~125 degC.
    """

    scale: float = 1.0
    t_range: tuple = (0.0, 115.0)  # degC

    def emc(self, t_c, hr_pct):
        """Equilibrium moisture content [%] at T [degC] and RH [%]."""
        t_f = np.clip(np.asarray(t_c, dtype=float), *self.t_range) * 1.8 + 32.0
        h = np.asarray(hr_pct, dtype=float) / 100.0
        w = 330.0 + 0.452 * t_f + 0.00415 * t_f**2
        k = 0.791 + 4.63e-4 * t_f - 8.44e-7 * t_f**2
        k1 = 6.34 + 7.75e-4 * t_f - 9.35e-5 * t_f**2
        k2 = 1.09 + 2.84e-2 * t_f - 9.04e-5 * t_f**2
        kh = k * h
        mono = kh / (1.0 - kh)
        poly = (k1 * kh + 2.0 * k1 * k2 * kh**2) / (1.0 + k1 * kh + k1 * k2 * kh**2)
        out = self.scale * (1800.0 / w) * (mono + poly)
        return out if np.ndim(out) else float(out)

    def hr_from_emc(self, t_c, h_pct, n_bisect=18, n_polish=4):
        """Invert the surface: RH [%] that equilibrates at moisture H [%].

        Bisection on [0, 100] followed by Newton polish so the root is a
        numerically smooth function of (T, H); the temperature polynomials
        are hoisted out of the iteration.  Moisture above the saturated
        value EMC(T, 100) returns 100 (saturated pore gas).

        Raises
        ------
        ConvergenceError
            If the polished root does not reproduce H to 1e-6 %.
        """
        t = np.asarray(t_c, dtype=float)
        target = np.asarray(h_pct, dtype=float)
        scalar = np.ndim(t) == 0 and np.ndim(target) == 0
        t, target = np.broadcast_arrays(t, target)
        target = np.asarray(target, dtype=float)

        t_f = np.clip(t, *self.t_range) * 1.8 + 32.0
        w = 330.0 + 0.452 * t_f + 0.00415 * t_f**2
        k = 0.791 + 4.63e-4 * t_f - 8.44e-7 * t_f**2
        k1 = 6.34 + 7.75e-4 * t_f - 9.35e-5 * t_f**2
        k2 = 1.09 + 2.84e-2 * t_f - 9.04e-5 * t_f**2
        pref = self.scale * 1800.0 / w
        k1k2 = k1 * k2

        def surface(hr):
            x = k * (hr / 100.0)
            return pref * (
                x / (1.0 - x)
                + (k1 * x + 2.0 * k1k2 * x**2) / (1.0 + k1 * x + k1k2 * x**2)
            )

        lo = np.zeros_like(target, dtype=float)
        hi = np.full_like(target, 100.0, dtype=float)
        emc_hi = surface(hi)
        saturated = target >= emc_hi
        for _ in range(n_bisect):
            mid = 0.5 * (lo + hi)
            above = surface(mid) > target
            hi = np.where(above, mid, hi)
            lo = np.where(above, lo, mid)
        hr = 0.5 * (lo + hi)
        for _ in range(n_polish):
            x = k * (hr / 100.0)
            mono = x / (1.0 - x)
            dmono = 1.0 / (1.0 - x) ** 2
            num = k1 * x + 2.0 * k1k2 * x**2
            den = 1.0 + k1 * x + k1k2 * x**2
            emc = pref * (mono + num / den)
            slope = pref * (
                dmono + ((k1 + 4.0 * k1k2 * x) * den - num * (k1 + 2.0 * k1k2 * x))
                / den**2
            ) * k / 100.0
            step = np.where(slope > 0.0, (emc - target) / np.where(slope > 0, slope, 1.0), 0.0)
            hr = np.clip(hr - step, 0.0, 100.0)
        hr = np.where(saturated, 100.0, hr)

        resid = np.abs(surface(hr) - np.minimum(target, emc_hi))
        if np.any(resid > 1e-6):
            raise ConvergenceError(
                f"isotherm inversion residual {float(np.max(resid)):.2e} % "
                f"exceeds 1e-6 (T={t_c!r}, H={h_pct!r})"
            )
        return float(hr) if scalar else hr

    @classmethod
    def calibrated(cls, t_c=30.0, hr_pct=65.0, emc_target=11.0):
        """Scale the published surface so EMC(t_c, hr_pct) == emc_target."""
        raw = cls(scale=1.0).emc(t_c, hr_pct)
        return cls(scale=emc_target / raw)


def relative_humidity_from_sorption(t_c, h_pct, isotherm=None):
    """Relative humidity [%] in equilibrium with moisture H [%] at T [degC]."""
    if isotherm is None:
        isotherm = _DEFAULT_ISOTHERM
    return isotherm.hr_from_emc(t_c, h_pct)


_DEFAULT_ISOTHERM = HailwoodHorrobinIsotherm.calibrated()


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
    mm_water, mm_air : float
        Molar masses [kg/kmol].
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
    mm_water: float = 18.0         # kg/kmol
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
        if self.rho_s <= 0:
            raise DomainError("rho_s must be positive")
        for name in ("rho_f", "rho_r", "cp_vapor", "mm_water", "mm_air", "r_gas"):
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be positive")
        if not 0.0 <= self.y_r < 1.0:
            raise DomainError("y_r must lie in [0, 1)")
        if self.porosity_model not in ("simple", "suzuki"):
            raise DomainError(f"unknown porosity model {self.porosity_model!r}")
        dens, perm = load_permeability_table(self.perm_table_path)
        object.__setattr__(self, "perm_density", dens)
        object.__setattr__(self, "perm_values", perm)
        object.__setattr__(self, "_perm_interp", _build_perm_interpolator(dens, perm))

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
