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

The density/permeability measurements are held the same way, as a
literal array next to their PCHIP.  The PCHIP and the calibrated isotherm
are built once, at import, which reads no file.  :class:`MaterialParams` holds the constants
of one board and fixes, when it is built, the porosity and vertical
permeability that they give.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, as_float

KELVIN = 273.15
R_GAS = 8314.0       # universal gas constant [J/(kmol K)]
MM_AIR = 28.96       # molar mass of air [kg/kmol]
CP_VAPOR = 1880.0    # specific heat of water vapor [J/(kg K)]

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


def _pchip_end_slope(h0, h1, m0, m1):
    """Three-point end slope of PCHIP, limited to keep the end monotone."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def pchip_coefficients(x, y):
    """PCHIP cubics through ``(x, y)``, as scipy's ``PchipInterpolator``.

    Returns the (4, n-1) coefficients of each interval's cubic in powers
    of ``x - x[i]``, highest first.  Interior slopes are zero where a
    secant is zero or changes sign, else the weighted harmonic mean of
    the two secants; two points give a line.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    d = np.full_like(y, m[0])
    if len(x) > 2:
        w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            d[1:-1] = np.where(flat, 0.0,
                               1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
        d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
        d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    return np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))


def pchip_evaluate(x, coef, xi):
    """Value at ``xi`` (within ``[x[0], x[-1]]``) of the cubics of
    :func:`pchip_coefficients`, summed in scipy's ``PPoly`` order so that
    the values match it bit for bit."""
    i = np.minimum(np.searchsorted(x, xi, side="right") - 1, len(x) - 2)
    s = xi - x[i]
    c0, c1, c2, c3 = coef[:, i]
    return c3 + c2 * s + c1 * (s * s) + c0 * (s * s * s)


# Vertical (through-thickness) superficial gas permeability of dry
# fiberboard as a function of board density.  Columns: density [kg/m3],
# permeability [1e-15 m2].  Denser boards never conduct gas better; equal
# neighbouring values occur at the dense end of the measured range.
_PERM_TABLE = np.array([[425.0, 64.0],
                        [475.0, 40.0],
                        [525.0, 24.0],
                        [575.0, 16.0],
                        [625.0, 11.0],
                        [675.0, 7.0],
                        [725.0, 5.0],
                        [775.0, 3.0],
                        [825.0, 2.0],
                        [875.0, 2.0]])

# The table [kg/m3, m2] and the PCHIP, a monotone cubic interpolant
# (Fritsch & Carlson 1980), of log10(K) through every tabulated point: a
# least-squares line in log space misses the flat dense tail of the
# measurements by >20 %
PERM_DENSITY, PERM_VALUES = _PERM_TABLE[:, 0], _PERM_TABLE[:, 1] * 1e-15
PERM_COEF = pchip_coefficients(PERM_DENSITY, np.log10(PERM_VALUES))


def vertical_permeability(rho_s):
    """Superficial vertical gas permeability at a given board density.

    log10 K is interpolated through every row of ``_PERM_TABLE`` by
    PCHIP (Fritsch & Carlson 1980, SIAM J. Numer. Anal. 17), with scipy's
    end-point rule.  Densities outside the tabulated range are clamped to
    the endpoints.

    Parameters
    ----------
    rho_s : float or ndarray
        Dry board density [kg/m3].

    Returns
    -------
    float or ndarray
        K_z [m2].
    """
    rho = np.clip(np.asarray(rho_s, dtype=float),
                  PERM_DENSITY[0], PERM_DENSITY[-1])
    k = 10.0 ** pchip_evaluate(PERM_DENSITY, PERM_COEF, rho)
    return k if np.ndim(k) else float(k)


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


def saturated_vapor_pressure_slope(t_c, p_sat):
    """d(P_sat)/dT [N/(m2 K)] of ``saturated_vapor_pressure`` at t_c
    [degC], from its value there, ``p_sat``."""
    t_k = np.asarray(t_c, dtype=float) + KELVIN
    return p_sat * (np.log(10.0) * _PSAT_B) / t_k**2


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


# ---------------------------------------------------------------------------
# sorption isotherm
# ---------------------------------------------------------------------------

# Hailwood-Horrobin W, k, k1, k2 (columns) as quadratics c0 + c1 F + c2 F^2
# (rows) in degF
_HH_COEFFS = np.array([[330.0, 0.791, 6.34, 1.09],
                       [0.452, 4.63e-4, 7.75e-4, 2.84e-2],
                       [0.00415, -8.44e-7, -9.35e-5, -9.04e-5]])
_HH_T_RANGE = (0.0, 115.0)  # degC, the clamp applied to T before them


def _surface(x, a, b):
    """(g, dg/dx, den) of g = x/(1-x) + num/den with num = a x + 2b x^2
    and den = 1 + a x + b x^2."""
    bx = b * x
    den = 1.0 + x * (a + bx)
    g_x = 1.0 / (1.0 - x) ** 2 + (a + bx * (4.0 + a * x)) / den**2
    return x / (1.0 - x) + x * (a + 2.0 * bx) / den, g_x, den


def _cubic_root(c3, c2, c1, c0, j):
    """Real root of c3 s^3 + c2 s^2 + c1 s + c0: the largest (j = 0) or the
    middle one (j = 1) of three real roots, else the only real root."""
    b3, c, d = c2 / (3.0 * c3), c1 / c3, c0 / c3
    # depressed cubic t^3 + 3 m t + 2 h = 0 in t = s + b3
    bb = b3 * b3
    m, h = (c - 3.0 * bb) / 3.0, (b3 * (2.0 * bb - c) + d) / 2.0
    disc = h * h + m * m * m
    sq = np.sqrt(np.abs(disc))
    three = 2.0 * np.sqrt(np.maximum(-m, 0.0)) \
        * np.cos((np.arctan2(sq, -h) - 2.0 * np.pi * j) / 3.0)
    u = np.cbrt(-h - np.copysign(sq, h))  # Cardano, larger-modulus term
    return np.where(disc <= 0.0, three, u - m / u) - b3


@dataclass(frozen=True)
class HailwoodHorrobinIsotherm:
    """Two-hydrate sorption surface EMC(T, RH) for wood-based material.

    Uses the published Fahrenheit-polynomial coefficients for the
    monolayer/polylayer constants.  ``scale`` multiplies the whole surface
    (compressed fiber mats equilibrate slightly below solid wood);
    temperatures are clamped to [0, 115] degC because the published k1
    polynomial changes sign above ~125 degC.

    The clamp is a kink: above it dRH/dT is zero, so d(rho_v)/dT keeps
    only its saturation-pressure term and falls by 12 % across 115 degC,
    from 0.032584 to 0.028606 kg/(m3 K) at H = 10 %.

    ``scale`` is stored as float; one that is not a positive, finite
    number raises :class:`~hotpress.errors.DomainError` naming it.
    """

    scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "scale", as_float(
            self.scale, "scale", DomainError, lambda x: x > 0.0,
            f"must be positive and finite, got {self.scale!r}"))

    def _coefficients(self, t_c):
        """``(pref, k, a, b)`` of EMC = pref g(k RH/100, a, b) at T [degC],
        with pref = scale 1800/W, a = k1 and b = k1 k2, and their
        T-derivatives [1/degC], which are zero outside the clamp range."""
        t = np.asarray(t_c, dtype=float)
        t_f = np.clip(t, *_HH_T_RANGE) * 1.8 + 32.0
        df_dt = 1.8 * ((t >= _HH_T_RANGE[0]) & (t <= _HH_T_RANGE[1]))
        c0, c1, c2 = _HH_COEFFS.reshape((3, 4) + (1,) * t.ndim)
        w, k, k1, k2 = c0 + t_f * (c1 + t_f * c2)
        dw, dk, dk1, dk2 = df_dt * (c1 + 2.0 * c2 * t_f)
        pref = self.scale * (1800.0 / w)
        return (pref, k, k1, k1 * k2), (-pref * dw / w, dk, dk1, dk1 * k2 + k1 * dk2)

    def emc(self, t_c, hr_pct):
        """Equilibrium moisture content [%] at T [degC] and RH [%]."""
        (pref, k, a, b), _ = self._coefficients(t_c)
        out = pref * _surface(k * (np.asarray(hr_pct, dtype=float) / 100.0), a, b)[0]
        return out if np.ndim(out) else float(out)

    def hr_from_emc(self, t_c, h_pct):
        """Invert the surface: RH [%] that equilibrates at moisture H [%],
        and its slopes (dRH/dT, dRH/dH) [%/degC, %/%].

        With x = k RH/100 and y = H/pref, EMC(T, RH) = H clears to the cubic
        b(y-1) x^3 + (2b - y(b-a)) x^2 + (1 + a - y(a-1)) x - y = 0, whose
        one root in [0, k] is taken in closed form; for y >= 1/2 the cubic
        is solved for 1/x, since its x^3 coefficient vanishes at y = 1.
        Two Newton steps on the surface remove the roundoff of the closed
        form.  Moisture at or above the saturated value EMC(T, 100)
        returns 100 (saturated pore gas).  The slopes follow from the
        implicit function theorem on the surface the residual check
        evaluates; both are zero at saturation.

        Raises
        ------
        ConvergenceError
            If the root does not reproduce H to 1e-6 %.
        """
        target = np.asarray(h_pct, dtype=float)
        (pref, k, a, b), (dpref, dk, da, db) = self._coefficients(t_c)
        y = target / pref
        y_sat = _surface(k, a, b)[0]
        sat = y >= y_sat
        y_eq = np.minimum(y, y_sat)
        flip = y >= 0.5
        cubic = (b * (y - 1.0), 2.0 * b - y * (b - a), 1.0 + a - y * (a - 1.0), -y)
        # below y = 1/2 the cubic has three real roots and x is the middle
        # one; 1/x is the largest real root of the reversed cubic
        root = np.asarray(_cubic_root(*(np.where(flip, rev, fwd)
                                        for fwd, rev in zip(cubic, cubic[::-1])),
                                      np.where(flip, 0, 1)))
        x = np.clip(np.divide(1.0, root, out=root, where=flip), 0.0, k)
        for _ in range(2):
            g, g_x = _surface(x, a, b)[:2]
            x = np.clip(x - (g - y_eq) / g_x, 0.0, k)
        hr = np.where(sat, 100.0, 100.0 * x / k)

        g, g_x, den = _surface(x, a, b)
        resid = np.abs(pref * (g - y_eq))
        if np.any(resid > 1e-6):
            raise ConvergenceError(
                f"isotherm inversion residual {float(np.max(resid)):.2e} % "
                f"exceeds 1e-6 (T={t_c!r}, H={h_pct!r})"
            )
        # EMC = pref g(x, a, b) with x = k RH/100: its partial derivatives
        g_ab = x * ((1.0 - b * x**2) * da + x * (2.0 + a * x) * db) / den**2
        emc_t = dpref * g + pref * (g_x * dk * x / k + g_ab)
        emc_hr = np.where(sat, np.inf, pref * g_x * k / 100.0)
        out = hr, -emc_t / emc_hr, 1.0 / emc_hr
        return out if np.ndim(hr) else tuple(float(v) for v in out)


# the published surface scaled so that EMC(30 degC, 65 %) = 11 %: a board
# conditioned at the calibration climate holds 11 % moisture
CALIBRATED_ISOTHERM = HailwoodHorrobinIsotherm(
    scale=11.0 / HailwoodHorrobinIsotherm(scale=1.0).emc(30.0, 65.0))


# ---------------------------------------------------------------------------
# material parameter bundle
# ---------------------------------------------------------------------------

# the range rule and message of each number of a MaterialParams; a value
# that is not a finite number is refused too
_BOARD_RULES = {
    **dict.fromkeys(("rho_s", "kappa_anisotropy", "perm_anisotropy", "rho_f",
                     "rho_r"), (lambda x: x > 0.0, "must be positive and finite")),
    "y_r": (lambda x: 0.0 <= x < 1.0, "must lie in [0, 1)"),
}


@dataclass(frozen=True)
class MaterialParams:
    """The constitutive constants of one board.

    What is the same for every board is a module constant: the gas
    constant ``R_GAS``, the molar mass of air ``MM_AIR``, the specific
    heat of water vapor ``CP_VAPOR`` and the permeability table
    ``PERM_DENSITY``, ``PERM_VALUES``; importing reads no file.
    Every field is checked when built, type included; a bad one raises
    :class:`~hotpress.errors.DomainError` starting with its name.  The
    numbers are stored as float.

    Parameters
    ----------
    rho_s : float
        Dry board density [kg/m3].
    kappa_anisotropy, perm_anisotropy : float
        In-plane/vertical ratios for conductivity (1.5) and gas
        permeability (59).
    rho_f, rho_r, y_r : float
        Fiber density, resin density [kg/m3] and resin mass ratio of the
        Suzuki porosity model.
    isotherm : HailwoodHorrobinIsotherm
        Replaceable sorption surface, by default ``CALIBRATED_ISOTHERM``.

    Attributes
    ----------
    porosity : float
        Void fraction, in (0, 1): the Suzuki mixture rule over fiber and
        resin volume at density ``rho_s``.  A board without pores is refused.
    perm_z : float
        Vertical gas permeability [m2] at density ``rho_s``.
    """

    rho_s: float
    kappa_anisotropy: float = 1.5
    perm_anisotropy: float = 59.0
    rho_f: float = 900.0           # kg/m3
    rho_r: float = 1100.0          # kg/m3
    y_r: float = 0.085
    isotherm: HailwoodHorrobinIsotherm = CALIBRATED_ISOTHERM

    def __post_init__(self):
        # every message starts with the name of the offending field
        for name, (valid, rule) in _BOARD_RULES.items():
            value = getattr(self, name)
            object.__setattr__(self, name, as_float(
                value, name, DomainError, valid, f"{rule}, got {value!r}"))
        if not isinstance(self.isotherm, HailwoodHorrobinIsotherm):
            raise DomainError("isotherm must be a HailwoodHorrobinIsotherm "
                              "instance")
        # the gas balances divide by the porosity
        eps = 1.0 - self.rho_s * (1.0 / self.rho_f + self.y_r / self.rho_r) / (
            1.0 + self.y_r
        )
        if eps <= 0.0:
            raise DomainError(f"rho_s {self.rho_s!r} kg/m3 leaves no pore "
                              f"space (porosity {eps:.4f})")
        object.__setattr__(self, "porosity", eps)
        # the board's vertical permeability [m2], fixed with rho_s
        object.__setattr__(self, "perm_z", vertical_permeability(self.rho_s))
