# -*- coding: utf-8 -*-
"""
===============================
Constitutive property sweeps
===============================

Evaluates every constitutive correlation of the board/gas system over
its working range and prints a few anchor values; with matplotlib
installed it also saves ``property_correlations.png``.
"""

import numpy as np

from hotpress.properties import (
    CALIBRATED_ISOTHERM as isotherm,
    KELVIN,
    gas_viscosity,
    latent_heat,
    saturated_vapor_pressure,
    sorption_heat,
    specific_heat,
    steam_air_diffusivity,
    thermal_conductivity_z,
    vapor_density,
    vertical_permeability,
)

################################################################################
# saturation pressure and vapor density along the press temperature range

t_c = np.linspace(20.0, 180.0, 161)
psat = saturated_vapor_pressure(t_c)
print("saturation pressure:")
for t in (30.0, 100.0, 160.0):
    print(f"  P_sat({t:5.1f} degC) = {saturated_vapor_pressure(t):10.1f} N/m2")
print(f"  vapor density at (P_sat(100 degC), HR 100%) = "
      f"{vapor_density(saturated_vapor_pressure(100.0), 100.0):.4f} kg/m3")

################################################################################
# sorption equilibrium: moisture content against relative humidity

hr = np.linspace(1.0, 99.0, 99)
emc_30 = isotherm.emc(30.0, hr)
emc_110 = isotherm.emc(110.0, hr)
print("\nsorption equilibrium (moisture content, %):")
print(f"  at 30 degC, HR 65%: {isotherm.emc(30.0, 65.0):6.2f}")
print(f"  at 110 degC, HR 65%: {isotherm.emc(110.0, 65.0):6.2f}")
print(f"  inverse check: HR(30 degC, H=11%) = "
      f"{isotherm.hr_from_emc(30.0, 11.0)[0]:.1f}%")

################################################################################
# transport: conductivity, viscosity, diffusivity, permeability

print("\ntransport properties:")
print(f"  kappa_z(60 degC, H=8%, rho_s=586) = "
      f"{thermal_conductivity_z(60.0, 8.0, 586.0):.4f} W/(m K)")
print(f"  gas viscosity at 25/150 degC = {gas_viscosity(25.0):.3e} / "
      f"{gas_viscosity(150.0):.3e} kg/(m s)")
print(f"  steam-air diffusivity at (1 atm, 60 degC) = "
      f"{steam_air_diffusivity(101325.0, 60.0 + KELVIN):.3e} m2/s")

rho_grid = np.linspace(400.0, 800.0, 81)
perm_grid = vertical_permeability(rho_grid)
print("  vertical gas permeability (m2):")
for rho in (450.0, 586.0, 750.0):
    print(f"    K({rho:5.1f} kg/m3) = {vertical_permeability(rho):.3e}")

################################################################################
# energy: latent/sorption heat and specific heat

print("\nenergy:")
print(f"  latent heat at 100 degC = {latent_heat(100.0):.3e} J/kg")
print(f"  sorption heat at H=5% = {sorption_heat(5.0):.3e} J/kg")
print(f"  specific heat at (0 degC, dry) = "
      f"{specific_heat(KELVIN, 0.0):.1f} J/(kg K)")
print(f"  specific heat at (100 degC, H=11%) = "
      f"{specific_heat(100.0 + KELVIN, 0.11):.1f} J/(kg K)")

################################################################################
# optional figure

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("\nmatplotlib not installed; skipping the figure")
else:
    fig, axes = plt.subplots(2, 2, figsize=(9, 7))
    axes[0, 0].semilogy(t_c, psat)
    axes[0, 0].set_xlabel("T [degC]")
    axes[0, 0].set_ylabel("P_sat [N/m2]")
    axes[0, 0].set_title("saturation pressure")

    axes[0, 1].plot(hr, emc_30, label="30 degC")
    axes[0, 1].plot(hr, emc_110, label="110 degC")
    axes[0, 1].set_xlabel("relative humidity [%]")
    axes[0, 1].set_ylabel("equilibrium moisture [%]")
    axes[0, 1].set_title("sorption isotherm")
    axes[0, 1].legend()

    axes[1, 0].semilogy(rho_grid, perm_grid)
    axes[1, 0].set_xlabel("dry density [kg/m3]")
    axes[1, 0].set_ylabel("K [m2]")
    axes[1, 0].set_title("vertical gas permeability")

    axes[1, 1].plot(t_c, gas_viscosity(t_c) * 1e5)
    axes[1, 1].set_xlabel("T [degC]")
    axes[1, 1].set_ylabel("mu [1e-5 kg/(m s)]")
    axes[1, 1].set_title("gas viscosity")

    fig.tight_layout()
    fig.savefig("property_correlations.png", dpi=120)
    print("\nsaved property_correlations.png")
