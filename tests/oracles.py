"""Arbitrary-precision oracle for every frozen [DERIVED] constant in the suite.

Run ``python3 tests/oracles.py`` to regenerate the values; the tests carry
the printed literals inline with a comment pointing back here. The script
uses only mpmath (50 significant digits, downshifted where noted) and
restates the definitions independently of the package, so agreement is a
genuine cross-check rather than a tautology.

Sections:
  1. Complex-square-root examples (nonadiabatic Rabi, mixing).
  2. Lab-frame coupling with carrier/envelope/chirp composition.
  3. Landau-Zener survival formula values.
  4. Chirped damped Gaussian scenario (the flagship grid): spot values of
     the series quantities at t=0 and of the transition probability at
     five spot times, plus overlap matrix elements at t=0 by
     high-precision quadrature of the same integrands.
  5. Shipped sech-damped, sech-chirped and gaussian-chirped-damped
     scenarios: the nonadiabatic Rabi frequency and the mixing amplitudes
     at both ends and the centre of the grid, with the exact derivative of
     omega_tilde, on the branches the package records.
"""

import mpmath as mp

mp.mp.dps = 50


def section(title):
    print(f"\n--- {title} ---")


# ---------------------------------------------------------------------------
section("nonadiabatic Rabi example: sqrt(Omega^2 + dt~^2 - 2i d_dt~)")
omega = mp.mpf(3)
dt = mp.mpc(4, "-0.2")
ddt = mp.mpc(0, "-0.02")
rad = omega**2 + dt**2 - 2j * ddt
print("radicand    =", mp.nstr(rad, 20))
print("omega_tilde =", mp.nstr(mp.sqrt(rad), 22))

section("mixing example: constant Omega = 3, dt~ = 4 - 0.2i, d_omega~ = 0")
wt = mp.sqrt(omega**2 + dt**2)
c = mp.sqrt((dt + wt) / (2 * wt))
s = mp.sqrt(-(dt - wt) / (2 * wt))
print("omega_tilde =", mp.nstr(wt, 22))
print("cos_half =", mp.nstr(c, 22))
print("sin_half =", mp.nstr(s, 22))
print("identity deviation =", mp.nstr(abs(c**2 + s**2 - 1), 5))

section("lab-frame coupling example: -exp(-25/100) cos(10 + 2.5)")
print("coupling =", mp.nstr(-mp.exp(mp.mpf(-25) / 100) * mp.cos(mp.mpf("12.5")), 22))

section("Landau-Zener survival exp(-2 pi V^2), alpha = 1")
for v in ("0.1", "0.25", "0.5"):
    v = mp.mpf(v)
    print(f"V={v} ->", mp.nstr(mp.e ** (-2 * mp.pi * v**2), 22))


# ---------------------------------------------------------------------------
# Flagship scenario: Gaussian(peak 2, t_c 0, tau 20), omega_g=0, omega_e=5,
# carrier 4.5 (delta 0.5), chirp beta 0.01 centered at 0, gamma_g 0.05,
# gamma_e 0.15, grid [-60, 60] step 0.05.
mp.mp.dps = 40

O0, TC, TAU = mp.mpf(2), mp.mpf(0), mp.mpf(20)
WG, WE, W = mp.mpf(0), mp.mpf(5), mp.mpf("4.5")
BETA = mp.mpf("0.01")
GAMMA_G, GAMMA_E = mp.mpf("0.05"), mp.mpf("0.15")
DELTA = WE - WG - W
GSUM2 = (GAMMA_G + GAMMA_E) / 2


def env_omega(t):
    return O0 * mp.exp(-(((t - TC) / TAU) ** 2))


def log_deriv(t):
    return -2 * (t - TC) / TAU**2


def dlog_deriv(t):
    return mp.mpf(-2) / TAU**2


def dphi(t):
    return BETA * (t - TC)


def delta_tilde(t):
    return DELTA - 1j * GSUM2 - (dphi(t) - 1j * log_deriv(t))


def d_delta_tilde(t):
    return -BETA + 1j * dlog_deriv(t)


def omega_tilde(t):
    # Principal branch: verified continuous on [-60, ~42] for these
    # parameters (the continuation leaves the principal sheet only near
    # t ~ 42-60), so all spot times below may use mp.sqrt directly.
    return mp.sqrt(env_omega(t) ** 2 + delta_tilde(t) ** 2 - 2j * d_delta_tilde(t))


def d_omega_tilde(t):
    h = mp.mpf(10) ** -15
    return (omega_tilde(t + h) - omega_tilde(t - h)) / (2 * h)


def mixing(t):
    wt = omega_tilde(t)
    shift = -1j * d_omega_tilde(t) / (2 * wt)
    lt1 = (delta_tilde(t) + wt) / 2 + shift
    lt2 = (delta_tilde(t) - wt) / 2 + shift
    return mp.sqrt(lt1 / wt), mp.sqrt(-lt2 / wt)  # sign_delta = +1


def omega_g_dressed(t):
    return WG + (delta_tilde(t) - omega_tilde(t)) / 2


def omega_e_dressed(t):
    lam2 = (delta_tilde(t) - omega_tilde(t)) / 2
    return WE - lam2 - 1j * GSUM2 - (dphi(t) - 1j * log_deriv(t))


section("flagship spot values at t = 0")
wt0 = omega_tilde(mp.mpf(0))
print("omega_tilde(0)   =", mp.nstr(wt0, 22))
print("d_omega_tilde(0) =", mp.nstr(d_omega_tilde(mp.mpf(0)), 22))
print("lambda2(0)       =", mp.nstr((delta_tilde(0) - wt0) / 2, 22))
c0, s0 = mixing(mp.mpf(0))
print("cos_half(0)      =", mp.nstr(c0, 22))
print("sin_half(0)      =", mp.nstr(s0, 22))
print("identity deviation:", mp.nstr(abs(c0**2 + s0**2 - 1), 5))

section("flagship transition probability at five spot times")
for t in (-30, -15, 0, 15, 30):
    ct, st = mixing(mp.mpf(t))
    brk = st * mp.conj(ct) - mp.conj(st) * ct
    p = abs(brk) ** 2 / (abs(st) ** 2 + abs(ct) ** 2) ** 2
    print(f"P({t:+d}) =", mp.nstr(p, 22))

section("flagship overlaps at t = 0 (quadrature from t0 = -60)")
T0 = mp.mpf(-60)
i_im_g = mp.quad(lambda t: mp.im(omega_g_dressed(t)), [T0, 0])
i_im_e = mp.quad(lambda t: mp.im(omega_e_dressed(t)), [T0, 0])
i_eg_re = mp.quad(lambda t: mp.re(mp.conj(omega_e_dressed(t)) - omega_g_dressed(t) - W), [T0, 0])
i_eg_im = mp.quad(lambda t: mp.im(mp.conj(omega_e_dressed(t)) - omega_g_dressed(t) - W), [T0, 0])
norm0 = abs(s0) ** 2 + abs(c0) ** 2
brk0 = s0 * mp.conj(c0) - mp.conj(s0) * c0
gg0 = norm0 * mp.exp(2 * i_im_g)
ee0 = norm0 * mp.exp(2 * i_im_e)
eg0 = brk0 * mp.exp(1j * (i_eg_re + 1j * i_eg_im))
print("gg(0) =", mp.nstr(gg0, 22))
print("ee(0) =", mp.nstr(ee0, 22))
print("eg(0) =", mp.nstr(eg0, 22))
print("P(0) via overlaps =", mp.nstr(abs(eg0) ** 2 / (gg0 * ee0), 22))


# ---------------------------------------------------------------------------
# Shipped scenarios: omega_tilde, COS and SIN at spot times, with
# d omega_tilde/dt taken exactly by mp.diff where the package uses a finite
# difference on the grid. Each root is the principal one times the sign the
# package records in its branch log at that cell (sgn(delta) = +1 in all
# three scenarios), so the oracle follows the package's branch.
mp.mp.dps = 60


def envelope_terms(kind, O0, tau, t):
    """Omega, Omega'/Omega and (Omega'/Omega)' of a pulse centred at 0."""
    x = t / tau
    if kind == "gaussian":
        return O0 * mp.exp(-x**2), -2 * x / tau, mp.mpf(-2) / tau**2
    return O0 * mp.sech(x), -mp.tanh(x) / tau, -mp.sech(x) ** 2 / tau**2


def spot_values(kind, O0, tau, delta, gamma, beta, times, signs):
    """Print omega_tilde, cos_half and sin_half at ``times``; ``signs`` maps
    each quantity to its branch-log signs there. The chirp is centred at 0:
    dphi = beta t."""
    def delta_tilde(t):
        _, logd, _ = envelope_terms(kind, O0, tau, t)
        return delta - 1j * gamma - (beta * t - 1j * logd)

    for t, s_w, s_c, s_s in zip(times, signs["omega_tilde"], signs["cos_half"],
                                signs["sin_half"]):
        def omega_tilde(u):
            omega, _, dlogd = envelope_terms(kind, O0, tau, u)
            d_delta_tilde = -beta + 1j * dlogd
            return s_w * mp.sqrt(omega**2 + delta_tilde(u) ** 2 - 2j * d_delta_tilde)

        t = mp.mpf(t)
        wt = omega_tilde(t)
        shift = -1j * mp.diff(omega_tilde, t) / (2 * wt)
        lt1 = (delta_tilde(t) + wt) / 2 + shift
        lt2 = (delta_tilde(t) - wt) / 2 + shift
        print(f"omega_tilde({int(t):+d}) =", mp.nstr(wt, 40))
        print(f"cos_half({int(t):+d})    =", mp.nstr(s_c * mp.sqrt(lt1 / wt), 40))
        print(f"sin_half({int(t):+d})    =", mp.nstr(s_s * mp.sqrt(-lt2 / wt), 40))


PRINCIPAL = {"omega_tilde": (1, 1, 1), "cos_half": (1, 1, 1), "sin_half": (1, 1, 1)}

# sech(peak 1.5, tau 15), omega_g 0, omega_e 4, carrier 3.2, no chirp,
# gamma_g 0.02, gamma_e 0.1; grid [-60, 60] step 0.0375 (cells 0, 1600, 3200).
section("sech-damped spot values at t = -60, 0, 60")
spot_values("sech", mp.mpf("1.5"), mp.mpf(15), mp.mpf(4) - mp.mpf("3.2"),
            (mp.mpf("0.02") + mp.mpf("0.1")) / 2, 0, (-60, 0, 60), PRINCIPAL)

# sech(peak 1, tau 10), omega_g 0, omega_e 5, carrier 3.8, chirp beta 0.05,
# no damping; grid [-40, 40] step 0.025 (cells 0, 1600, 3200).
section("sech-chirped spot values at t = -40, 0, 40")
spot_values("sech", mp.mpf(1), mp.mpf(10), mp.mpf(5) - mp.mpf("3.8"), 0,
            mp.mpf("0.05"), (-40, 0, 40), PRINCIPAL)

# The flagship of section 4 on its shipped grid [-60, 60] step 0.05 (cells
# 0, 1200, 2400); at t = 60 the package keeps omega_tilde and SIN on the
# negated branch.
section("gaussian-chirped-damped spot values at t = -60, 0, 60")
spot_values("gaussian", mp.mpf(2), mp.mpf(20), mp.mpf(5) - mp.mpf("4.5"),
            (mp.mpf("0.05") + mp.mpf("0.15")) / 2, mp.mpf("0.01"), (-60, 0, 60),
            {"omega_tilde": (1, 1, -1), "cos_half": (1, 1, 1), "sin_half": (1, 1, -1)})
