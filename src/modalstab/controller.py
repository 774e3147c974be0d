"""Finite-dimensional gain synthesis for the leading (unstable) modes.

From the boundary Gram matrix B of the leading normal traces and shifts
gamma_1 < ... < gamma_N, the synthesis builds M_i = diag(1/(gamma_i - mu_n)),
B_i = M_i B M_i, the gain matrix A = (sum B_i)^{-1}, and two reduced
closed-loop generator candidates:

  * s_total = sum gamma_i B_i A, whose negative is the generator obtained
    after the algebraic simplification used in the gain design;
  * a_direct = A_o - B (sum M_i A), the generator obtained by projecting the
    controlled PDE directly through Green's identity.

They satisfy a_direct = 2 A_o - s_total exactly.  The simulator integrates
the direct (physical) generator; stability validation gates on its margin
while both are reported.
"""

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .basis import ModeTable, boundary_gram, count_unstable

GAMMA_SEPARATION = 1e-8
COLLISION_NUDGE = 1e-6
MAX_CONDITION = 1e12


class SynthesisError(ValueError):
    """Gain synthesis failed (ill-conditioned or invalid shifts)."""


class ResonanceError(SynthesisError):
    """gamma too close to a shifted eigenvalue; the modal lift is singular."""


class GainScalingError(ValueError):
    """No tested scaling of the shifts reached the target margin."""


@dataclass(frozen=True)
class GainSet:
    gammas: tuple
    mu: np.ndarray            # leading eigenvalues mu_1..mu_N
    gram: np.ndarray          # B, boundary Gram of the leading traces
    m_list: np.ndarray        # (N, N): row i is the diagonal of M_{gamma_i}
    a_gain: np.ndarray        # A = (sum B_i)^{-1}
    s_total: np.ndarray       # sum gamma_i B_i A
    a_o: np.ndarray           # diag(mu)
    cond_sum_b: float
    modes: ModeTable          # the table the synthesis was built on

    @property
    def n_unstable(self) -> int:
        return len(self.gammas)

    @functools.cached_property
    def beta(self) -> np.ndarray:
        """n_sim x N extended boundary Gram, built once on first use."""
        return boundary_gram(self.modes, self.modes[:self.n_unstable])

    @property
    def a_direct(self) -> np.ndarray:
        """A_o - B sum(M_i A)."""
        return self.a_o - self.gram @ control_map(self)


@dataclass(frozen=True)
class StabilityReport:
    margin_s: float           # max real part of eig(-s_total)
    margin_direct: float      # max real part of eig(a_direct)
    hurwitz_s: bool
    hurwitz_direct: bool
    c1_hat: float             # empirical transient constant of the direct loop
    sigma_hat: float          # decay rate used for c1_hat (0.95 * |margin|)


def hurwitz_margin(matrix) -> float:
    """Largest real part over the eigenvalues (dense solve); < 0 is Hurwitz."""
    matrix = np.asarray(matrix, dtype=float)
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix has non-finite entries")
    return float(np.max(np.linalg.eigvals(matrix).real))


def shift_denominators(gammas, modes) -> np.ndarray:
    """The lift's denominators, gamma - mu_n on the leading modes and gamma
    + mu_n on the rest, with the table axis last; one within 1e-8 of zero
    raises ResonanceError, naming the first such shift and mode."""
    mu = modes.mu.copy()
    mu[count_unstable(modes):] *= -1.0
    denom = gammas[..., None] - mu
    hits = np.argwhere(np.abs(denom) <= GAMMA_SEPARATION)
    if hits.size:
        *shift, j = hits[0]
        raise ResonanceError(
            f"gamma={float(gammas[tuple(shift)])} resonates with mode "
            f"n={j + 1} (mu={modes.mu[j]})")
    return denom


def synthesize(modes, gammas) -> GainSet:
    """Build all gain-set matrices over the leading modes of the table;
    two of them on one angular key (collinear traces) raise SynthesisError."""
    gammas = tuple(float(g) for g in gammas)
    n = len(gammas)
    if n < 1:
        raise SynthesisError("need at least one gamma")
    n_unstable = count_unstable(modes)
    codes = modes.code[:n_unstable].tolist()
    for j, i in enumerate(map(codes.index, codes)):
        if i < j:
            second = modes.second[j] if modes.shape == "ball" \
                else ("cos", "sin")[modes.second[j]]
            raise SynthesisError(
                f"leading modes n={modes.n[i]} and n={modes.n[j]} share the "
                f"angular key ({modes.order[j]}, {second}), so their normal "
                "traces are collinear and B is singular")
    if n != n_unstable:
        raise SynthesisError(
            f"{n} gammas supplied but the mode table has {n_unstable} "
            "nonnegative eigenvalues")
    if any(g2 <= g1 for g1, g2 in zip(gammas, gammas[1:])):
        raise SynthesisError("gammas must be strictly increasing")
    head = modes[:n]
    m_list = 1.0 / shift_denominators(np.array(gammas), modes)[:, :n]
    gram = boundary_gram(head, head)
    b_stack = m_list[:, :, None] * m_list[:, None, :] * gram
    sum_b = np.sum(b_stack, axis=0)
    cond = float(np.linalg.cond(sum_b))
    if not np.isfinite(cond) or cond > MAX_CONDITION:
        raise SynthesisError(
            f"sum of B_i numerically singular (cond={cond:.3e}); "
            "choose larger or better separated gammas")
    a_gain = np.linalg.solve(sum_b, np.eye(n))
    s_total = np.sum(np.reshape(gammas, (n, 1, 1)) * (b_stack @ a_gain),
                     axis=0)
    return GainSet(gammas=gammas, mu=head.mu, gram=gram, m_list=m_list,
                   a_gain=a_gain, s_total=s_total, a_o=np.diag(head.mu),
                   cond_sum_b=cond, modes=modes)


def control_map(gain_set: GainSet) -> np.ndarray:
    """sum_i M_i A: maps the leading coefficient vector U to the trace-family
    coefficients of the boundary input."""
    return np.sum(gain_set.m_list[:, :, None] * gain_set.a_gain, axis=0)


def propagator_norms(generator, dt: float, samples: int) -> np.ndarray:
    """2-norms of exp(G k dt) for k = 0 .. samples - 1.

    The propagators are the powers of the one-step map exp(G dt): the lead
    block of the simulator's step map on the split of G whose columns are
    all coupled.
    """
    # imported here: the simulator imports this module at load time
    from .simulator import CoupledSplit

    d = np.diag(generator).copy()
    one_step = CoupledSplit(d=d, K=generator - np.diag(d)).step_map(dt)[0]
    props = np.empty((samples,) + one_step.shape)
    props[0] = np.eye(d.size)
    for k in range(1, samples):
        np.matmul(one_step, props[k - 1], out=props[k])
    return np.linalg.norm(props, 2, axis=(1, 2))


def validate_gains(gain_set: GainSet) -> StabilityReport:
    """Hurwitz margins of both candidates plus the empirical transient
    constant sup_t ||exp(G t)|| e^{sigma_hat t} of the direct generator
    over 81 equispaced times in [0, 4]."""
    margin_s = hurwitz_margin(-gain_set.s_total)
    margin_direct = hurwitz_margin(gain_set.a_direct)
    sigma_hat = -margin_direct * 0.95
    times = np.linspace(0.0, 4.0, 81)
    norms = propagator_norms(gain_set.a_direct, times[1], times.size)
    c1 = max([1.0] + [float(norm * math.exp(sigma_hat * t))
                      for norm, t in zip(norms, times)])
    return StabilityReport(margin_s=margin_s, margin_direct=margin_direct,
                           hurwitz_s=margin_s < 0.0,
                           hurwitz_direct=margin_direct < 0.0,
                           c1_hat=c1, sigma_hat=sigma_hat)


def nudge_gammas(gammas, mu) -> tuple:
    """Shift any gamma colliding with a leading eigenvalue by +1e-6; with
    no leading eigenvalues nothing collides."""
    out = []
    for g in gammas:
        g = float(g)
        while np.min(np.abs(g - mu), initial=np.inf) <= GAMMA_SEPARATION:
            g += COLLISION_NUDGE
        out.append(g)
    return tuple(out)


def scaled_gain_set(modes, gammas0, target_margin: float) -> GainSet:
    """Gain set at the smallest power-of-two scaling of gammas0 whose direct
    margin meets target_margin; colliding shifts are nudged, never dropped.
    When no scaling synthesizes at all, the first SynthesisError is raised,
    since it names the cause."""
    if not target_margin < 0:
        raise ValueError("target_margin must be negative")
    mu = modes.mu[:len(tuple(gammas0))]
    margins = []
    first_error = None
    for p in range(11):
        scale = 2.0**p
        gammas = nudge_gammas([scale * g for g in gammas0], mu)
        try:
            gain_set = synthesize(modes, gammas)
        except SynthesisError as exc:
            first_error = first_error or exc
            margins.append((scale, math.nan))
            continue
        margin = hurwitz_margin(gain_set.a_direct)
        margins.append((scale, margin))
        if margin <= target_margin:
            return gain_set
    if all(math.isnan(margin) for _, margin in margins):
        raise first_error
    raise GainScalingError(
        f"no scaling up to 2^10 reached margin {target_margin}; "
        f"observed margins {margins}")


def auto_scale_gains(modes, gammas0, target_margin: float) -> tuple:
    """The shifts of scaled_gain_set."""
    return scaled_gain_set(modes, gammas0, target_margin).gammas


def _matrix_strings(matrix) -> list:
    return [[format(v, ".17g") for v in row] for row in np.asarray(matrix)]


def gain_set_to_json(gain_set: GainSet, report: StabilityReport) -> str:
    """Serialize gammas, B, A, margins, and conditioning as JSON with
    17-significant-digit decimal strings, row-major matrices."""
    payload = {
        "gammas": [format(g, ".17g") for g in gain_set.gammas],
        "mu": [format(v, ".17g") for v in gain_set.mu],
        "B": _matrix_strings(gain_set.gram),
        "A": _matrix_strings(gain_set.a_gain),
        "margin_direct": format(report.margin_direct, ".17g"),
        "margin_reduced_s": format(report.margin_s, ".17g"),
        "hurwitz_direct": report.hurwitz_direct,
        "hurwitz_reduced_s": report.hurwitz_s,
        "c1_hat": format(report.c1_hat, ".17g"),
        "sigma_hat": format(report.sigma_hat, ".17g"),
        "cond_sum_b": format(gain_set.cond_sum_b, ".17g"),
    }
    return json.dumps(payload, indent=2)
