"""Finite-dimensional gain synthesis for the leading (unstable) modes.

From the boundary Gram matrix B of the leading normal traces and shifts
gamma_1 < ... < gamma_N, the synthesis builds M_i = diag(1/(gamma_i - mu_n)),
B_i = M_i B M_i, the gain matrix A = (sum B_i)^{-1}, and two reduced
closed-loop generator candidates:

  * S = sum gamma_i B_i A, whose negative is the generator obtained after
    the algebraic simplification used in the gain design;
  * A_direct = A_o - B (sum M_i A), the generator obtained by projecting the
    controlled PDE directly through Green's identity.

They satisfy A_direct = 2 A_o - S exactly.  The simulator integrates the
direct (physical) generator; stability validation gates on its margin
while both are reported.

All of these matrices are diagonal: B pairs only equal angular keys
(boundary_gram), and synthesis rejects two leading modes on one key.  So a
GainSet holds each as its diagonal, an N-vector: products and inverses are
elementwise, and a margin is the largest entry.
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
    a_o: np.ndarray           # leading eigenvalues mu_1..mu_N, diagonal of A_o
    gram: np.ndarray          # diagonal of B, the Gram of the leading traces
    m_list: np.ndarray        # (N, N): row i is the diagonal of M_{gamma_i}
    a_gain: np.ndarray        # diagonal of A = (sum B_i)^{-1}
    s_total: np.ndarray       # diagonal of S = sum gamma_i B_i A
    cond_sum_b: float
    modes: ModeTable          # the table the synthesis was built on

    @property
    def n_unstable(self) -> int:
        return len(self.gammas)

    @functools.cached_property
    def beta(self) -> np.ndarray:
        """n_sim x N extended boundary Gram, built once on first use."""
        return boundary_gram(self.modes, self.modes[:self.n_unstable])

    @functools.cached_property
    def coupled_rows(self) -> np.ndarray:
        """Table rows where beta is nonzero, ascending (the N leading rows
        first): the only rows the feedback and every lift reach."""
        return np.flatnonzero(self.beta.any(axis=1))

    @property
    def a_direct(self) -> np.ndarray:
        """Diagonal of A_o - B sum(M_i A)."""
        return self.a_o - self.gram * control_map(self)

    @functools.cached_property
    def margin_direct(self) -> float:
        """Largest entry of a_direct (< 0 is Hurwitz), computed once."""
        return float(np.max(self.a_direct))


@dataclass(frozen=True)
class StabilityReport:
    margin_s: float           # largest entry of -S (its diagonal)
    margin_direct: float      # largest entry of A_direct (its diagonal)
    hurwitz_s: bool
    hurwitz_direct: bool
    c1_hat: float             # transient constant of the direct loop
    sigma_hat: float          # decay rate used for c1_hat (0.95 * |margin|)


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
    """The gain set (diagonals) over the leading modes of the table; two of
    them on one angular key (collinear traces) raise SynthesisError."""
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
    gram = np.diag(boundary_gram(head, head))
    b_list = m_list**2 * gram            # row i: the diagonal of B_i
    sum_b = np.sum(b_list, axis=0)
    cond = float(np.max(np.abs(sum_b)) / np.min(np.abs(sum_b)))
    if not np.isfinite(cond) or cond > MAX_CONDITION:
        raise SynthesisError(
            f"sum of B_i numerically singular (cond={cond:.3e}); "
            "choose larger or better separated gammas")
    a_gain = 1.0 / sum_b
    s_total = np.sum(np.reshape(gammas, (n, 1)) * (b_list * a_gain), axis=0)
    return GainSet(gammas=gammas, a_o=head.mu, gram=gram, m_list=m_list,
                   a_gain=a_gain, s_total=s_total, cond_sum_b=cond,
                   modes=modes)


def control_map(gain_set: GainSet) -> np.ndarray:
    """Diagonal of sum_i M_i A, the map from the leading coefficient vector
    U to the trace-family coefficients of the boundary input."""
    return np.sum(gain_set.m_list * gain_set.a_gain, axis=0)


def validate_gains(gain_set: GainSet) -> StabilityReport:
    """Hurwitz margins (largest diagonal entries) of -S and A_direct, and
    c1_hat = sup ||exp(A_direct t)||_2 e^{sigma_hat t} over 81 equispaced
    times in [0, 4]; A_direct is diagonal, so the sup is at t = 0 or 4."""
    margin_s = float(np.max(-gain_set.s_total))
    margin_direct = gain_set.margin_direct
    sigma_hat = -margin_direct * 0.95
    c1 = max(1.0, math.exp((margin_direct + sigma_hat) * 4.0))
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
    return _doubling_search(modes, gammas0, target_margin, None)


def _doubling_search(modes, gammas0, target_margin, unscaled):
    """scaled_gain_set; `unscaled`, if given, is its scale-1 gain set."""
    if not target_margin < 0:
        raise ValueError("target_margin must be negative")
    mu = modes.mu[:len(tuple(gammas0))]
    margins = []
    first_error = None
    for p in range(11):
        scale = 2.0**p
        gammas = nudge_gammas([scale * g for g in gammas0], mu)
        try:
            gain_set = (synthesize(modes, gammas) if p or unscaled is None
                        else unscaled)
        except SynthesisError as exc:
            first_error = first_error or exc
            margins.append((scale, math.nan))
            continue
        margins.append((scale, gain_set.margin_direct))
        if gain_set.margin_direct <= target_margin:
            return gain_set
    if all(math.isnan(margin) for _, margin in margins):
        raise first_error
    raise GainScalingError(
        f"no scaling up to 2^10 reached margin {target_margin}; "
        f"observed margins {margins}")


def auto_scale_gains(modes, gammas0, target_margin: float) -> tuple:
    """The shifts of scaled_gain_set."""
    return scaled_gain_set(modes, gammas0, target_margin).gammas


def _diagonal_strings(diagonal) -> list:
    return [[format(v, ".17g") for v in row] for row in np.diag(diagonal)]


def gain_set_to_json(gain_set: GainSet, report: StabilityReport) -> str:
    """Serialize gammas, B, A, margins, and conditioning as JSON with
    17-significant-digit decimal strings, B and A as diagonal matrices."""
    payload = {
        "gammas": [format(g, ".17g") for g in gain_set.gammas],
        "mu": [format(v, ".17g") for v in gain_set.a_o],
        "B": _diagonal_strings(gain_set.gram),
        "A": _diagonal_strings(gain_set.a_gain),
        "margin_direct": format(report.margin_direct, ".17g"),
        "margin_reduced_s": format(report.margin_s, ".17g"),
        "hurwitz_direct": report.hurwitz_direct,
        "hurwitz_reduced_s": report.hurwitz_s,
        "c1_hat": format(report.c1_hat, ".17g"),
        "sigma_hat": format(report.sigma_hat, ".17g"),
        "cond_sum_b": format(gain_set.cond_sum_b, ".17g"),
    }
    return json.dumps(payload, indent=2)
