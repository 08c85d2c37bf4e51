"""Constrained maximization of the nearest-neighbor coupling J.

Two-stage exhaustive grid search over trap frequencies and field gradient,
subject to a stable equilibrium and a ceiling on the effective Lamb-Dicke
parameter (default 0.05). J grows monotonically with the gradient at fixed
trap frequencies, so each constrained optimum sits at the largest feasible
gradient; the grids are still swept exhaustively. One driver, `_search`,
serves both layouts: a micro-trap array at spacing d, and the linear trap as
the d = 0 case with its one frequency as the only point of both frequency
grids. Each stage is one `_sweep_stage` over (W1, W2, gradient) arrays: one
elementwise Newton solve gives the outer displacement of every W1 (it
depends on neither W2 nor the gradient), the closed-form mode frequencies,
half-column values and [K^-1]_12 and [K^-1]_13 of every (W1, W2) chain
follow elementwise, and so do J and eps_max at every gradient, with no
eigensolver and no matrix product. A stage builds no mode matrix: it reads
each mode's largest |D| from the half-column values `trap._chain_modes`
returns. The stage reads the reported J, J13, eps_max, delta and h of its
winner out of these arrays, so no chain is solved again: each value is the
one `evaluate_candidate` gives at that point, bit for bit. The Lamb-Dicke
bound is built one mode at a time, so no array of a stage is larger than
one (W1, W2, gradient) grid. J and eps_max do not depend on the field
offset b0 or on eta; candidates take both from `FieldConfig`'s defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import DEFAULT_CONSTANTS, TWO_PI, PhysicalConstants, _finite_real, _integer
from .couplings import (FIELD_RANGE, CouplingSet, FieldConfig, _ising, _lamb_dicke_scale,
                        frequency_gradient, solve_chain)
from .trap import (EquilibriumSolution, NormalModes, TrapLayout, UnstableModesError,
                   _chain_modes, _outer_displacement, linear_frequency_for_spacing)


@dataclass(frozen=True)
class SearchSpace:
    """Grids (lo, hi, count) for W1 (= W3), W2 (rad/s) and the gradient (T/m).

    Linear-trap searches use only the gradient grid (W follows from the
    target spacing). Grid stages: the full grid first, then an equally
    sized grid spanning +- one coarse step around the stage-1 optimum.
    """

    w1: tuple[float, float, int] = (TWO_PI * 0.3e6, TWO_PI * 4.0e6, 16)
    w2: tuple[float, float, int] = (TWO_PI * 0.05e6, TWO_PI * 3.0e6, 16)
    gradient: tuple[float, float, int] = (50.0, 1500.0, 30)
    eps_ceiling: float = 0.05

    def __post_init__(self) -> None:
        for name in ("w1", "w2", "gradient"):
            lo, hi, count = getattr(self, name)
            count = _integer(count) or 0  # 0 for a non-integer: refused below
            if not (_finite_real(lo) and _finite_real(hi) and 0.0 < lo <= hi) or count < 1:
                raise ValueError(f"search grid {name} must be finite and positive, with "
                                 f"an integer count >= 1, got {getattr(self, name)!r}")
            object.__setattr__(self, name, (float(lo), float(hi), count))
        top = FIELD_RANGE["gradient"][1]
        if self.gradient[1] > top:
            raise ValueError(f"search grid gradient must stay within FieldConfig's range, "
                             f"at most {top:g} T/m, got {self.gradient!r}")
        if not (_finite_real(self.eps_ceiling) and 0.0 < self.eps_ceiling < 1.0):
            raise ValueError("eps ceiling must lie in (0, 1)")


@dataclass(frozen=True)
class CandidateParams:
    """One parameter point: the `TrapLayout` (d, w1, w2), d = 0 for the linear
    trap, and the field gradient (T/m)."""

    d: float
    w1: float
    w2: float
    gradient: float


@dataclass(frozen=True)
class CandidateEvaluation:
    """Full pipeline output at one parameter point (or an infeasibility marker)."""

    params: CandidateParams
    feasible: bool
    reason: str = ""
    equilibrium: EquilibriumSolution | None = None
    modes: NormalModes | None = None
    couplings: CouplingSet | None = None


@dataclass(frozen=True)
class SearchResult:
    params: CandidateParams | None
    J: float
    J13: float
    eps_max: float
    delta: float
    h: float
    evaluations: int
    feasible: bool
    trace: tuple = ()


def evaluate_candidate(params: CandidateParams,
                       constants: PhysicalConstants = DEFAULT_CONSTANTS,
                       ) -> CandidateEvaluation:
    """Run trap -> equilibrium -> modes -> couplings for one parameter point,
    in a `FieldConfig` of the point's gradient.

    Unstable mode spectra mark the point infeasible instead of raising.
    """
    try:
        chain = solve_chain(TrapLayout(params.d, params.w1, params.w2, constants),
                            FieldConfig(params.gradient))
    except UnstableModesError as exc:
        return CandidateEvaluation(params, False, reason=str(exc))
    return CandidateEvaluation(params, True, equilibrium=chain.equilibrium,
                               modes=chain.modes, couplings=chain.couplings)


def _refined(grid: tuple[float, float, int], best: float) -> tuple[float, float, int]:
    lo, hi, count = grid
    step = (hi - lo) / max(count - 1, 1)
    return (max(lo, best - step), min(hi, best + step), count)


def _rank(J, eps_max, gradient):
    """The search's order of feasible points, best first: the largest J, then
    the least eps_max, then the least gradient. ``min`` over it keeps the first
    of equal points: in (W1, W2, gradient) order, or the first stage's."""
    return -J, eps_max, gradient


def _sweep_stage(d: float, space: SearchSpace, constants: PhysicalConstants,
                 trace: list | None):
    """Evaluate one stage: the chain of spacing ``d`` (0 in a linear trap) at
    every (W1, W2, gradient) of ``space``'s grids, as arrays: each grid is
    ``np.linspace(lo, hi, count)``, which is [lo] for a count of 1.

    Every value comes from the helpers `solve_equilibrium`, `normal_modes`
    and `compute_couplings` use, elementwise, so it is bit-identical to
    `evaluate_candidate` at that point; h = d + delta is `solve_equilibrium`'s
    z[1] - z[0] exactly. Each mode's largest |D_il| comes straight from the
    closed-form half columns, with no mode matrix: max(centre/sqrt2, side)
    and max(side/sqrt2, centre) for the symmetric modes, 1/sqrt2 for the
    antisymmetric one; each equals the largest |entry| of that column of
    `normal_modes`' D. Returns None when no point is feasible, else the
    stage's winner by `_rank` as a `SearchResult` whose evaluations (the
    stage's) and empty trace `_search` replaces with the whole search's.
    ``trace`` entries are (params, J, eps_max, feasible), in (W1, W2, gradient) order;
    an unstable chain yields one rejection entry (params at the grid's
    lowest gradient, nan, nan, False) per gradient.
    """
    w1s, w2s, grads = (np.linspace(*grid) for grid in (space.w1, space.w2, space.gradient))
    delta, _steps = _outer_displacement(w1s, d, constants)
    evals, centre, side, _wide, kinv12, kinv13 = _chain_modes(
        w1s[:, np.newaxis], w2s, (d + delta)[:, np.newaxis], constants)
    stable = np.all(evals > 0.0, axis=-1)  # normal_modes' stability check
    evals = np.where(stable[..., np.newaxis], evals, np.nan)
    dwdz = frequency_gradient(grads, constants)
    J = _ising(kinv12[..., np.newaxis], dwdz, constants)
    # mode axis first: each mode's bound is one (W1, W2, gradient) array, and
    # the max over modes a max of whole arrays
    nu = np.sqrt(evals.transpose(2, 0, 1) / constants.mass)[..., np.newaxis]
    # each mode's largest |D_il|, from the non-negative half-column values:
    # the outer ions' entries are equal, and the antisymmetric mode's is
    # 1/sqrt2 at every point, so its bound is one scalar product
    centre, side, r = centre[..., np.newaxis], side[..., np.newaxis], math.sqrt(0.5)
    top = (np.maximum(r * centre, side), np.maximum(r * side, centre), r)
    m1, m2, m3 = (top[l] * _lamb_dicke_scale(nu[l], dwdz, constants) for l in range(3))
    eps_max = np.maximum(np.maximum(m1, m2), m3)  # exact, and NaN-propagating as np.max
    feasible = eps_max < space.eps_ceiling
    if trace is not None:
        w1_list, w2_list, grad_list = w1s.tolist(), w2s.tolist(), grads.tolist()
        for i, j in np.ndindex(stable.shape):
            if not stable[i, j]:
                rejected = CandidateParams(d, w1_list[i], w2_list[j], grad_list[0])
                trace.extend([(rejected, np.nan, np.nan, False)] * len(grad_list))
                continue
            trace.extend(zip((CandidateParams(d, w1_list[i], w2_list[j], grad)
                              for grad in grad_list),
                             J[i, j].tolist(), eps_max[i, j].tolist(),
                             feasible[i, j].tolist()))
    top = np.flatnonzero(feasible & (J == np.max(J, where=feasible, initial=-np.inf)))
    if not top.size:
        return None
    i, j, k = np.unravel_index(min(top.tolist(), key=lambda n: _rank(
        J.flat[n], eps_max.flat[n], grads[n % grads.size])), J.shape)
    return SearchResult(CandidateParams(d, float(w1s[i]), float(w2s[j]), float(grads[k])),
                        float(J[i, j, k]), float(_ising(kinv13[i, j], dwdz[k], constants)),
                        float(eps_max[i, j, k]), float(delta[i]), float(d + delta[i]),
                        J.size, True)


def _search(d: float, space: SearchSpace, constants: PhysicalConstants,
            collect_trace: bool) -> SearchResult:
    """The two-stage search of the chain of spacing ``d`` (0 in a linear
    trap): the whole space, then each grid refined around the first stage's
    best. The best of both stages wins; a tie keeps the first stage's."""
    for corner in (0, 1):  # TrapLayout's bounds hold on the grids if at their ends
        TrapLayout(d, space.w1[corner], space.w2[corner], constants)
    trace: list | None = [] if collect_trace else None
    best = _sweep_stage(d, space, constants, trace)
    evaluations = space.w1[2] * space.w2[2] * space.gradient[2]
    if best is None:
        return SearchResult(None, 0.0, 0.0, np.inf, np.nan, np.nan, evaluations, False,
                            tuple(trace or ()))
    p = best.params
    refined = replace(space, w1=_refined(space.w1, p.w1), w2=_refined(space.w2, p.w2),
                      gradient=_refined(space.gradient, p.gradient))
    bests = (best, _sweep_stage(d, refined, constants, trace))
    evaluations += refined.w1[2] * refined.w2[2] * refined.gradient[2]
    best = min(filter(None, bests), key=lambda b: _rank(b.J, b.eps_max, b.params.gradient))
    return replace(best, evaluations=evaluations, trace=tuple(trace or ()))


#: the space both searches take by default; a `SearchSpace` is immutable
_DEFAULT_SPACE = SearchSpace()


def maximize_J_multitrap(d: float, space: SearchSpace | None = None,
                         constants: PhysicalConstants = DEFAULT_CONSTANTS,
                         collect_trace: bool = False) -> SearchResult:
    """Largest J over (W1, W2, gradient) at trap spacing d, under the eps ceiling.

    Exhaustive two-stage grid search; ties go to smaller eps_max, then to
    smaller gradient. Iteration order is fixed, so identical spaces yield
    identical results.
    """
    if not (_finite_real(d) and d > 0.0):
        raise ValueError(f"trap spacing d must be finite and positive, got {d!r}")
    return _search(float(d), space or _DEFAULT_SPACE, constants, collect_trace)


def maximize_J_linear(h_target: float, space: SearchSpace | None = None,
                      constants: PhysicalConstants = DEFAULT_CONSTANTS,
                      collect_trace: bool = False) -> SearchResult:
    """Largest J in a linear trap whose spacing equals h_target.

    The trap frequency follows from the spacing in closed form, so this is
    the search at d = 0 with that one frequency on both frequency axes:
    only the gradient is searched (two stages), under the eps ceiling.
    """
    w = linear_frequency_for_spacing(h_target, constants)
    space = replace(space or _DEFAULT_SPACE, w1=(w, w, 1), w2=(w, w, 1))
    return _search(0.0, space, constants, collect_trace)
