"""Constrained maximization of the nearest-neighbor coupling J.

Two-stage exhaustive grid search over trap frequencies and field gradient,
subject to a stable equilibrium and a ceiling on the effective Lamb-Dicke
parameter (default 0.05). J grows monotonically with the gradient at fixed
trap frequencies, so each constrained optimum sits at the largest feasible
gradient; the grids are still swept exhaustively, with the equilibrium and
mode analysis solved once per trap-frequency pair (they do not depend on the
gradient, and the equilibrium does not depend on W2 either). Both searches
sweep the gradient axis through `_sweep_gradient`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .constants import TWO_PI, PhysicalConstants, DEFAULT_CONSTANTS
from .couplings import CouplingSet, FieldConfig, compute_couplings, solve_chain
from .trap import (EquilibriumSolution, NormalModes, TrapLayout, UnstableModesError,
                   linear_frequency_for_spacing)


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
    b0: float = 1.0
    eta: float = 1e-6

    def __post_init__(self) -> None:
        for name in ("w1", "w2", "gradient"):
            lo, hi, count = getattr(self, name)
            if not (0.0 < lo <= hi) or count < 1:
                raise ValueError(f"search grid {name} must be positive with count >= 1")
        if not 0.0 < self.eps_ceiling < 1.0:
            raise ValueError("eps ceiling must lie in (0, 1)")


@dataclass(frozen=True)
class CandidateParams:
    """One parameter point: micro-trap (d, w1, w2) or linear (w), plus gradient."""

    mode: str
    gradient: float
    d: float | None = None
    w1: float | None = None
    w2: float | None = None
    w: float | None = None


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


def _layout(params: CandidateParams, constants: PhysicalConstants) -> TrapLayout:
    if params.mode == "multi":
        return TrapLayout.multi_trap(params.d, params.w1, params.w2, constants)
    return TrapLayout.linear(params.w, constants)


def evaluate_candidate(params: CandidateParams,
                       constants: PhysicalConstants = DEFAULT_CONSTANTS,
                       b0: float = 1.0, eta: float = 1e-6) -> CandidateEvaluation:
    """Run trap -> equilibrium -> modes -> couplings for one parameter point.

    Unstable mode spectra mark the point infeasible instead of raising.
    """
    field = FieldConfig(gradient=params.gradient, b0=b0, eta=eta)
    try:
        chain = solve_chain(_layout(params, constants), field)
    except UnstableModesError as exc:
        return CandidateEvaluation(params, False, reason=str(exc))
    return CandidateEvaluation(params, True, equilibrium=chain.equilibrium,
                               modes=chain.modes, couplings=chain.couplings)


def _grid(grid: tuple[float, float, int]) -> np.ndarray:
    lo, hi, count = grid
    return np.linspace(lo, hi, count) if count > 1 else np.array([lo])


def _refined(grid: tuple[float, float, int], best: float) -> tuple[float, float, int]:
    lo, hi, count = grid
    step = (hi - lo) / max(count - 1, 1)
    return (max(lo, best - step), min(hi, best + step), count)


def _better(j, eps, grad, best) -> bool:
    if best is None:
        return True
    bj, beps, bgrad = best
    if j != bj:
        return j > bj
    if eps != beps:
        return eps < beps
    return grad < bgrad


def _result_from(best_eval: CandidateEvaluation | None, evaluations: int,
                 trace: tuple) -> SearchResult:
    if best_eval is None:
        return SearchResult(None, 0.0, 0.0, np.inf, np.nan, np.nan,
                            evaluations, False, trace)
    c, eq = best_eval.couplings, best_eval.equilibrium
    return SearchResult(best_eval.params, c.J, c.J13, c.eps_max, eq.delta, eq.h,
                        evaluations, True, trace)


def _sweep_gradient(base: CandidateEvaluation, grid: tuple[float, float, int],
                    space: SearchSpace, constants: PhysicalConstants, best,
                    trace: list | None):
    """Evaluate every gradient of ``grid`` on the solved chain of ``base``.

    ``best`` is None or ((J, eps_max, gradient), evaluation); the updated
    best is returned. An infeasible base yields one rejection entry per grid
    point. ``trace`` entries are (params, J, eps_max, feasible).
    """
    if not base.feasible:
        if trace is not None:
            trace.extend([(base.params, np.nan, np.nan, False)] * grid[2])
        return best
    for grad in _grid(grid):
        grad = float(grad)
        field = FieldConfig(gradient=grad, b0=space.b0, eta=space.eta)
        couplings = compute_couplings(base.modes, field, base.equilibrium, constants)
        feasible = couplings.eps_max < space.eps_ceiling
        better = feasible and _better(couplings.J, couplings.eps_max, grad,
                                      best and best[0])
        if trace is None and not better:
            continue
        # params only for kept entries: a table1 sweep makes 15,360 evaluations
        params = replace(base.params, gradient=grad)
        if trace is not None:
            trace.append((params, couplings.J, couplings.eps_max, feasible))
        if better:
            best = ((couplings.J, couplings.eps_max, grad),
                    CandidateEvaluation(params, True, equilibrium=base.equilibrium,
                                        modes=base.modes, couplings=couplings))
    return best


def maximize_J_multitrap(d: float, space: SearchSpace | None = None,
                         constants: PhysicalConstants = DEFAULT_CONSTANTS,
                         collect_trace: bool = False) -> SearchResult:
    """Largest J over (W1, W2, gradient) at trap spacing d, under the eps ceiling.

    Exhaustive two-stage grid search; ties go to smaller eps_max, then to
    smaller gradient. Iteration order is fixed, so identical spaces yield
    identical results.
    """
    if d <= 0.0:
        raise ValueError("trap spacing d must be positive")
    space = space or SearchSpace()
    evaluations = 0
    trace: list | None = [] if collect_trace else None
    best = None  # ((J, eps, gradient), evaluation)

    stage_space = space
    for _stage in range(2):
        for w1 in _grid(stage_space.w1):
            for w2 in _grid(stage_space.w2):
                base = evaluate_candidate(
                    CandidateParams("multi", float(stage_space.gradient[0]),
                                    d=d, w1=float(w1), w2=float(w2)),
                    constants, b0=space.b0, eta=space.eta)
                best = _sweep_gradient(base, stage_space.gradient, space, constants,
                                       best, trace)
                evaluations += stage_space.gradient[2]
        if best is None:
            break
        p = best[1].params
        stage_space = replace(space,
                              w1=_refined(space.w1, p.w1),
                              w2=_refined(space.w2, p.w2),
                              gradient=_refined(space.gradient, p.gradient))
    return _result_from(best[1] if best else None, evaluations, tuple(trace or ()))


def maximize_J_linear(h_target: float, space: SearchSpace | None = None,
                      constants: PhysicalConstants = DEFAULT_CONSTANTS,
                      collect_trace: bool = False) -> SearchResult:
    """Largest J in a linear trap whose spacing equals h_target.

    The trap frequency follows from the spacing in closed form; only the
    gradient is searched (two stages), under the eps ceiling.
    """
    if h_target <= 0.0:
        raise ValueError("target spacing must be positive")
    space = space or SearchSpace()
    w = linear_frequency_for_spacing(h_target, constants)
    evaluations = 0
    trace: list | None = [] if collect_trace else None
    best = None

    base = evaluate_candidate(CandidateParams("linear", float(space.gradient[0]), w=w),
                              constants, b0=space.b0, eta=space.eta)
    grid = space.gradient
    for _stage in range(2):
        best = _sweep_gradient(base, grid, space, constants, best, trace)
        evaluations += grid[2]
        if best is None:
            break
        grid = _refined(space.gradient, best[1].params.gradient)
    return _result_from(best[1] if best else None, evaluations, tuple(trace or ()))
