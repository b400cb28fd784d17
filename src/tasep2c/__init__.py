"""Exact probabilities and Monte Carlo for the TASEP with second class particles.

The package has three layers:

* exact machinery -- permutations, scattering/amplitude matrices, and the
  one-variable residue integrals every probability formula factors into;
* probability formulas -- transition probabilities and the
  leftmost-first-class-particle event, each with independent residue and
  quadrature evaluation routes, plus exact verification of the algebraic
  identities behind them at random points of GF(2^61 - 1);
* a seeded continuous-time Monte Carlo simulator serving as the
  statistical oracle, and a CLI tying everything together.
"""

from .bethe import (
    SparseMatrix,
    amplitude,
    amplitude_center,
    bethe_residuals,
    braid_relations_hold,
    scattering_matrix,
    word_index,
)
from .contour import (
    QuadratureSpec,
    circle_quadrature,
    multi_contour,
    residue_value,
)
from .errors import AccuracyError, DegeneratePointError, PoleError, WindowTooSmallWarning
from .formulas import (
    Configuration,
    StepInitial,
    head_transition_probability,
    head_word,
    leftmost_probability,
    leftmost_probability_shifted_step,
    leftmost_probability_step_det,
    probability_mass_check,
    step_configuration,
    tasep_leftmost_probability,
    transition_probability,
)
from .permutations import adjacent_decomposition, enumerate_permutations, sign
from .simulate import SimulationEstimate, estimate_event, simulate_until, step_dynamics

__version__ = "0.1.0"
