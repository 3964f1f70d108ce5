"""Solitary waves of U(1)-invariant nonlinear Klein-Gordon equations.

Construct radial ground states and planar angular excited states by shooting,
verify the Derrick-Pokhozhaev identity, and confirm by direct grid integration
and time evolution that Lorentz-boosted waves carry the relativistic particle
energy-momentum  E_v = E_0/sqrt(1-v^2), P_v = E_0 v/sqrt(1-v^2).
"""

from .potential import (ConditionReport, PotentialSpec, check_conditions,
                        evaluate_force, evaluate_potential, expected_amplitude)
from .radial import (NoBracket, NodeCountMismatch, RadialProfile, SolitaryWave,
                     StepFailure, WaveInterpolant, equation_residual,
                     find_excited_state, find_ground_state, fit_tail_decay,
                     load_wave, resample_wave, save_wave)
from .functionals import (EnergyMomentum, FunctionalReport, SuperluminalVelocity,
                          compute_functionals, lorentz_boost, predict_energy_momentum)
from .boost import (FieldSample, GridSpec, GridTooSmall, ScanRow, ZeroField,
                    boost_scan, center_of_energy, grid_for, load_sample,
                    measure_energy, measure_momentum, sample_boosted,
                    save_sample, scan_to_csv, scan_to_json)
from .evolve import (CflViolation, DiagnosticPoint, EvolutionState, NonFinite,
                     diagnostics_to_csv, evolve, step)

__version__ = "0.1.0"
