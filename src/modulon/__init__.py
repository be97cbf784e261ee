"""modulon: periodic traveling waves of dispersive models, their
Floquet-Bloch stability, semigroup growth bounds on truncations, and
nonlinear instability experiments."""

__version__ = "0.1.0"

from .symbols import (SymbolSpec, NonlinearitySpec, ModelSpec, Classification,
                      evaluate_symbol, classify_symbol, positive_shift,
                      parse_symbol, catalog_symbols, model_for_symbol)
from .fields import (PeriodicField, WavePacket, zero_field, field_from_values,
                     cosine_field, cosine_coefficients, inner, sobolev_norm,
                     l2_norm, apply_multiplier, derivative, dealiased_product,
                     pointwise_image, synthesize_packet, bloch_decompose,
                     midpoint_band_nodes, save_field, load_field)
from .waves import (TravelingWave, small_amplitude_wave, refine_newton,
                    continue_in_amplitude, whitham_condition_margin,
                    spectral_decay_diagnostic, kernel_defect, residual_norm,
                    steady_residual_field, resample, save_wave, load_wave)
from .bloch import (BlochOperator, BlochSpectrum, GrowthCurve, assemble_bloch,
                    bloch_eigvals, eigens, scan_bloch, fit_band, rational_k0,
                    unstable_eigenfunction)
from .semigroup import (PropagatorProbe, propagator_norm, dual_propagator_norm,
                        probe_growth, riesz_projection, trichotomy_split)
from .evolve import (advance, conserved_quantities, relative_drift,
                     orbital_distance, lift_wave, stable_dt,
                     build_approximate_solution, approximate_solution_residual)
from .experiments import (DeltaRun, ExperimentReport, SweepResult,
                          run_multiperiodic, run_localized, threshold_sweep,
                          save_report)
