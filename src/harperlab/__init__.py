"""harperlab: spectral laboratory for the Harper operator at rational flux.

Bands and gap labels from the determinant decomposition, Lyapunov exponents
by three independent routes, resolvent coefficient sheets and their linear
system, Farey/totient combinatorics, and a deterministic butterfly batch
engine with Hall-conductance rendering.
"""

__version__ = "0.1.0"

from .rationals import RationalFrequency, convergents, named_continued_fraction
from .rotation import (RotationRep, build_rep, build_uv, hamiltonian, lam_phase, max_norm,
                       monomial, rho_images, sigma_images)
from .spectrum import (BandSet, ChambersData, ChambersError, DualityReport,
                       GapRecord, GapTrack, band_edges, chambers, corner_bands,
                       corner_edges, dual_check, gap_label, gaps, harper_matrix,
                       hausdorff_intervals, ids, label_to_index, track_gap)
from .lyapunov import (CriticalPoint, GradientRecord, HessianRecord,
                       LyapunovValue, critical_scan, gradient, hessian,
                       log_potential, lyapunov_thouless, lyapunov_trace,
                       lyapunov_transfer)
from .coefficients import (CoefficientSheet, DecayEstimate, SystemResidual, VanishingReport,
                           build_phi, coefficient_sheet, decay_rate, recursion_sheets,
                           symmetrized_sheet, system_residual, vanishing_probe)
from .numbertheory import (ComponentCount, FareySequence, FranelRow,
                           component_count, farey, franel_sum, franel_table,
                           phi_cumulative, totients)
from .butterfly import (ButterflyDataset, FractionRow, butterfly_fractions, compute_butterfly,
                        hall_color, parse_dataset, render, serialize_dataset)
